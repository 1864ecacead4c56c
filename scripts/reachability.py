#!/usr/bin/env python3
"""Fails on a `pub` item that only its own tests reach.

Every `pub fn`, `pub struct`, `pub enum`, `pub trait` and `pub type`
defined in the non-test code of `crates/*/src` must be named by some
non-test user: the non-test code of `crates/*/src` (the `src/bin`
binaries included), the examples (`examples/`, `crates/*/examples`),
`crates/*/benches` and `benchmark/src`. The scan is by name: an
occurrence of the identifier counts as a use, except inside the item's
own definition (`fn name …`, `struct Name …`, …) or an `impl` block of
it (`impl Name …`, `impl Trait for Name …`), and in comments, string
literals and `use` / `pub use` statements. `#[cfg(test)]` items are
skipped item by item (a test module, a test-only `mod x;` or function),
not by cutting a file at its first attribute.

An item kept on purpose without such a user (a hook other crates' tests
drive, or an oracle a kept test compares kept code against) is listed
in `scripts/reachability_allow.txt` as `path::name  # reason`. The gate
also fails on a stale entry: one whose item no longer exists or now has
a user. Run from anywhere:

    python3 scripts/reachability.py
"""
import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW = os.path.join("scripts", "reachability_allow.txt")

PUB_ITEM = re.compile(
    r"\bpub\s+(?:const\s+|async\s+|unsafe\s+)*(fn|struct|enum|trait|type)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
DEFINITION = re.compile(r"\b(?:fn|struct|enum|trait|type)\s+([A-Za-z_][A-Za-z0-9_]*)")
# An `impl` header up to its body: the self type is the path after
# `for`, or after the generics when there is no `for`.
IMPL_HEADER = re.compile(r"(?m)^[ \t]*(?:unsafe\s+)?impl\b[^{;]*\{")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CFG_TEST = "#[cfg(test)]"


def blank(src):
    """Replaces comments and string/char literal contents with spaces.

    Newlines are kept, so offsets and line numbers still match `src`.
    Lifetimes (`'a`) are left alone; only a quote that closes within a
    char's length starts a char literal.
    """
    out = list(src)
    i, n = 0, len(src)

    def wipe(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            wipe(i, j)
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            wipe(i, j)
            i = j
        elif c == "r" and re.match(r'r#*"', src[i:i + 258]) and not (
            i and (src[i - 1].isalnum() or src[i - 1] == "_")
        ):
            hashes = re.match(r"r(#*)\"", src[i:]).group(1)
            start = i + 2 + len(hashes)
            j = src.find('"' + hashes, start)
            j = n if j < 0 else j + 1 + len(hashes)
            wipe(start, j - 1 - len(hashes))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            wipe(i + 1, j)
            i = j + 1
        elif c == "'":
            m = re.match(r"'(?:\\(?:u\{[0-9a-fA-F]+\}|x[0-9a-fA-F]{2}|.)|[^\\'])'", src[i:i + 12])
            if m:
                wipe(i + 1, i + len(m.group(0)) - 1)
                i += len(m.group(0))
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def item_end(code, start):
    """Offset just past the item that begins at `start`.

    Skips leading attributes, then ends at the first `;` outside braces
    or at the brace that closes the item's first `{`.
    """
    i, n = start, len(code)
    while True:
        while i < n and code[i].isspace():
            i += 1
        if not code.startswith("#[", i):
            break
        depth, i = 0, i + 1
        while i < n:
            if code[i] == "[":
                depth += 1
            elif code[i] == "]":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            i += 1
    depth = 0
    while i < n:
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";" and depth == 0:
            return i + 1
        i += 1
    return n


MOD_DECL = re.compile(r"\bmod\s+([A-Za-z_][A-Za-z0-9_]*)\s*;")


def module_files(path, name):
    """The files a `mod name;` declared in `path` may live in."""
    stem, _ = os.path.splitext(path)
    base = os.path.dirname(path) if os.path.basename(stem) in ("lib", "main", "mod") else stem
    return [os.path.join(base, name + ".rs"), os.path.join(base, name, "mod.rs")]


def split_tests(path):
    """The file with comments, literals and `#[cfg(test)]` items blanked,
    plus the module files its `#[cfg(test)] mod name;` items declare."""
    with open(path, encoding="utf-8") as f:
        code = blank(f.read())
    out = list(code)
    test_mods = []
    pos = 0
    while True:
        at = code.find(CFG_TEST, pos)
        if at < 0:
            break
        end = item_end(code, at + len(CFG_TEST))
        for m in MOD_DECL.finditer(code, at, end):
            test_mods += module_files(path, m.group(1))
        for k in range(at, end):
            if out[k] != "\n":
                out[k] = " "
        pos = end
    return "".join(out), test_mods


def strip_uses(code):
    """Blanks `use` / `pub use` statements, which name but do not call."""
    out = list(code)
    for m in re.finditer(r"(?m)^[ \t]*(?:pub(?:\([^)]*\))?\s+)?use\s", code):
        end = code.find(";", m.start())
        end = len(code) if end < 0 else end + 1
        for k in range(m.start(), end):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def impl_self_type(header):
    """The last path segment of an `impl` header's self type: `Name` in
    `impl<T: Bound> Trait<T> for a::Name<T> where … {` or `impl Name {`."""
    rest = header[header.index("impl") + 4:].lstrip()
    if rest.startswith("<"):
        depth = 0
        for m in re.finditer(r"->|[<>]", rest):
            if m.group(0) != "->":
                depth += 1 if m.group(0) == "<" else -1
                if depth == 0:
                    rest = rest[m.end():]
                    break
    rest = re.split(r"\bwhere\b|\{", rest, maxsplit=1)[0]
    depth = 0
    for m in re.finditer(r"->|[<>]|\bfor\b(?!\s*<)", rest):
        if m.group(0) == "for" and depth == 0:
            rest = rest[m.end():]
            break
        if m.group(0) != "->" and m.group(0) != "for":
            depth += 1 if m.group(0) == "<" else -1
    m = re.match(r"[\s&]*(?:'[A-Za-z_]+\s+)?(?:mut\s+|dyn\s+)*([A-Za-z_][A-Za-z0-9_:]*)", rest)
    return m.group(1).rsplit("::", 1)[-1] if m else ""


def rel(path):
    return os.path.relpath(path, ROOT)


def rust_files(*patterns):
    files = set()
    for pattern in patterns:
        files.update(glob.glob(os.path.join(ROOT, pattern), recursive=True))
    return sorted(f for f in files if f.endswith(".rs"))


def main():
    sources = rust_files("crates/*/src/**/*.rs")
    corpus = sources + rust_files(
        "examples/**/*.rs",
        "crates/*/examples/**/*.rs",
        "crates/*/benches/**/*.rs",
        "benchmark/src/**/*.rs",
    )

    split = {path: split_tests(path) for path in corpus}
    # A module file is test code when a `#[cfg(test)] mod` declares it,
    # and so is every module a test file declares.
    test_files = {f for _, mods in split.values() for f in mods}
    pending = list(test_files)
    while pending:
        path = pending.pop()
        if path in split:
            for m in MOD_DECL.finditer(split[path][0]):
                for f in module_files(path, m.group(1)):
                    if f not in test_files:
                        test_files.add(f)
                        pending.append(f)
    live = {path: code for path, (code, _) in split.items() if path not in test_files}

    defined = {}  # (path, name) -> (line, kind)
    for path in sources:
        if path not in live:
            continue
        code = live[path]
        for m in PUB_ITEM.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            defined.setdefault((rel(path), m.group(2)), (line, m.group(1)))

    names = {name for _, name in defined}
    uses = {name: 0 for name in names}
    for code in live.values():
        code = strip_uses(code)
        for m in IDENT.finditer(code):
            if m.group(0) in uses:
                uses[m.group(0)] += 1
        # An item's own definition and its impl blocks name it without
        # using it.
        own = [(m.group(1), m.start()) for m in DEFINITION.finditer(code)]
        own += [(impl_self_type(m.group(0)), m.start()) for m in IMPL_HEADER.finditer(code)]
        for name, start in own:
            if name in uses:
                span = code[start:item_end(code, start)]
                uses[name] -= sum(1 for m in IDENT.finditer(span) if m.group(0) == name)

    allowed = {}
    with open(os.path.join(ROOT, ALLOW), encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            if "#" not in raw or not raw.split("#", 1)[1].strip():
                print(f"{ALLOW}:{number}: `{entry}` gives no reason")
                return 1
            path, _, name = entry.rpartition("::")
            allowed[(path, name)] = number

    errors = []
    for (path, name), (line, kind) in sorted(defined.items()):
        if uses[name] <= 0 and (path, name) not in allowed:
            errors.append(f"{path}:{line}: pub {kind} {name} has no non-test user")
    for (path, name), number in sorted(allowed.items(), key=lambda kv: kv[1]):
        if (path, name) not in defined:
            errors.append(f"{ALLOW}:{number}: stale entry {path}::{name} (no such pub item)")
        elif uses[name] > 0:
            errors.append(f"{ALLOW}:{number}: stale entry {path}::{name} (it has a user now)")

    for error in errors:
        print(error)
    print(f"reachability: {len(defined)} pub items, {len(allowed)} allow-listed, {len(errors)} findings")
    if errors:
        print("ERROR: delete what only its own tests reach, or allow-list it with a reason", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
