#!/usr/bin/env python3
"""Fails on a `pub` item that only its own tests reach.

A non-const `pub fn` defined in the non-test code of `crates/*/src` is
judged by what the programs link: the script makes a fresh dev build of
every non-test binary (the workspace's bins, examples and benches, then
`benchmark/` with `--locked`), reads each one's symbols with
`nm --demangle`, and fails on a function whose symbol none of them
holds. The linker drops every function no entry point reaches, so a
function whose only callers are themselves dead is found too, and a
shared name (`new`, `remove`, `len`) hides nothing.

Structs, enums, traits, type aliases, `const fn`s (which a const
context evaluates without a symbol) and `pub fn`s a `macro_rules!` body
declares are judged by name instead: an occurrence of the identifier in
the non-test code of `crates/*/src`, the examples, the benches or
`benchmark/src` counts as a use, except inside the item's own
definition (`fn name …`, `struct Name …`, …) or an `impl` block of it
(`impl Name …`, `impl Trait for Name …`), the trait an `impl Trait for
…` header implements, and comments, string literals and `use` /
`pub use` statements. So a trait counts as used only where it is named
as a bound, as `dyn`, or in a path. `#[cfg(test)]` items are skipped
item by item (a test module, a test-only `mod x;` or function), not by
cutting a file at its first attribute.

An item kept on purpose without such a user (a hook other crates' tests
drive, or an oracle a kept test compares kept code against) is listed
in `scripts/reachability_allow.txt` as `path::name  # reason` (an entry
covers every same-named item of the file). The gate also fails on a
stale entry: one whose items no longer exist or all have a user now.
It fails, and never passes, when `nm` is missing, when a binary a
manifest declares was not built, or when a binary holds no
`cloudscope_` symbol. Run from anywhere:

    python3 scripts/reachability.py
"""
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW = os.path.join("scripts", "reachability_allow.txt")

PUB_ITEM = re.compile(
    r"\bpub\s+((?:const\s+|async\s+|unsafe\s+)*)(fn|struct|enum|trait|type)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
DEFINITION = re.compile(r"\b(?:fn|struct|enum|trait|type)\s+([A-Za-z_][A-Za-z0-9_]*)")
# An `impl` header up to its body: the self type is the path after
# `for`, or after the generics when there is no `for`.
IMPL_HEADER = re.compile(r"(?m)^[ \t]*(?:unsafe\s+)?impl\b[^{;]*\{")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CFG_TEST = "#[cfg(test)]"
# The binaries the build must yield, by target kind.
BINARY_KINDS = ("bin", "example", "bench")


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


def impl_trait(header):
    """The last path segment of the trait an `impl Trait for X {` header
    implements, or "" for an inherent `impl X {`."""
    rest = header[header.index("impl") + 4:].lstrip()
    if rest.startswith("<"):
        rest = rest[generics_end(rest):]
    rest = re.split(r"\bwhere\b|\{", rest, maxsplit=1)[0]
    depth = 0
    for m in re.finditer(r"->|[<>]|\bfor\b(?!\s*<)", rest):
        if m.group(0) == "for" and depth == 0:
            path = re.match(r"\s*!?\s*([A-Za-z_][A-Za-z0-9_:]*)", rest[:m.start()])
            return path.group(1).rsplit("::", 1)[-1] if path else ""
        if m.group(0) in "<>":
            depth += 1 if m.group(0) == "<" else -1
    return ""


def generics_end(text):
    """Offset just past the `<…>` that `text` starts with."""
    depth = 0
    for m in re.finditer(r"->|[<>]", text):
        if m.group(0) != "->":
            depth += 1 if m.group(0) == "<" else -1
            if depth == 0:
                return m.end()
    return len(text)


def fn_scopes(code, offsets):
    """For each offset, the named scopes enclosing it: a list of
    `(kind, name)` with kind `mod`, `impl` (name: the self type, or None
    for a trait impl), `fn`, `macro` or `block`."""
    found = {}
    stack = []
    header_start = 0
    parens = 0
    for i, c in enumerate(code):
        if i in offsets:
            found[i] = list(stack)
        if c in "([":
            parens += 1
        elif c in ")]":
            parens -= 1
        elif c == ";" and parens == 0:
            header_start = i + 1
        elif c == "{":
            header = code[header_start:i]
            if re.match(r"\s*(?:#\[[^\]]*\]\s*)*(?:unsafe\s+)?impl\b", header):
                name = None if impl_trait(header) else impl_self_type(header + "{")
                stack.append(("impl", name))
            elif m := re.search(r"\bmod\s+([A-Za-z_][A-Za-z0-9_]*)\s*$", header):
                stack.append(("mod", m.group(1)))
            elif m := re.search(r"\bmacro_rules!\s*([A-Za-z_][A-Za-z0-9_]*)\s*$", header):
                stack.append(("macro", m.group(1)))
            elif m := re.search(r"\bfn\s+([A-Za-z_][A-Za-z0-9_]*)", header):
                stack.append(("fn", m.group(1)))
            else:
                stack.append(("block", None))
            header_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            header_start = i + 1
    return found


def split_path(symbol):
    """Splits a demangled path at its top-level `::`."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(symbol):
        if symbol.startswith("->", i):
            i += 2
            continue
        c = symbol[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and symbol.startswith("::", i):
            parts.append(symbol[start:i])
            i += 2
            start = i
            continue
        i += 1
    parts.append(symbol[start:])
    return parts


def symbol_path(symbol):
    """The defining path of a function symbol as `fn_scopes` spells it:
    generic arguments dropped, an `<impl Type>` segment read as `Type`,
    and a closure or shim suffix cut, so a closure's symbol names its
    enclosing function. None for a trait method (`<X as Trait>::f`,
    `<impl Trait for X>`), which no `pub fn` defines."""
    symbol = re.sub(r"\.llvm\.\d+$", "", symbol)
    if symbol.startswith("<"):
        return None
    out = []
    for part in split_path(symbol):
        if part.startswith("{") or re.fullmatch(r"h[0-9a-f]{16}", part):
            break
        if part.startswith("<impl "):
            inner = part[len("<impl "):-1]
            if " for " in inner:
                return None
            part = split_path(inner[:inner.index("<")] if "<" in inner else inner)[-1]
        elif "<" in part:
            part = part[:part.index("<")]
        out.append(part)
    return "::".join(out)


def cargo(args):
    """Runs a cargo build with JSON messages; returns the executables it
    yields as {(package manifest, kind, target name): path}."""
    cmd = ["cargo", "build", "--message-format=json-render-diagnostics"] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"reachability: `{' '.join(cmd)}` failed")
    built = {}
    for line in proc.stdout.splitlines():
        msg = json.loads(line) if line.startswith("{") else {}
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            target = msg["target"]
            manifest = msg.get("manifest_path", "")
            for kind in target["kind"]:
                built[(manifest, kind, target["name"])] = msg["executable"]
    return built


def declared(manifest):
    """The bin, example and bench targets the manifest's workspace
    declares under `crates/` and `benchmark/`, as `cargo` keys them."""
    cmd = ["cargo", "metadata", "--no-deps", "--format-version", "1", "--manifest-path", manifest]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"reachability: `{' '.join(cmd)}` failed")
    keys = set()
    for package in json.loads(proc.stdout)["packages"]:
        where = rel(package["manifest_path"])
        if not (where.startswith("crates" + os.sep) or where.startswith("benchmark" + os.sep)):
            continue
        for target in package["targets"]:
            for kind in target["kind"]:
                if kind in BINARY_KINDS:
                    keys.add((package["manifest_path"], kind, target["name"]))
    return keys


def linked_symbols():
    """Builds every non-test binary in the dev profile and returns the
    defining paths of the functions they link."""
    workspace = os.path.join(ROOT, "Cargo.toml")
    benchmark = os.path.join(ROOT, "benchmark", "Cargo.toml")
    built = cargo(["--workspace", "--bins", "--examples", "--bench", "*"])
    built.update(cargo(["--locked", "--manifest-path", benchmark, "--bins"]))
    want = declared(workspace) | declared(benchmark)
    missing = sorted(k for k in want if k not in built or not os.path.isfile(built[k]))
    for manifest, kind, name in missing:
        print(f"reachability: the {kind} `{name}` of {rel(manifest)} was not built")
    if missing or not want:
        raise SystemExit(1)
    paths = set()
    for key in sorted(want):
        try:
            proc = subprocess.run(
                ["nm", "--demangle", "--defined-only", built[key]],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        except FileNotFoundError:
            raise SystemExit("reachability: `nm` (binutils) is not installed; it cannot read what the binaries link")
        if proc.returncode != 0:
            raise SystemExit(f"reachability: nm failed on {built[key]}: {proc.stderr.strip()}")
        symbols = [line.split(" ", 2)[2] for line in proc.stdout.splitlines() if line.count(" ") >= 2]
        if not any("cloudscope_" in s for s in symbols):
            raise SystemExit(f"reachability: {built[key]} holds no cloudscope_ symbol; is it stripped?")
        for s in symbols:
            path = symbol_path(s)
            if path:
                paths.add(path)
    return paths


def crate_of(path):
    """The crate name and module path `fn_scopes` roots a source file's
    items at: `crates/kb/src/persist/wal.rs` is `cloudscope_kb` and
    `persist::wal`; a `src/bin/<name>.rs` is crate `<name>`."""
    parts = os.path.relpath(path, ROOT).split(os.sep)
    src = parts[3:]
    if src[0] == "bin":
        return src[1][:-3].replace("-", "_"), []
    with open(os.path.join(ROOT, *parts[:2], "Cargo.toml"), encoding="utf-8") as f:
        crate = re.search(r'(?m)^name\s*=\s*"([^"]+)"', f.read()).group(1).replace("-", "_")
    mods = [p[:-3] if p.endswith(".rs") else p for p in src]
    if mods[-1] in ("lib", "main", "mod"):
        mods.pop()
    return crate, mods


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

    defined = {}  # (path, name) -> [(line, kind, symbol path or None)]
    for path in sources:
        if path not in live:
            continue
        code = live[path]
        items = list(PUB_ITEM.finditer(code))
        scopes = fn_scopes(code, {m.start() for m in items if m.group(2) == "fn"})
        crate, mods = crate_of(path)
        for m in items:
            line = code.count("\n", 0, m.start()) + 1
            kind, name, symbol = m.group(2), m.group(3), None
            if kind == "fn" and "const" not in m.group(1).split():
                scope = scopes[m.start()]
                if all(k != "macro" for k, _ in scope):
                    symbol = "::".join([crate] + mods + [n for k, n in scope if n] + [name])
            elif m.group(1).strip():
                kind = f"{m.group(1).strip()} {kind}"
            defined.setdefault((rel(path), name), []).append((line, kind, symbol))

    names = {name for (_, name), items in defined.items() for _, _, symbol in items if symbol is None}
    uses = {name: 0 for name in names}
    for code in live.values():
        code = strip_uses(code)
        for m in IDENT.finditer(code):
            if m.group(0) in uses:
                uses[m.group(0)] += 1
        # An item's own definition and its impl blocks name it without
        # using it, and so does the trait an impl header implements.
        own = [(m.group(1), m.start()) for m in DEFINITION.finditer(code)]
        own += [(impl_self_type(m.group(0)), m.start()) for m in IMPL_HEADER.finditer(code)]
        for name, start in own:
            if name in uses:
                span = code[start:item_end(code, start)]
                uses[name] -= sum(1 for m in IDENT.finditer(span) if m.group(0) == name)
        for m in IMPL_HEADER.finditer(code):
            trait = impl_trait(m.group(0))
            if trait in uses:
                uses[trait] -= 1

    linked = linked_symbols()

    def used(name, symbol):
        return symbol in linked if symbol else uses[name] > 0

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
    for (path, name), items in sorted(defined.items()):
        if (path, name) in allowed:
            continue
        for line, kind, symbol in items:
            if not used(name, symbol):
                how = f"no binary links {symbol}" if symbol else "no non-test user"
                errors.append(f"{path}:{line}: pub {kind} {name}: {how}")
    for (path, name), number in sorted(allowed.items(), key=lambda kv: kv[1]):
        if (path, name) not in defined:
            errors.append(f"{ALLOW}:{number}: stale entry {path}::{name} (no such pub item)")
        elif all(used(name, symbol) for _, _, symbol in defined[(path, name)]):
            errors.append(f"{ALLOW}:{number}: stale entry {path}::{name} (it has a user now)")

    for error in errors:
        print(error)
    items = [item for found in defined.values() for item in found]
    judged = sum(1 for _, _, symbol in items if symbol)
    print(
        f"reachability: {len(items)} pub items ({judged} fns by linked symbol), "
        f"{len(allowed)} allow-listed, {len(errors)} findings"
    )
    if errors:
        print("ERROR: delete what only its own tests reach, or allow-list it with a reason", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
