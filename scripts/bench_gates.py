#!/usr/bin/env python3
"""Runs the benches declared in bench_gates.json and evaluates their gates.

One entry per BENCH_*.json file: `bench` is the cloudscope-bench target
that regenerates it in smoke mode, `rows` the ids it writes ({a,b}
alternation expands), and `gates` bounds (`min`/`max`, inclusive) on an
expression over `r[row id]`. The benches only measure; every bound on
their numbers lives here, as data, so each claim is declared once. The
file is deleted before its bench runs, so the rows read are this run's.
A row the bench writes but `rows` does not declare fails, so the bench
surface cannot grow without a declaration.
"""
import itertools
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def expand(pattern):
    parts = re.split(r"\{([^}]*)\}", pattern)
    choices = [p.split(",") if i % 2 else [p] for i, p in enumerate(parts)]
    return ["".join(c) for c in itertools.product(*choices)]


def main():
    with open(os.path.join(ROOT, "scripts", "bench_gates.json")) as f:
        table = json.load(f)
    print(f"host: {os.cpu_count()} hardware threads")
    passed = 0
    failures = []
    for path, spec in table.items():
        full = os.path.join(ROOT, path)
        print(f"==> bench smoke: {spec['bench']} -> {path}", flush=True)
        if os.path.exists(full):
            os.remove(full)
        cmd = ["cargo", "bench", "-q", "-p", "cloudscope-bench", "--bench", spec["bench"]]
        env = {**os.environ, "CLOUDSCOPE_BENCH_SMOKE": "1"}
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode:
            sys.exit(f"ERROR: bench {spec['bench']} failed")
        try:
            with open(full) as f:
                r = json.load(f)
        except (OSError, ValueError) as e:
            failures.append(f"{path}: unreadable: {e}")
            continue
        declared = {row for pat in spec["rows"] for row in expand(pat)}
        missing = sorted(declared - r.keys())
        undeclared = sorted(r.keys() - declared)
        if missing or undeclared:
            failures.append(f"{path}: missing rows {missing}, undeclared rows {undeclared}")
            continue
        for gate in spec["gates"]:
            value = eval(gate["expr"], {"__builtins__": {}, "max": max, "r": r})
            lo, hi = gate.get("min", float("-inf")), gate.get("max", float("inf"))
            verdict = f"{gate['name']}: {value:.4g} (bounds [{lo}, {hi}])"
            if lo <= value <= hi:
                passed += 1
                print(f"    PASS {verdict}")
            else:
                failures.append(f"{path}: {verdict}")
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    print(f"bench gates: {passed} passed, {len(failures)} failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
