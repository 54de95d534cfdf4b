#!/usr/bin/env python3
"""Bench-key drift lint: every micro-kernel the bench emits is described.

bench/bench_micro_core.cpp times a table of kernels, one aggregate entry
each, and reports `<json_key>_ns` per entry in its SUMMARY line:

    ks.push_back({"BM_FistaSolve", "fista_solve", [solver, h] { ... }});

bench/BENCH_ndft.json records that trajectory and its `workloads` object
says what each key measures. The two drift apart silently: a kernel
added without a description leaves its history numbers unexplained, and
a deleted kernel leaves a description of a workload nothing runs. This
lint requires the set of json_keys in the kernel table to EQUAL the set
of `workloads` keys, and reports each side's extras:

  * an undocumented key — emitted by the bench, absent from workloads;
  * a stale key — described in workloads, emitted by no kernel.

A table entry is a brace initialiser whose first member is a "BM_..."
string literal and whose second member is the json_key literal, both on
one line (comments and strings elsewhere are ignored). A bench file with
no parsable entry, or a missing/malformed JSON file, is FATAL (exit 2):
a reformatted table must not make the lint pass vacuously.

Registered as CTest case `lint_bench_keys` (label `lint`); negative
fixture: tests/lint/fixtures/bench_keys_bad.

Usage: check_bench_keys.py [--root DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import files, tokenizer  # noqa: E402
from lintlib.driver import FatalLintError, run_checker  # noqa: E402

BENCH_SOURCE = "bench/bench_micro_core.cpp"
BENCH_JSON = "bench/BENCH_ndft.json"

# On the comment/string-stripped line: a brace initialiser opening with two
# string literals (stripped to ""), i.e. the shape of a table entry.
ENTRY_SHAPE_RE = re.compile(r'\{\s*""\s*,\s*""')
# On the raw line: the same entry with its literals intact.
ENTRY_RE = re.compile(r'\{\s*"(BM_\w+)"\s*,\s*"(\w+)"')


def bench_keys(path: str) -> dict[str, int]:
    """json_key -> line number of its kernel-table entry."""
    text = files.read_source(path)
    raw_lines = text.splitlines()
    code_lines = tokenizer.strip_comments_and_strings(text)
    keys: dict[str, int] = {}
    for lineno, code in enumerate(code_lines, 1):
        if not ENTRY_SHAPE_RE.search(code):
            continue
        m = ENTRY_RE.search(raw_lines[lineno - 1])
        if m:
            keys.setdefault(m.group(2), lineno)
    if not keys:
        raise FatalLintError(
            f"{path}: no kernel-table entry {{\"BM_...\", \"<key>\", ...}} "
            f"found — the table format changed; update this checker")
    return keys


def documented_keys(path: str) -> dict[str, int]:
    """`workloads` key -> line number of its description."""
    text = files.read_source(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FatalLintError(f"{path}: malformed JSON: {err}") from err
    workloads = doc.get("workloads") if isinstance(doc, dict) else None
    if not isinstance(workloads, dict):
        raise FatalLintError(f"{path}: no \"workloads\" object")
    lines = text.splitlines()
    out: dict[str, int] = {}
    for key in workloads:
        needle = f'"{key}":'
        out[key] = next((i for i, line in enumerate(lines, 1)
                         if needle in line), 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (contains bench/)")
    args = parser.parse_args()

    emitted = bench_keys(os.path.join(args.root, BENCH_SOURCE))
    described = documented_keys(os.path.join(args.root, BENCH_JSON))

    violations = []
    for key in sorted(set(emitted) - set(described)):
        violations.append(
            f"{BENCH_SOURCE}:{emitted[key]}: undocumented key '{key}' "
            f"(add a description to {BENCH_JSON} \"workloads\")")
    for key in sorted(set(described) - set(emitted)):
        violations.append(
            f"{BENCH_JSON}:{described[key]}: stale key '{key}' "
            f"(no kernel in {BENCH_SOURCE} emits it)")

    if violations:
        print(f"check_bench_keys: {len(violations)} violation(s):",
              file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"check_bench_keys: OK ({len(emitted)} kernel keys, all "
          f"described)")
    return 0


if __name__ == "__main__":
    sys.exit(run_checker(main))
