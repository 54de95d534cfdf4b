#!/usr/bin/env python3
"""Determinism lint: ban ambient-entropy and unstable-order constructs.

The runtime's contract (core/session.hpp) is that every result is a
pure function of (source, pipeline, calibration, request, rng state) —
bit-identical for any thread count, queue depth, or scheduling. TSan can
only catch the races; this lint statically bans the constructs that would
smuggle ambient nondeterminism into the contract layers (src/mathx,
src/sim, src/core):

  * std::random_device            — ambient entropy; all randomness must
                                    flow from a caller-supplied mathx::Rng
  * rand() / srand() / ::rand     — global-state C PRNG
  * time(...)                     — wall-clock input
  * *_clock::now()                — steady/system/high_resolution clocks
                                    (bench/ and tests/ may time things;
                                    library code may not)
  * pointer-keyed map/set         — iteration order follows the allocator,
                                    so any loop over one is a scheduling
                                    dependence

Suppression: statement-scoped `lint:allow(nondeterminism)` in a comment
(see lintlib/suppress.py) — use it only with a reason, for constructs
that provably never feed a measured result (e.g. wall-clock
*diagnostics* such as BatchResult::elapsed_seconds).

Registered as CTest case `lint_determinism` (label `lint`); the negative
fixture under tests/lint/fixtures/determinism_bad must make it fail.

Usage: check_determinism.py [--root DIR]
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import files, suppress, tokenizer  # noqa: E402
from lintlib.driver import FatalLintError, run_checker  # noqa: E402

# Layers bound by the bit-identical determinism contract. phy/geom are
# pure functions of their inputs by construction (no state at all), and
# the app layers (baseline/net/proto/drone) run on top of the contract;
# netd is included because chronosd promises the contract SURVIVES the
# wire (daemon replies bit-identical to the in-process batch), so the
# serving layer may not read clocks or entropy either (sleeping is fine,
# reading the time is not). Extend as layers are ported to the v2 runtime.
CHECKED_DIRS = ("src/mathx", "src/sim", "src/core", "src/netd")
RULE = "nondeterminism"

BANNED = [
    (re.compile(r"std::random_device|\brandom_device\b"),
     "std::random_device (ambient entropy; draw from mathx::Rng)"),
    (re.compile(r"(?<![A-Za-z0-9_:])s?rand\s*\(|::s?rand\b"),
     "C rand()/srand() (global-state PRNG; draw from mathx::Rng)"),
    (re.compile(r"(?<![A-Za-z0-9_:.])time\s*\("),
     "C time() (wall clock; results must not depend on time)"),
    (re.compile(r"(steady_clock|system_clock|high_resolution_clock)::now"),
     "std::chrono clock read (wall clock; bench/ may time, library may not)"),
    (re.compile(r"\b(?:std::)?(?:unordered_)?(?:multi)?(?:map|set)\s*<"
                r"\s*(?:const\s+)?[A-Za-z_][A-Za-z0-9_:]*\s*\*"),
     "pointer-keyed associative container (iteration order = allocation "
     "order; key by a stable id instead)"),
]


def check_file(path: str, rel: str) -> list[str]:
    text = files.read_source(path)
    raw_lines = text.splitlines()
    code_lines = tokenizer.strip_comments_and_strings(text)
    allowed = suppress.allow_lines(raw_lines, code_lines, RULE)
    violations = []
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if lineno in allowed:
            continue
        for pattern, why in BANNED:
            if pattern.search(code):
                violations.append(
                    f"{rel}:{lineno}: {why}\n    {raw.rstrip()}")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (contains src/)")
    args = parser.parse_args()

    any_dir = False
    violations: list[str] = []
    checked = 0
    for sub in CHECKED_DIRS:
        top = os.path.join(args.root, sub)
        if not os.path.isdir(top):
            continue
        any_dir = True
        for path in files.walk_sources(args.root, (sub,)):
            rel = os.path.relpath(path, args.root).replace(os.sep, "/")
            checked += 1
            violations.extend(check_file(path, rel))

    if not any_dir:
        raise FatalLintError(f"none of {CHECKED_DIRS} under {args.root}")
    if violations:
        print(f"check_determinism: {len(violations)} violation(s) in "
              f"{checked} files:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"check_determinism: OK ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(run_checker(main))
