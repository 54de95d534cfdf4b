#!/usr/bin/env python3
"""Orphan-header lint: every library header must have a non-test consumer.

A header under src/ that only its own .cpp and the test suite include is
library code nothing runs: no figure, bench, example, daemon or runtime
path reaches it, yet every sanitizer preset, clang-tidy and the other
lints keep building and checking it. This lint rejects

  * any src/**/*.hpp that no file under src/, bench/, examples/ or
    rangebench/ includes, other than the .cpp of the same path.

Files under tests/ do not count as consumers: a test that includes a
header nothing else uses is testing dead code. Includes are resolved the
way the build resolves them, against the single src/ include root
(`#include "core/api.hpp"` names src/core/api.hpp).

Built on lintlib: includes are taken from tokenized lines (a
commented-out include is not a consumer) and file reads are strict UTF-8
(a bad byte is FATAL, exit 2, not a silently skipped file).

Registered as CTest case `lint_orphan_headers` (label `lint`); the
negative fixture under tests/lint/fixtures/orphan_headers_bad must make
it fail (CTest WILL_FAIL), proving the lint actually bites.

Usage: check_orphan_headers.py [--root DIR]
  --root defaults to the repository root (two levels above this script);
  point it at a fixture tree to test the lint itself.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import files, includes  # noqa: E402
from lintlib.driver import FatalLintError, run_checker  # noqa: E402

# Trees whose files count as consumers of a src/ header.
CONSUMER_DIRS = ("src", "bench", "examples", "rangebench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (contains src/)")
    args = parser.parse_args()

    src_root = os.path.join(args.root, "src")
    if not os.path.isdir(src_root):
        raise FatalLintError(f"no src/ under {args.root}")

    headers = [
        os.path.relpath(path, src_root).replace(os.sep, "/")
        for path in files.walk_sources(args.root, ("src",), (".hpp",))
    ]
    consumers: dict[str, set[str]] = {h: set() for h in headers}
    for path in files.walk_sources(args.root, CONSUMER_DIRS):
        rel = os.path.relpath(path, args.root).replace(os.sep, "/")
        for _, target in includes.quoted_includes(files.read_source(path)):
            if target in consumers:
                consumers[target].add(rel)

    violations = []
    for header in headers:
        own_cpp = "src/" + header[:-len(".hpp")] + ".cpp"
        if not consumers[header] - {own_cpp}:
            violations.append(
                f"src/{header}: included by no file under "
                f"{', '.join(d + '/' for d in CONSUMER_DIRS)} other than "
                f"its own .cpp (tests do not count)")

    if violations:
        print(f"check_orphan_headers: {len(violations)} violation(s) in "
              f"{len(headers)} headers:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"check_orphan_headers: OK ({len(headers)} headers, "
          f"{sum(len(c) for c in consumers.values())} include edges)")
    return 0


if __name__ == "__main__":
    sys.exit(run_checker(main))
