#!/usr/bin/env python3
"""Status-discard lint: Status/Result-returning declarations carry
[[nodiscard]].

The typed error model (src/mathx/status.hpp) only works if no caller can
silently drop a chronos::Status or chronos::Result<T>. Two layers of
defence exist already: both class templates are declared
`class [[nodiscard]]`, and the tree builds with -Werror so
-Wunused-result makes any discard a build break. This lint adds the
third layer the first two cannot give: the per-declaration attribute is
*visible in the API* (a reader of api.hpp sees the contract without
opening status.hpp), and a NEW Status-returning function cannot merge
without it — the class-level attribute covers call sites, but this
checker keeps declarations honest as the API grows.

Rule: every function *declaration* in src/mathx, src/phy, src/core whose
return type is `Status` / `chronos::Status` / `Result<T>` /
`chronos::Result<T>` must be preceded by `[[nodiscard]]` (same line,
before the return type, or as the previous non-blank code line).
Out-of-line member *definitions* (`Status Engine::calibrate(...)`) are
exempt — C++ wants the attribute on the declaration only.

Suppression: statement-scoped `lint:allow(status-discard)` — legitimate
e.g. for a callback type alias where the attribute is ill-formed.

Registered as CTest case `lint_status_discard` (label `lint`); negative
fixture: tests/lint/fixtures/status_discard_bad.

Usage: check_status_discard.py [--root DIR]
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import files, suppress, tokenizer  # noqa: E402
from lintlib.driver import run_checker  # noqa: E402

RULE = "status-discard"
CHECKED_DIRS = ("src/mathx", "src/phy", "src/core")

# A declaration line: optional specifiers, then the Status/Result return
# type, then the function name and an opening paren. Requiring the name
# to be a plain identifier (no '::') skips out-of-line definitions, and
# requiring '(' right after skips variables (`Status st = f();`).
DECL_RE = re.compile(
    r"^\s*(?P<prefix>(?:\[\[nodiscard\]\]\s+)?"
    r"(?:(?:virtual|static|inline|constexpr|friend|explicit)\s+)*)"
    r"(?P<ret>(?:chronos::)?(?:Status|Result\s*<[^;=()]*>))\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")
NODISCARD = "[[nodiscard]]"


def check_file(path: str, rel: str) -> list[str]:
    text = files.read_source(path)
    raw_lines = text.splitlines()
    code_lines = tokenizer.strip_comments_and_strings(text)
    allowed = suppress.allow_lines(raw_lines, code_lines, RULE)

    violations = []
    for lineno, code in enumerate(code_lines, 1):
        if lineno in allowed:
            continue
        m = DECL_RE.match(code)
        if not m:
            continue
        if m.group("name") in ("return", "co_return", "else", "throw"):
            continue
        if NODISCARD in m.group("prefix"):
            continue
        # Attribute may sit on the previous code line, but only when that
        # line is a *continuation* of this declaration (`[[nodiscard]]
        # virtual\n  Status f();` after wrapping) — a previous line that
        # completed its own statement doesn't donate its attribute.
        prev = ""
        for back in range(lineno - 2, -1, -1):
            if code_lines[back].strip():
                prev = code_lines[back]
                break
        if NODISCARD in prev and \
                not prev.rstrip().endswith((";", "{", "}")):
            continue
        violations.append(
            f"{rel}:{lineno}: {m.group('ret').strip()}-returning "
            f"declaration '{m.group('name')}' is missing {NODISCARD}")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (contains src/)")
    args = parser.parse_args()

    violations: list[str] = []
    checked = 0
    for sub in CHECKED_DIRS:
        if not os.path.isdir(os.path.join(args.root, sub)):
            continue
        for path in files.walk_sources(args.root, (sub,)):
            rel = os.path.relpath(path, args.root).replace(os.sep, "/")
            checked += 1
            violations.extend(check_file(path, rel))

    if violations:
        print(f"check_status_discard: {len(violations)} violation(s) in "
              f"{checked} files:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"check_status_discard: OK ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(run_checker(main))
