#!/usr/bin/env python3
"""RNG stream-tag registry lint.

Every subsystem derives its private randomness with
`rng.split(kFooStreamTag)` / `fork(tag)`. Two subsystems splitting the
same parent stream on the same tag read *identical* randomness — a
correlation bug that no behavioural test reliably catches, because each
stream looks individually healthy. The defence is a single registry,
src/mathx/stream_tags.hpp, and this checker, which fails on:

  1. definition  — a `k...StreamTag` constant *defined* outside the
     registry, unless it is an alias whose initialiser names a registry
     tag (`= chronos::kFaultStreamTag;` — how layer-local spellings keep
     working); and any `k...Tag` constant, whatever its name, passed to
     `fork()` or `split()` without being a registry tag or an alias of
     one (a file-local `kFooBatchTag` would otherwise dodge the registry);
  2. collision   — two registry entries whose reserved ranges
     [value, value + range) overlap (an exact duplicate value is the
     range=1 special case);
  3. arithmetic  — a use site computing `kFooStreamTag + offset` when the
     tag reserved no range (range=1), or with a literal offset >= the
     reserved range; `kFooStreamTag - anything` is always a violation
     (it aliases below the tag's range). Non-literal offsets on a
     ranged tag are accepted — the reserving subsystem must bound them
     at runtime (e.g. kMaxRetryAttempts in core/retry.cpp).

Registry grammar (see stream_tags.hpp): one tag per line between the
`lint:stream-tag-registry-begin/end` markers, each carrying a
`// lint:stream-tag(range=N)` marker. A malformed registry is FATAL
(exit 2), not a violation — the checker cannot vouch for anything if it
cannot parse its ground truth.

Suppression: statement-scoped `lint:allow(stream-tags)`.

Registered as CTest case `lint_stream_tags` (label `lint`); negative
fixture: tests/lint/fixtures/stream_tags_bad.

Usage: check_stream_tags.py [--root DIR]
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import files, suppress, tokenizer  # noqa: E402
from lintlib.driver import FatalLintError, run_checker  # noqa: E402

RULE = "stream-tags"
REGISTRY_REL = "src/mathx/stream_tags.hpp"
BEGIN_MARKER = "lint:stream-tag-registry-begin"
END_MARKER = "lint:stream-tag-registry-end"

TAG_DEF_RE = re.compile(
    r"\b(k\w*StreamTag)\s*=\s*(0[xX][0-9a-fA-F]+|\d+)\s*(?:ull|ul|u|ULL)?\s*;")
RANGE_RE = re.compile(r"lint:stream-tag\(range=(\d+)\)")
ALIAS_RE = re.compile(r"\b(k\w*StreamTag)\s*=\s*(?:chronos::)?(k\w*StreamTag)\s*;")
TAG_REF_RE = re.compile(r"\b(k\w*StreamTag)\b")
FORK_ARG_RE = re.compile(r"\b(?:fork|split)\s*\(\s*(?:\w+::)*(k\w*Tag)\b")
ARITH_RE = re.compile(r"\b(k\w*StreamTag)\b\s*([+\-])\s*([A-Za-z0-9_]+)")
LITERAL_RE = re.compile(r"^(?:0[xX][0-9a-fA-F]+|\d+)$")


def parse_registry(root: str) -> dict[str, tuple[int, int]]:
    """name -> (value, range) from the registry header; FATAL if absent
    or malformed."""
    path = os.path.join(root, REGISTRY_REL)
    if not os.path.isfile(path):
        raise FatalLintError(f"registry header {REGISTRY_REL} not found "
                             f"under {root}")
    text = files.read_source(path)
    raw_lines = text.splitlines()
    code_lines = tokenizer.strip_comments_and_strings(text)

    registry: dict[str, tuple[int, int]] = {}
    inside = False
    saw_begin = saw_end = False
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if BEGIN_MARKER in raw:
            inside, saw_begin = True, True
            continue
        if END_MARKER in raw:
            inside, saw_end = False, True
            continue
        if not inside:
            continue
        m = TAG_DEF_RE.search(code)
        if not m:
            continue
        name, literal = m.group(1), m.group(2)
        rng = RANGE_RE.search(raw)
        if not rng:
            raise FatalLintError(
                f"{REGISTRY_REL}:{lineno}: registry entry {name} has no "
                f"lint:stream-tag(range=N) marker")
        if name in registry:
            raise FatalLintError(
                f"{REGISTRY_REL}:{lineno}: duplicate registry entry {name}")
        registry[name] = (int(literal, 0), int(rng.group(1)))
    if not (saw_begin and saw_end):
        raise FatalLintError(
            f"{REGISTRY_REL}: missing {BEGIN_MARKER}/{END_MARKER} markers")
    if not registry:
        raise FatalLintError(f"{REGISTRY_REL}: registry block is empty")
    return registry


def check_collisions(registry: dict[str, tuple[int, int]]) -> list[str]:
    violations = []
    entries = sorted(registry.items(), key=lambda kv: kv[1][0])
    for (a_name, (a_val, a_rng)), (b_name, (b_val, b_rng)) in zip(
            entries, entries[1:]):
        if b_val < a_val + a_rng:
            violations.append(
                f"{REGISTRY_REL}: reserved ranges collide: "
                f"{a_name} owns [{a_val:#x}, {a_val + a_rng:#x}) which "
                f"overlaps {b_name} = {b_val:#x} (range {b_rng})")
    return violations


def check_file(path: str, rel: str, registry: dict[str, tuple[int, int]],
               is_registry_file: bool) -> list[str]:
    text = files.read_source(path)
    raw_lines = text.splitlines()
    code_lines = tokenizer.strip_comments_and_strings(text)
    allowed = suppress.allow_lines(raw_lines, code_lines, RULE)

    # First pass: aliases defined in this file (valid iff the RHS is a
    # registry tag). An alias shares its target's reserved range.
    local_alias: dict[str, str] = {}
    for code in code_lines:
        m = ALIAS_RE.search(code)
        if m and m.group(2) in registry:
            local_alias[m.group(1)] = m.group(2)

    def resolve(name: str) -> tuple[int, int] | None:
        if name in registry:
            return registry[name]
        target = local_alias.get(name)
        return registry.get(target) if target else None

    violations = []
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        if lineno in allowed:
            continue

        # Rule 1: definitions outside the registry.
        if not is_registry_file:
            m = TAG_DEF_RE.search(code)
            if m:
                violations.append(
                    f"{rel}:{lineno}: stream tag {m.group(1)} defined "
                    f"outside {REGISTRY_REL} — register it there (aliases "
                    f"`= chronos::kTag;` are fine)")
                continue
            m = ALIAS_RE.search(code)
            if m and m.group(2) not in registry:
                violations.append(
                    f"{rel}:{lineno}: {m.group(1)} aliases {m.group(2)}, "
                    f"which is not a registered stream tag")
                continue

        # Out-of-registry references (typo'd tag names resolve to
        # nothing and would silently collide at runtime).
        for m in TAG_REF_RE.finditer(code):
            if resolve(m.group(1)) is None and \
                    not ALIAS_RE.search(code):
                violations.append(
                    f"{rel}:{lineno}: reference to unregistered stream "
                    f"tag {m.group(1)}")

        # Rule 1, use sites: whatever a tag constant is called, handing it
        # to fork()/split() requires it to be registered. `*StreamTag`
        # names are already reported by the reference check above.
        for m in FORK_ARG_RE.finditer(code):
            name = m.group(1)
            if resolve(name) is None and not name.endswith("StreamTag"):
                violations.append(
                    f"{rel}:{lineno}: {name} passed to fork()/split() is "
                    f"not a registered stream tag — define it in "
                    f"{REGISTRY_REL}")

        # Rule 3: arithmetic on tags.
        for m in ARITH_RE.finditer(code):
            name, op, operand = m.groups()
            info = resolve(name)
            if info is None:
                continue  # already reported as unregistered
            _value, rng = info
            if op == "-":
                violations.append(
                    f"{rel}:{lineno}: {name} - {operand} aliases below "
                    f"the tag's reserved range")
                continue
            if rng <= 1:
                violations.append(
                    f"{rel}:{lineno}: arithmetic on {name}, which "
                    f"reserved no range (range=1) — reserve one in "
                    f"{REGISTRY_REL}")
                continue
            if LITERAL_RE.match(operand) and int(operand, 0) >= rng:
                violations.append(
                    f"{rel}:{lineno}: {name} + {operand} steps outside "
                    f"the reserved range [tag, tag+{rng})")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (contains src/)")
    args = parser.parse_args()

    registry = parse_registry(args.root)
    violations = check_collisions(registry)

    checked = 0
    registry_path = os.path.normpath(os.path.join(args.root, REGISTRY_REL))
    for path in files.walk_sources(args.root, ("src", "tests", "bench",
                                               "examples")):
        rel = os.path.relpath(path, args.root).replace(os.sep, "/")
        checked += 1
        violations.extend(check_file(
            path, rel, registry,
            os.path.normpath(path) == registry_path))

    if violations:
        print(f"check_stream_tags: {len(violations)} violation(s) in "
              f"{checked} files:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"check_stream_tags: OK ({len(registry)} registered tags, "
          f"{checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(run_checker(main))
