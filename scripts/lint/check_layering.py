#!/usr/bin/env python3
"""Header-level layering lint: enforce the 10-layer DAG on #include edges.

The build (src/CMakeLists.txt) enforces the layer DAG

    mathx -> phy / geom -> sim -> core -> {baseline, drone, netd}
    mathx -> net
    mathx -> phy -> proto

through link dependencies only: an illegal upward #include (every header
lives under one src/ include root) compiles fine and fails — at link
time, and only if it needs an out-of-line symbol. A header-only upward
leak, or an include cycle between headers, never fails at all. This lint
closes that gap at the source level: it parses every `#include "..."` in
src/ and rejects

  1. any edge from a layer to a layer it may not depend on, and
  2. any file-level include cycle (also within a single layer — #pragma
     once masks the infinite recursion but not the design smell).

Built on lintlib: includes are taken from tokenized lines (a
commented-out include is not an edge) and file reads are strict UTF-8
(a bad byte is FATAL, exit 2, not a silently skipped file).

Registered as CTest case `lint_layering` (label `lint`); the negative
fixture under tests/lint/fixtures/layering_bad must make it fail (CTest
WILL_FAIL), proving the lint actually bites.

Usage: check_layering.py [--root DIR]
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

# Allowed dependencies, layer -> set of layers it may include from
# (transitively closed, mirroring the PUBLIC link edges in
# src/*/CMakeLists.txt). A layer may always include itself.
LAYER_DEPS = {
    "mathx": set(),
    "phy": {"mathx"},
    "geom": {"mathx"},
    "sim": {"mathx", "phy", "geom"},
    "core": {"mathx", "phy", "geom", "sim"},
    "baseline": {"mathx", "phy", "geom", "sim", "core"},
    "net": {"mathx"},
    "netd": {"mathx", "phy", "geom", "sim", "core"},
    "proto": {"mathx", "phy"},
    "drone": {"mathx", "phy", "geom", "sim", "core"},
}


def layer_of(rel_path: str) -> str | None:
    """Layer of a src/-relative path ('core/api.hpp' -> 'core')."""
    head = rel_path.split("/", 1)[0]
    return head if head in LAYER_DEPS else None


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

    violations: list[str] = []
    file_edges: dict[str, list[str]] = {}
    checked = 0

    for path in files.walk_sources(args.root, ("src",)):
        rel = os.path.relpath(path, src_root).replace(os.sep, "/")
        checked += 1
        from_layer = layer_of(rel)
        edges: list[str] = []
        for lineno, target in includes.quoted_includes(
                files.read_source(path)):
            to_layer = layer_of(target)
            if to_layer is None:
                continue  # non-layer include (e.g. "chronos.hpp")
            edges.append(target)
            # The umbrella header and any future non-layer file may
            # include anything; layer files obey the DAG.
            if from_layer is None:
                continue
            if to_layer != from_layer and \
                    to_layer not in LAYER_DEPS[from_layer]:
                allowed = ", ".join(sorted(LAYER_DEPS[from_layer])) \
                    or "(nothing)"
                violations.append(
                    f"src/{rel}:{lineno}: illegal include "
                    f'"{target}": layer {from_layer!r} may only '
                    f"depend on: {allowed}")
        file_edges[rel] = edges

    graph = includes.build_graph(file_edges)
    for cycle in includes.find_cycles(graph):
        violations.append("include cycle: " + " -> ".join(cycle))

    if violations:
        print(f"check_layering: {len(violations)} violation(s) in "
              f"{checked} files:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"check_layering: OK ({checked} files, "
          f"{sum(len(v) for v in graph.values())} layer edges)")
    return 0


if __name__ == "__main__":
    sys.exit(run_checker(main))
