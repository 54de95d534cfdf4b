"""lintlib — the shared C++ source-analysis framework of scripts/lint/.

Every project checker (layering DAG, determinism bans, stream-tag
registry, lock-order graph, status-discard, hot-loop no-alloc, bench-key
drift) is a thin rule set on top of these pieces:

  * ``tokenizer``  — strips comments and string/char literals (raw
                     strings, line-spliced ``//`` comments, block
                     comments) so rules never fire inside prose;
  * ``files``      — file-set discovery: first-party TUs from a build
                     tree's compile_commands.json when one exists, with a
                     plain source-tree walk as the gcc-only fallback;
  * ``includes``   — quoted-include extraction and the file-level include
                     graph (edges + cycle detection);
  * ``suppress``   — the suppression markers shared by all checkers:
                     statement-scoped ``lint:allow(rule)`` and block
                     ``lint:region(rule)`` / ``lint:endregion(rule)``;
  * ``driver``     — common CLI plumbing and STRICT error handling: any
                     internal failure (unreadable file, bad UTF-8, a bug
                     in a checker) exits 2 with a one-line ``FATAL:``
                     diagnostic, never a bare traceback that a WILL_FAIL
                     fixture could mistake for "violation detected".

Exit-code contract (all checkers): 0 = clean, 1 = violations found,
2 = the checker itself failed.  Negative fixtures run through
scripts/lint/expect_violations.py, which maps only exit 1 to "detected"
(CMake's WILL_FAIL would otherwise count a crash — any non-zero exit —
as a successful detection; see that script's docstring).
"""

from lintlib.driver import FatalLintError, run_checker  # noqa: F401

__all__ = ["FatalLintError", "run_checker"]
