"""repro-lint: AST-based invariant checkers for the dynamic-DFS reproduction.

Every contract the repo enforces dynamically — strict counter registries,
deterministic core paths, the paired ``begin_update``/``end_update`` writer
protocol, the documented public API — is proven statically here, in seconds, before any test runs.  See
``docs/lint.md`` for the rule catalog and the suppression policy.

Programmatic entry points::

    from tools.lint import build_linter, lint_text

    result = build_linter(repo_root).lint_paths(["src", "tests"])
    diags = lint_text(source, "src/repro/core/example.py", repo_root)
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from tools.lint.cli import DEFAULT_PATHS, MAX_SUPPRESSIONS, build_linter, main
from tools.lint.core import Checker, Diagnostic, FileContext, Linter, LintResult

__all__ = [
    "Checker",
    "Diagnostic",
    "FileContext",
    "Linter",
    "LintResult",
    "DEFAULT_PATHS",
    "MAX_SUPPRESSIONS",
    "build_linter",
    "lint_text",
    "main",
]


def lint_text(source: str, rel: str, root: Path) -> List[Diagnostic]:
    """Per-file diagnostics for in-memory *source* pretending to live at the
    repo-relative path *rel* (suppressions applied; cross-file rules skipped).

    This is the fixture-test entry point: the registry is loaded from the
    real checkout at *root*, while the checked source never touches disk.
    """
    linter = build_linter(root)
    result = linter.lint_sources({rel: source})
    return result.findings
