"""Public-API contract rules — the one copy of the docstring contract.

* ``api-docstring`` — every class on the exported API surface, and every
  public method / property / classmethod / staticmethod / nested class
  defined in its body, must carry a non-empty docstring.  A listed class
  missing from its module is also a finding, so the surface map cannot rot
  when code moves.
* ``api-knob`` — driver class docstrings must keep naming the knobs they
  accept (the minimal "docs follow the code" check).

These run without importing ``repro`` at all — on a clean checkout with no
dependencies installed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Tuple

from tools.lint.core import Checker, Diagnostic, FileContext

#: The exported API surface: repo-relative module -> class names.
PUBLIC_API: Dict[str, Tuple[str, ...]] = {
    "src/repro/core/dynamic_dfs.py": ("FullyDynamicDFS",),
    "src/repro/core/fault_tolerant.py": ("FaultTolerantDFS",),
    "src/repro/streaming/semi_streaming_dfs.py": ("SemiStreamingDynamicDFS",),
    "src/repro/distributed/distributed_dfs.py": ("CongestBackend", "DistributedDynamicDFS"),
    "src/repro/distributed/network.py": ("CongestNetwork",),
    "src/repro/core/engine.py": ("Backend", "EngineDriver", "UpdateEngine"),
    "src/repro/metrics/counters.py": ("MetricsRecorder",),
    "src/repro/service/service.py": ("DFSTreeService",),
    "src/repro/service/snapshot.py": ("TreeSnapshot",),
    "src/repro/service/batch.py": ("BatchingQueryFront",),
    "src/repro/shard/router.py": ("ShardRouter",),
    "src/repro/shard/worker.py": ("ShardWorker",),
    "src/repro/shard/placement.py": ("HashRing",),
}

#: Knob names each driver docstring must keep mentioning.
KNOB_DOCS: Dict[str, Tuple[str, ...]] = {
    "FullyDynamicDFS": ("rebuild_every",),
    "DistributedDynamicDFS": ("rebuild_every", "local_repair", "drift_rebuild_cost",
                              "voluntary_root", "component_accounting"),
}


class PublicApiChecker(Checker):
    """Rules ``api-docstring`` and ``api-knob``."""

    name = "public-api"
    rules = ("api-docstring", "api-knob")

    def applies_to(self, rel: str) -> bool:
        """Only the modules carrying the exported API surface."""
        return rel in PUBLIC_API

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        out: List[Diagnostic] = []
        classes = {node.name: node for node in ctx.tree.body
                   if isinstance(node, ast.ClassDef)}
        for name in PUBLIC_API[ctx.rel]:
            cls = classes.get(name)
            if cls is None:
                out.append(Diagnostic(
                    rule="api-docstring", path=ctx.rel, line=1, col=0,
                    message=f"public class {name} not found at module level",
                    hint="update PUBLIC_API in tools/lint/rules/public_api.py"))
                continue
            self._check_class(ctx, cls, out)
        return out

    # ------------------------------------------------------------------ #
    def _check_class(self, ctx: FileContext, cls: ast.ClassDef,
                     out: List[Diagnostic]) -> None:
        doc = ast.get_docstring(cls)
        if not (doc or "").strip():
            out.append(Diagnostic(
                rule="api-docstring", path=ctx.rel, line=cls.lineno, col=cls.col_offset,
                message=f"{cls.name} lacks a class docstring",
                hint="document the knobs, the counters they emit, and the complexity"))
        for knob in KNOB_DOCS.get(cls.name, ()):
            if knob not in (doc or ""):
                out.append(Diagnostic(
                    rule="api-knob", path=ctx.rel, line=cls.lineno, col=cls.col_offset,
                    message=f"{cls.name} docstring no longer names its {knob!r} knob",
                    hint="keep the accepted knobs listed in the class docstring"))
        for member in cls.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                continue
            if member.name.startswith("_"):
                continue
            if not (ast.get_docstring(member) or "").strip():
                kind = "nested class" if isinstance(member, ast.ClassDef) else "member"
                out.append(Diagnostic(
                    rule="api-docstring", path=ctx.rel,
                    line=member.lineno, col=member.col_offset,
                    message=f"undocumented public {kind} "
                            f"{cls.name}.{member.name}",
                    hint="document the knobs, the counters it emits, and the "
                         "complexity"))
