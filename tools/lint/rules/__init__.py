"""The repro-lint checker suite.

Four checkers, one per contract the repo makes (see ``docs/lint.md`` for the
full rule catalog):

* :class:`~tools.lint.rules.counters.CounterRegistryChecker` — every
  string-literal metric key is registered; every registered counter is bumped
  somewhere (dead-counter report).
* :class:`~tools.lint.rules.determinism.DeterminismChecker` — no unseeded
  ``random.*``, no wall-clock reads outside the metrics layer, no iteration
  over set-ordered collections in core paths.
* :class:`~tools.lint.rules.writer_protocol.WriterProtocolChecker` —
  ``begin_update`` paired with ``end_update`` in a ``finally``; no silent
  broad exception swallows.
* :class:`~tools.lint.rules.public_api.PublicApiChecker` — the exported API
  surface stays documented (docstrings + knob naming), checked statically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from tools.lint.core import Checker
from tools.lint.registry import RegistryEntry, load_registry
from tools.lint.rules.counters import CounterRegistryChecker
from tools.lint.rules.determinism import DeterminismChecker
from tools.lint.rules.public_api import PublicApiChecker
from tools.lint.rules.writer_protocol import WriterProtocolChecker

__all__ = [
    "CounterRegistryChecker",
    "DeterminismChecker",
    "PublicApiChecker",
    "WriterProtocolChecker",
    "default_checkers",
]


def default_checkers(root: Path) -> List[Checker]:
    """The full shipped suite for the checkout rooted at *root*."""
    registry: Dict[str, RegistryEntry] = load_registry(root)
    return [
        CounterRegistryChecker(registry),
        DeterminismChecker(),
        WriterProtocolChecker(),
        PublicApiChecker(),
    ]
