"""Percentiles that refuse thin tails, and the failed-operation ledger."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it,
#: so a p95 needs 200 samples and a p50 needs 20.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile of *samples* (``0 < q < 1``).

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES` samples
    lie above the requested rank: such a tail is too thin to report.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q!r}")
    n = len(samples)
    # Round before comparing: 200 * (1 - 0.95) is 9.999... in binary floats.
    if round(n * (1.0 - q), 9) < MIN_TAIL_SAMPLES:
        need = math.ceil(MIN_TAIL_SAMPLES / (1.0 - q) - 1e-9)
        raise ValueError(f"p{q * 100:g} needs at least {need} samples, got {n}")
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * n - 1e-9) - 1, 0)]


@dataclass
class OpLedger:
    """Operations attempted and failed (raised, or failed an output check)."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def fail(self, count: int = 1) -> None:
        """Mark *count* already-attempted operations as failed."""
        self.failed += count

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
