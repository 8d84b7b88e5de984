"""Host-speed normalisation of CPU times.

On a shared host the CPU time of identical work is not constant: for
stretches of several seconds it grows by up to 1.7x while other work on the
machine contends for the core, so a run that meets such a stretch reads
slower although the program did not change.  :func:`probe` times a fixed
piece of interpreter work — integer arithmetic and dict lookups on
containers built at import, allocating nothing the cyclic collector counts,
so the program's collection schedule is untouched.  The closed loop runs one
probe after every operation; :class:`HostSpeed` divides each window of
operations by the window's median probe over :data:`PROBE_NOMINAL_S`, so
normalised times read as times on the reference host when idle.  The probe
runs outside every timed region and shares no code with the program under
test, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
from time import thread_time
from typing import List

#: Median CPU seconds of :func:`probe` between the closed loop's operations
#: on the reference host (2-vCPU x86-64 VM, Intel Xeon at 2.0 GHz, Python
#: 3.11) while nothing else runs there.
PROBE_NOMINAL_S = 40e-6

_PROBE_KEYS = list(range(512))
_PROBE_MAP = {k: (k * 7919) % 1013 for k in _PROBE_KEYS}


def probe() -> float:
    """CPU seconds the fixed probe work takes now."""
    start = thread_time()
    total = 0
    for k in _PROBE_KEYS:
        total += _PROBE_MAP[k] ^ k
    return thread_time() - start


class HostSpeed:
    """Rescales the times appended to *series* window by window.

    Call :meth:`probe` after each timed operation and :meth:`close_window`
    at the end of each window: every entry appended to a series since the
    previous close is divided by the window's speed factor (median probe
    over :data:`PROBE_NOMINAL_S`; above 1 means the host ran slow).
    """

    def __init__(self, *series: List[float]) -> None:
        self.series = series
        self.factors: List[float] = []
        self._starts = [len(s) for s in series]
        self._probes: List[float] = []

    def probe(self) -> None:
        self._probes.append(probe())

    def close_window(self) -> None:
        if not self._probes:
            return
        factor = statistics.median(self._probes) / PROBE_NOMINAL_S
        for series, start in zip(self.series, self._starts):
            for k in range(start, len(series)):
                series[k] /= factor
        self.factors.append(factor)
        self._starts = [len(s) for s in self.series]
        self._probes = []

    def summary(self) -> str:
        """Min / median / max speed factor over the closed windows."""
        f = self.factors
        return f"{min(f):.3f}/{statistics.median(f):.3f}/{max(f):.3f}" if f else "none"
