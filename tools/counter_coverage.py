"""Runtime counter coverage: a pytest plugin that fails a test session in
which some registered counter was never recorded.

The runtime twin of repro-lint's static ``--dead-counters`` report
(``docs/lint.md``): the lint proves every ``WELL_KNOWN_COUNTERS`` entry has a
recording call site, this plugin proves a test executes one.  It wraps
``MetricsRecorder.inc`` / ``observe_max`` / ``set`` (``timer`` records
through ``inc``) for the session, maps each recorded key to the registry
entry it satisfies (a maximum may match its ``max_``-prefixed name), and,
when every test passed, fails the session on any entry that never fired and
is not in :data:`ALLOWED_UNRECORDED`.  An allow-listed counter that fires
fails the session too, so the list only shrinks.

Load it on a full tier-1 run (a subset of the suite would rightly miss
counters)::

    PYTHONPATH=src python -m pytest -x -q -p tools.counter_coverage
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

import pytest

from repro.metrics.counters import WELL_KNOWN_COUNTERS, MetricsRecorder

#: Registered counters tier-1 may leave unrecorded, with the reason.
ALLOWED_UNRECORDED: Dict[str, str] = {
    "heavy_r_committed": "no witness for the heavy traversal's r-walk (Scenario 3) yet; "
    "a random search finds about one per 8,000 cases (ROADMAP item 8)",
}


class CounterCoverage:
    """The keys every ``MetricsRecorder`` recorded while installed."""

    def __init__(self) -> None:
        self.recorded: Set[str] = set()
        self._originals: List[Tuple[str, Callable]] = []

    def install(self) -> None:
        for method in ("inc", "observe_max", "set"):
            original = vars(MetricsRecorder)[method]
            self._originals.append((method, original))
            setattr(MetricsRecorder, method, self._recording(method, original))

    def uninstall(self) -> None:
        while self._originals:
            method, original = self._originals.pop()
            setattr(MetricsRecorder, method, original)

    def _recording(self, method: str, original: Callable) -> Callable:
        recorded = self.recorded

        def wrapper(recorder, key, *args, **kwargs):
            recorded.add(key)
            if method == "observe_max":
                recorded.add(f"max_{key}")
            return original(recorder, key, *args, **kwargs)

        return wrapper

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        if exitstatus != pytest.ExitCode.OK:
            return  # the failing tests are the report; coverage is moot
        never = sorted(set(WELL_KNOWN_COUNTERS) - self.recorded - set(ALLOWED_UNRECORDED))
        stale = sorted(set(ALLOWED_UNRECORDED) & self.recorded)
        if not never and not stale:
            return
        lines = [f"registered counter never recorded: {name}" for name in never]
        lines += [
            f"allow-listed counter was recorded, drop it from ALLOWED_UNRECORDED: {name}"
            for name in stale
        ]
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_sep("=", "counter coverage", red=True)
            for line in lines:
                reporter.write_line(line)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_configure(config) -> None:
    coverage = CounterCoverage()
    coverage.install()
    config.add_cleanup(coverage.uninstall)
    config.pluginmanager.register(coverage, "counter-coverage")
