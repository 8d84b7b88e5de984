# lint-path: src/repro/core/fixture_example.py
"""Good: every recorded key is registered in WELL_KNOWN_COUNTERS."""


class Engine:
    """Fixture engine."""

    def __init__(self, metrics):
        self.metrics = metrics

    def work(self):
        """Record through every recorder method, registered keys only."""
        self.metrics.inc("updates")
        self.metrics.inc("d_builds", 2)
        self.metrics.observe_max("overlay_size", 5)  # max_ alias
        self.metrics.observe_max("max_update_batch_size", 3)  # direct max_ name
        self.metrics.set("snapshot_build_ms", 1.5)
        with self.metrics.timer("build_d"):  # registered as time_build_d
            pass
