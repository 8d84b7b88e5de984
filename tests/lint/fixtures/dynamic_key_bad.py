# lint-path: src/repro/core/fixture_example.py
"""Bad: counter keys built at runtime cannot be checked statically."""


def work(metrics, scenario):
    """Bump a counter whose name depends on a runtime value."""
    metrics.inc(f"{scenario}_committed")  # expect: dynamic-counter-key
    key = "updates"
    metrics.inc(key)  # expect: dynamic-counter-key
