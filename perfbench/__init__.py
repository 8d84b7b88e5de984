"""End-to-end benchmark of the dynamic-DFS driver and its snapshot read path.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) in a closed loop from a
single process and thread.  ``--trace 0`` reports the end-to-end metrics
(update and read latency, throughput, set-up time, peak RSS); ``--trace 1``
re-runs the same stream with every layer's public entry point wrapped from
this package and reports per-layer self times, shares and exact counts.
"""
