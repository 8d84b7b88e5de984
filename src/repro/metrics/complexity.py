"""Growth-rate analysis helpers.

The experiments check the *shape* of measured curves against the theorems:
per-update query rounds should grow like ``polylog(n)`` (small fitted exponent
in ``log n``), whereas the sequential baseline grows polynomially in ``n`` on
adversarial inputs.  These helpers do the fits and render plain-text tables for
the benchmark harnesses (see docs/benchmarks.md).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def _least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Ordinary least squares fit ``y = a + b x``; returns ``(a, b)``."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points to fit a slope")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("x values are all identical")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    b = sxy / sxx
    a = mean_y - b * mean_x
    return a, b


def estimate_power_law_exponent(sizes: Sequence[float], values: Sequence[float]) -> float:
    """Fit ``value ≈ c · size^e`` and return the exponent ``e``.

    Zero values are clamped to a small positive constant so occasional zero
    measurements (e.g. zero rebuilds) do not break the fit.
    """
    xs = [math.log(max(s, 1e-12)) for s in sizes]
    ys = [math.log(max(v, 1e-12)) for v in values]
    _, slope = _least_squares_slope(xs, ys)
    return slope


def fit_polylog_exponent(sizes: Sequence[float], values: Sequence[float]) -> float:
    """Fit ``value ≈ c · (log2 size)^e`` and return the exponent ``e``.

    A parallel-update metric matching the paper should produce a small constant
    exponent here (roughly ≤ 3 for the `O(log^3 n)` bound), while a linear-in-n
    metric produces an exponent that grows with the size range.
    """
    xs = [math.log(max(math.log2(max(s, 2.0)), 1e-12)) for s in sizes]
    ys = [math.log(max(v, 1e-12)) for v in values]
    _, slope = _least_squares_slope(xs, ys)
    return slope


def doubling_ratios(sizes: Sequence[float], values: Sequence[float]) -> List[float]:
    """Return ``value[i+1] / value[i]`` for consecutive measurements.

    For polylog quantities measured on geometrically growing sizes these ratios
    tend to 1; for linear quantities they tend to the size ratio.
    """
    ratios = []
    for (s0, v0), (s1, v1) in zip(zip(sizes, values), zip(sizes[1:], values[1:])):
        if v0 <= 0:
            ratios.append(float("nan"))
        else:
            ratios.append(v1 / v0)
    return ratios


def geometric_sizes(start: int, stop: int, factor: float = 2.0) -> List[int]:
    """Geometrically spaced integer sizes in ``[start, stop]`` (inclusive-ish)."""
    if start <= 0 or factor <= 1:
        raise ValueError("start must be positive and factor > 1")
    sizes = []
    s = float(start)
    while s <= stop + 1e-9:
        size = int(round(s))
        if not sizes or size != sizes[-1]:
            sizes.append(size)
        s *= factor
    return sizes


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a plain-text table (used by benchmark harnesses and examples)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    def fmt(row: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    sep = "-+-".join("-" * w for w in widths)
    lines = [fmt(list(headers)), sep]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def summarize_scaling(
    label: str,
    sizes: Sequence[float],
    metrics: Dict[str, Sequence[float]],
) -> str:
    """Render a table of metric values over sizes plus fitted exponents."""
    headers = ["n"] + list(metrics)
    rows: List[List[object]] = []
    for i, s in enumerate(sizes):
        rows.append([s] + [metrics[k][i] for k in metrics])
    fits = []
    for k, vals in metrics.items():
        try:
            poly = estimate_power_law_exponent(sizes, vals)
            plog = fit_polylog_exponent(sizes, vals)
            fits.append(f"{k}: n^{poly:.2f} or (log n)^{plog:.2f}")
        except ValueError:
            fits.append(f"{k}: (not enough points)")
    return f"== {label} ==\n" + format_table(headers, rows) + "\nfits: " + "; ".join(fits)
