"""Tabular experiment records and deterministic CSV/JSONL/TSV/SVG writers.

Floats are rendered with ``repr``, Python's shortest round-trip form, so a
study rerun with the same config reproduces its output files byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

ESTIMATE_COLUMNS = ("experiment", "h", "N", "q", "r", "epsilon", "t", "value", "ratio")


@dataclass
class ExperimentRecord:
    """One measured cell of a sweep: identifying parameters plus value/ratio."""

    experiment: str
    h: float
    value: float
    ratio: float | None = None
    t: float | None = None
    N: float | None = None
    q: float | None = None
    r: float | None = None
    epsilon: float | None = None
    metadata: dict = field(default_factory=dict)

    def as_row(self) -> list[str]:
        """The :data:`ESTIMATE_COLUMNS` cells of this record as CSV strings."""
        row = []
        for col in ESTIMATE_COLUMNS:
            val = getattr(self, col)
            if val is None:
                row.append("")
            elif isinstance(val, str):
                row.append(val)
            else:
                row.append(format_float(float(val)))
        return row


def format_float(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def write_csv(records: Iterable[ExperimentRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ESTIMATE_COLUMNS)
        for rec in records:
            writer.writerow(rec.as_row())


def write_jsonl(records: Iterable[ExperimentRecord], path) -> None:
    """One JSON object per record, its dataclass fields (``vars(rec)``) with sorted keys."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(vars(rec), sort_keys=True))
            fh.write("\n")


def write_loglog_tsv(records: Sequence[ExperimentRecord], path) -> None:
    """Two-column plot data: log h against log value."""
    with open(path, "w") as fh:
        fh.write("log_h\tlog_value\n")
        for rec in records:
            if rec.value <= 0 or rec.h <= 0:
                continue
            fh.write(f"{format_float(math.log(rec.h))}\t{format_float(math.log(rec.value))}\n")


def write_svg_chart(
    series: dict[str, Sequence[tuple[float, float]]],
    path,
    title: str = "",
) -> None:
    """Self-contained 640x480 SVG line chart of one or more (x, y) series."""
    width, height, margin = 640, 480, 60
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        raise ValueError("no data points to chart")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for i, (label, pts) in enumerate(series.items()):
        color = palette[i % len(palette)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i}" font-family="sans-serif" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    for val, anchor_x in ((x_lo, margin), (x_hi, width - margin)):
        parts.append(
            f'<text x="{anchor_x}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{val:.3g}</text>'
        )
    for val, anchor_y in ((y_lo, height - margin), (y_hi, margin)):
        parts.append(
            f'<text x="{margin - 6}" y="{anchor_y + 4}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{val:.3g}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def group_max_ratio(records: Iterable[ExperimentRecord]) -> dict[float, float]:
    """Maximum ``ratio`` per distinct spacing ``h`` (skipping flagged records)."""
    groups: dict[float, float] = {}
    for rec in records:
        if rec.ratio is None or rec.metadata.get("skipped"):
            continue
        h = float(rec.h)
        groups[h] = max(groups.get(h, -math.inf), rec.ratio)
    return groups


def uniformity_factor(records: Iterable[ExperimentRecord]) -> float:
    """Spread factor max/min of the per-spacing maximal ratios.

    A sweep is judged uniform in ``h`` when this factor stays below 3.
    """
    groups = group_max_ratio(records)
    if not groups:
        raise ValueError("no usable records for uniformity check")
    hi = max(groups.values())
    lo = min(groups.values())
    if lo <= 0:
        return math.inf
    return hi / lo


def drift_slope(records: Iterable[ExperimentRecord]) -> float | None:
    """Least-squares slope of ``log`` of the per-spacing maximal ratio against ``log h``.

    A ratio that drifts as ``h^a`` gives ``a``; a uniform one gives 0.
    ``None`` when there are fewer than two spacings or a maximum is not
    positive.
    """
    groups = group_max_ratio(records)
    if len(groups) < 2 or min(groups.values()) <= 0:
        return None
    return least_squares_line([math.log(h) for h in groups],
                              [math.log(r) for r in groups.values()])[0]


def least_squares_line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through ``(xs, ys)`` (>= 2 distinct ``xs``).

    Closed form from centred sums, with no LAPACK call: ``x`` is centred on
    its mean and ``y`` on its first value, which leaves the slope alone and
    makes it exactly 0 for constant ``ys``.
    """
    x_mean = math.fsum(xs) / len(xs)
    num = math.fsum((x - x_mean) * (y - ys[0]) for x, y in zip(xs, ys))
    slope = num / math.fsum((x - x_mean) ** 2 for x in xs)
    return slope, math.fsum(ys) / len(ys) - slope * x_mean
