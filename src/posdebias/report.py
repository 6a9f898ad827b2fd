"""Deterministic CSV tables and dependency-free SVG charts.

Charts are written as plain SVG markup so reports need no plotting stack;
identical inputs produce byte-identical files, which the pipeline manifest
checksums rely on.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import write_blocks
from .metrics import PositionRow

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: Width and height of every chart, in pixels.
_CHART_SIZE = (640, 400)

#: Corners (x0, y0, x1, y1) of the plot inside the margins; the legend sits right of x1.
_PLOT_AREA = (70, 40, _CHART_SIZE[0] - 150, _CHART_SIZE[1] - 50)


@dataclass(frozen=True)
class SystemEval:
    """One system's aggregate scores, keyed by split name."""

    system: str
    metric: str
    splits: Mapping[str, tuple[float, int]]  # split -> (score, count)
    by_position: tuple[PositionRow, ...] = field(default_factory=tuple)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _write_csv(path: str | Path, header: list[str], rows: list[tuple]) -> Path:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return write_blocks([text.getvalue()], path)


def write_scores_csv(evals: Sequence[SystemEval], path: str | Path) -> Path:
    """Aggregate CSV: one row per system and split, sorted for determinism."""
    rows = []
    for ev in evals:
        for split in sorted(ev.splits):
            score, count = ev.splits[split]
            rows.append((ev.system, split, ev.metric, _fmt(score), str(count)))
    rows.sort()
    return _write_csv(path, ["system", "split", "metric", "score", "count"], rows)


def write_position_csv(evals: Sequence[SystemEval], path: str | Path) -> Path:
    """Per-relative-position CSV with a trailing ``relpos`` column."""
    rows = []
    for ev in evals:
        for row in ev.by_position:
            relpos = "none" if row.position is None else str(row.position)
            rows.append((ev.system, "all", ev.metric, _fmt(row.mean_score), str(row.count), relpos))
    rows.sort(key=lambda r: (r[0], r[5] == "none", 0 if r[5] == "none" else int(r[5])))
    return _write_csv(path, ["system", "split", "metric", "score", "count", "relpos"], rows)


def _svg_header(title: str) -> list[str]:
    width, height = _CHART_SIZE
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _axes(
    x0: float, y0: float, x1: float, y1: float, x_label: str, y_label: str
) -> list[str]:
    return [
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{y1 + 36:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="{x0 - 40:.1f}" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 {x0 - 40:.1f} {(y0 + y1) / 2:.1f})">{y_label}</text>',
    ]


def _y_ticks(x0: float, values: Sequence[float], sy) -> list[str]:
    return [
        f'<text x="{x0 - 8:.1f}" y="{sy(value) + 4:.1f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{value:.2f}</text>'
        for value in values
    ]


def _legend_entry(x1: float, legend_y: float, name: str, color: str) -> list[str]:
    return [
        f'<rect x="{x1 + 12}" y="{legend_y - 8}" width="10" height="10" fill="{color}"/>',
        f'<text x="{x1 + 28}" y="{legend_y + 1}" font-family="sans-serif" '
        f'font-size="11">{name}</text>',
    ]


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Multi-series line chart; each series is a list of (x, y) points."""
    x0, y0, x1, y1 = _PLOT_AREA
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        raise ValueError("line_chart: no data points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(min(ys), 0.0), max(max(ys), 1e-9)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    def sx(x: float) -> float:
        return x0 + (x - x_min) / x_span * (x1 - x0)

    def sy(y: float) -> float:
        return y1 - (y - y_min) / y_span * (y1 - y0)

    parts = _svg_header(title)
    parts.extend(_axes(x0, y0, x1, y1, x_label, y_label))
    parts.extend(_y_ticks(x0, [y_min + y_span * i / 4 for i in range(5)], sy))
    for x_val in sorted({p[0] for p in points}):
        parts.append(
            f'<text x="{sx(x_val):.1f}" y="{y1 + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x_val:g}</text>'
        )
    for i, (name, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        ordered = sorted(pts)
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in ordered)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in ordered:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>'
            )
        parts.extend(_legend_entry(x1, y0 + 16 * i, name, color))
    parts.append("</svg>")
    return "\n".join(parts)


def bar_chart(
    series: Mapping[str, Sequence[tuple[str, float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Grouped bar chart; each series maps category labels to heights."""
    x0, y0, x1, y1 = _PLOT_AREA
    categories: list[str] = []
    for pts in series.values():
        for label, _ in pts:
            if label not in categories:
                categories.append(label)
    if not categories:
        raise ValueError("bar_chart: no data")
    values = [v for pts in series.values() for _, v in pts]
    y_max = max(max(values), 1e-9)
    slot = (x1 - x0) / len(categories)
    bar_width = slot * 0.8 / max(len(series), 1)

    def sy(y: float) -> float:
        return y1 - y / y_max * (y1 - y0)

    parts = _svg_header(title)
    parts.extend(_axes(x0, y0, x1, y1, x_label, y_label))
    parts.extend(_y_ticks(x0, [y_max * i / 4 for i in range(5)], sy))
    for c, category in enumerate(categories):
        center = x0 + slot * (c + 0.5)
        parts.append(
            f'<text x="{center:.1f}" y="{y1 + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{category}</text>'
        )
    for i, (name, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        by_label = dict(pts)
        for c, category in enumerate(categories):
            if category not in by_label:
                continue
            value = by_label[category]
            left = x0 + slot * (c + 0.1) + bar_width * i
            top = sy(value)
            parts.append(
                f'<rect x="{left:.1f}" y="{top:.1f}" width="{bar_width:.1f}" '
                f'height="{y1 - top:.1f}" fill="{color}"/>'
            )
        parts.extend(_legend_entry(x1, y0 + 16 * i, name, color))
    parts.append("</svg>")
    return "\n".join(parts)


def write_position_chart(evals: Sequence[SystemEval], path: str | Path, metric: str) -> Path:
    """Score-versus-relative-position line chart, one series per system."""
    series: dict[str, list[tuple[float, float]]] = {}
    for ev in evals:
        pts = [
            (float(row.position), row.mean_score)
            for row in ev.by_position
            if row.position is not None
        ]
        if pts:
            series[ev.system] = pts
    return write_blocks([line_chart(series, f"{metric} by relative position", "relative position", metric)], path)


def write_split_chart(evals: Sequence[SystemEval], path: str | Path, metric: str) -> Path:
    """Grouped bars of per-split scores, one group per split."""
    series = {
        ev.system: [(split, ev.splits[split][0]) for split in sorted(ev.splits)]
        for ev in evals
    }
    return write_blocks([bar_chart(series, f"{metric} by split", "split", metric)], path)


def write_sweep_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    path: str | Path,
    title: str,
    x_label: str,
    y_label: str,
) -> Path:
    return write_blocks([line_chart(series, title, x_label, y_label)], path)
