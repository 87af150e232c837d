"""Figure rendering: SVG with no dependencies.

``repro plot`` turns analysis outputs (slowdown CDFs, queue CDFs, grid
heatmaps) into artifacts under ``results/figures/``.  There is no
plotting stack to lean on, so the renderer emits SVG by hand — axes,
nice ticks, polylines, legends, color ramps are a few hundred lines of
string assembly and produce byte-deterministic output (good for
artifact diffing in CI).

Two chart shapes cover every figure the ISSUE asks for:

* :func:`write_line_chart` — families of (x, y) series; used for
  slowdown CDFs (mice vs elephants) and queue-occupancy CDFs
  (Figs 12/19).
* :func:`write_heatmap` — a labelled matrix with a color ramp; used
  for the (Kmin, Kmax, Pmax) x incast-degree grid.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple

#: matplotlib's default category colors
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

#: viridis-like color-ramp anchors for heatmaps, (fraction, (r, g, b))
_RAMP = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)

Series = Mapping[str, Sequence[Tuple[float, float]]]


def nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] (the 1-2-5 ladder)."""
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for factor in (1.0, 2.0, 5.0, 10.0):
        step = factor * magnitude
        if raw_step <= step:
            break
    # span whole steps covering [lo, hi]: the chart uses the outer
    # ticks as the axis bounds, so no data point may fall outside them
    first = math.floor(lo / step) * step
    last = math.ceil(hi / step) * step
    count = int(round((last - first) / step))
    return [round(first + i * step, 10) for i in range(count + 1)]


def _fmt(value: float) -> str:
    """Compact tick label: no trailing zeros, SI-free."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def ramp_color(fraction: float) -> str:
    """Hex color at ``fraction`` in [0, 1] of the heatmap ramp."""
    fraction = min(1.0, max(0.0, fraction))
    for (f_lo, c_lo), (f_hi, c_hi) in zip(_RAMP, _RAMP[1:]):
        if fraction <= f_hi:
            span = f_hi - f_lo
            t = 0.0 if span == 0 else (fraction - f_lo) / span
            rgb = [round(a + t * (b - a)) for a, b in zip(c_lo, c_hi)]
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#{:02x}{:02x}{:02x}".format(*_RAMP[-1][1])


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


class _Svg:
    """Minimal SVG assembly: elements accumulate, then join."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            'font-family="Helvetica, Arial, sans-serif">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#444", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def polyline(self, points: Sequence[Tuple[float, float]], stroke: str):
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            'stroke-width="1.8"/>'
        )

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
            f'height="{h:.1f}" fill="{fill}" stroke="{stroke}"/>'
        )

    def text(self, x, y, content, size=11, anchor="middle", fill="#222", rotate=None):
        transform = (
            f' transform="rotate({rotate} {x:.1f} {y:.1f})"' if rotate else ""
        )
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}"{transform}>'
            f"{_esc(str(content))}</text>"
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def svg_line_chart(
    series: Series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 440,
) -> str:
    """Families of (x, y) series as one SVG chart with axes + legend."""
    left, right, top, bottom = 62, 20, 34, 52
    plot_w = width - left - right
    plot_h = height - top - bottom
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("nothing to plot: every series is empty")
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_ticks = nice_ticks(min(xs), max(xs))
    y_ticks = nice_ticks(min(ys), max(ys))
    x_lo, x_hi = x_ticks[0], x_ticks[-1]
    y_lo, y_hi = y_ticks[0], y_ticks[-1]

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo or 1.0) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo or 1.0) * plot_h

    svg = _Svg(width, height)
    for tick in x_ticks:
        svg.line(sx(tick), top, sx(tick), top + plot_h, stroke="#e5e5e5")
        svg.text(sx(tick), top + plot_h + 16, _fmt(tick), size=10)
    for tick in y_ticks:
        svg.line(left, sy(tick), left + plot_w, sy(tick), stroke="#e5e5e5")
        svg.text(left - 6, sy(tick) + 3.5, _fmt(tick), size=10, anchor="end")
    svg.line(left, top, left, top + plot_h)
    svg.line(left, top + plot_h, left + plot_w, top + plot_h)
    for index, (label, pts) in enumerate(series.items()):
        if not pts:
            continue
        color = PALETTE[index % len(PALETTE)]
        svg.polyline([(sx(x), sy(y)) for x, y in sorted(pts)], color)
        legend_y = top + 8 + 16 * index
        svg.line(left + plot_w - 118, legend_y, left + plot_w - 98, legend_y, stroke=color, width=2)
        svg.text(left + plot_w - 92, legend_y + 4, label, size=11, anchor="start")
    if title:
        svg.text(width / 2, 20, title, size=14)
    if xlabel:
        svg.text(left + plot_w / 2, height - 14, xlabel, size=12)
    if ylabel:
        svg.text(16, top + plot_h / 2, ylabel, size=12, rotate=-90)
    return svg.render()


def svg_heatmap(
    col_labels: Sequence[str],
    row_labels: Sequence[str],
    grid: Sequence[Sequence[Optional[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    cell_w: int = 64,
    cell_h: int = 26,
) -> str:
    """A labelled matrix with the value printed in each colored cell.

    ``grid[r][c]`` is the value of ``row_labels[r]`` x
    ``col_labels[c]``; ``None`` renders as an empty gray cell.
    """
    if len(grid) != len(row_labels):
        raise ValueError("grid/row_labels size mismatch")
    left, top = 150, 56
    width = left + cell_w * len(col_labels) + 90
    height = top + cell_h * len(row_labels) + 60
    values = [v for row in grid for v in row if v is not None]
    lo = min(values) if values else 0.0
    hi = max(values) if values else 1.0
    span = hi - lo or 1.0
    svg = _Svg(width, height)
    for r, (label, row) in enumerate(zip(row_labels, grid)):
        if len(row) != len(col_labels):
            raise ValueError("grid/col_labels size mismatch")
        y = top + r * cell_h
        svg.text(left - 6, y + cell_h / 2 + 4, label, size=10, anchor="end")
        for c, value in enumerate(row):
            x = left + c * cell_w
            if value is None:
                svg.rect(x, y, cell_w, cell_h, "#f0f0f0", stroke="#fff")
                continue
            fraction = (value - lo) / span
            svg.rect(x, y, cell_w, cell_h, ramp_color(fraction), stroke="#fff")
            svg.text(
                x + cell_w / 2,
                y + cell_h / 2 + 4,
                f"{value:.2f}",
                size=10,
                fill="#fff" if fraction < 0.6 else "#222",
            )
    for c, label in enumerate(col_labels):
        svg.text(left + c * cell_w + cell_w / 2, top - 8, label, size=10)
    # color-scale legend on the right edge
    bar_x = left + cell_w * len(col_labels) + 22
    bar_h = cell_h * len(row_labels)
    steps = 24
    for i in range(steps):
        fraction = 1.0 - i / (steps - 1)
        svg.rect(
            bar_x,
            top + i * bar_h / steps,
            14,
            bar_h / steps + 0.5,
            ramp_color(fraction),
        )
    svg.text(bar_x + 18, top + 8, f"{hi:.2f}", size=10, anchor="start")
    svg.text(bar_x + 18, top + bar_h, f"{lo:.2f}", size=10, anchor="start")
    if title:
        svg.text(width / 2, 22, title, size=14)
    if xlabel:
        svg.text(left + cell_w * len(col_labels) / 2, height - 12, xlabel, size=12)
    if ylabel:
        svg.text(16, top + bar_h / 2, ylabel, size=12, rotate=-90)
    return svg.render()


def _write(path: Path, content: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return path


def write_line_chart(
    path_base: Path,
    series: Series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> Path:
    """Render a line chart to ``<path_base>.svg``; returns the path."""
    return _write(
        path_base.with_suffix(".svg"),
        svg_line_chart(series, title=title, xlabel=xlabel, ylabel=ylabel),
    )


def write_heatmap(
    path_base: Path,
    col_labels: Sequence[str],
    row_labels: Sequence[str],
    grid: Sequence[Sequence[Optional[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> Path:
    """Render a heatmap to ``<path_base>.svg``; returns the path."""
    return _write(
        path_base.with_suffix(".svg"),
        svg_heatmap(
            col_labels, row_labels, grid, title=title, xlabel=xlabel, ylabel=ylabel
        ),
    )
