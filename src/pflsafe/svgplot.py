"""Minimal native SVG emission: line charts and grouped box plots.

Hand-rolled so the toolchain has no plotting dependency; output is
deterministic (fixed float formatting, no timestamps) which lets callers
diff rerun artefacts byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .schema import distinct_cells, number

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

#: outer radius of a star marker [px]; the inner corners sit at 0.4 of it
_STAR_RADIUS = 5.0

#: a star's ten corners relative to its centre, outer first, from the top
_STAR = tuple(
    (radius * math.cos(angle), radius * math.sin(angle))
    for radius, angle in (
        (_STAR_RADIUS if i % 2 == 0 else 0.4 * _STAR_RADIUS,
         -math.pi / 2 + i * math.pi / 5) for i in range(10)))


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary with 1.5*IQR whiskers (capped to the data)."""

    mean: float
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    minimum: float
    maximum: float
    n: int


def _span_end(lo: float, hi: float) -> float:
    """``hi``, or one unit above ``lo`` (at least one float step) when the
    range is a single value."""
    return hi if hi > lo else lo + max(1.0, math.ulp(lo))


def y_axis(y_min: float, y_max: float) -> tuple[float, float]:
    """The y range of a line chart whose values span [y_min, y_max]: from 0
    or below, with 5 % of the range as headroom on top."""
    lo = min(y_min, 0.0)
    hi = _span_end(lo, y_max)
    return lo, hi + 0.05 * (hi - lo)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    hi = _span_end(lo, hi)
    raw = (hi - lo) / 6
    if raw == 0.0:  # a span of a few subnormal steps
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * step:
        ticks.append(round(value, 12))
        if value + step == value:  # the step is below the float spacing here
            break
        value += step
    return ticks


class _Canvas:
    """SVG elements as text; every number is one ``:.6g`` field."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke="#000", width=1.0, dash=None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.6g}" y1="{y1:.6g}" x2="{x2:.6g}" '
            f'y2="{y2:.6g}" stroke="{stroke}" stroke-width="{width:.6g}"'
            f'{dash_attr}/>')

    def rect(self, x, y, w, h, fill="none", stroke="#000", width=1.0):
        self.parts.append(
            f'<rect x="{x:.6g}" y="{y:.6g}" width="{w:.6g}" '
            f'height="{h:.6g}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width:.6g}"/>')

    def polyline(self, xs: list[str], ys: list[str], stroke, width=1.5):
        """A polyline through the points of the formatted coordinates."""
        pts = " ".join(map(",".join, zip(xs, ys)))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:.6g}"/>')

    def text(self, x, y, s, size=11, anchor="middle", rotate=None, fill="#000"):
        transform = (f' transform="rotate({rotate:.6g} {x:.6g} {y:.6g})"'
                     if rotate is not None else "")
        self.parts.append(
            f'<text x="{x:.6g}" y="{y:.6g}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{fill}"{transform}>{_esc(s)}</text>')

    def star(self, x, y, fill):
        """A five-pointed star of radius ``_STAR_RADIUS`` centred on (x, y)."""
        path = " ".join([f"{x + dx:.6g},{y + dy:.6g}" for dx, dy in _STAR])
        self.parts.append(
            f'<polygon points="{path}" fill="{fill}" stroke="#000" '
            f'stroke-width="0.6"/>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="#fff"/>\n'
            f"{body}\n</svg>\n")


def line_chart(series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
               title: str = "", xlabel: str = "",
               hlines: Mapping[str, float] | None = None) -> str:
    """Render one or more (x, y) series as a 760 x 480 SVG line chart.

    A non-finite sample raises ``ValueError`` naming its series, and so does
    an axis range wider than a float holds.
    """
    width, height = 760, 480
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 55
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    arrays = {}
    for label, (xv, yv) in series.items():
        arrays[label] = xa, ya = (np.asarray(xv, dtype=float),
                                  np.asarray(yv, dtype=float))
        for axis, values in (("x", xa), ("y", ya)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(
                    f"line_chart: series {label!r} has the non-finite {axis} "
                    f"sample {float(values[bad[0]])!r} at index {int(bad[0])}")
    x_ends = [float(end) for xa, _ in arrays.values() if xa.size
              for end in (xa.min(), xa.max())]
    y_ends = [float(end) for _, ya in arrays.values() if ya.size
              for end in (ya.min(), ya.max())]
    y_ends += [number("line_chart", f"hline {label!r}", value)
               for label, value in (hlines or {}).items()]
    if not x_ends or not y_ends:
        raise ValueError("line_chart: no data")
    x_lo = min(x_ends)
    x_hi = _span_end(x_lo, max(x_ends))
    y_lo, y_hi = y_axis(min(y_ends), max(y_ends))
    for axis, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"line_chart: the {axis} range [{lo!r}, {hi!r}] "
                             f"is wider than a float holds")

    # scalars (ticks) and arrays (series) alike
    def sx(x): return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w
    def sy(y): return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    c = _Canvas(width, height)
    c.rect(margin_l, margin_t, plot_w, plot_h, stroke="#444")
    for tick in _nice_ticks(x_lo, x_hi):
        c.line(sx(tick), margin_t + plot_h, sx(tick), margin_t + plot_h + 4, "#444")
        c.text(sx(tick), margin_t + plot_h + 16, _fmt(tick), size=10)
    for tick in _nice_ticks(y_lo, y_hi):
        c.line(margin_l - 4, sy(tick), margin_l, sy(tick), "#444")
        c.line(margin_l, sy(tick), margin_l + plot_w, sy(tick), "#ddd", 0.5)
        c.text(margin_l - 8, sy(tick) + 3.5, _fmt(tick), size=10, anchor="end")
    if hlines:
        for label, value in hlines.items():
            c.line(margin_l, sy(value), margin_l + plot_w, sy(value),
                   "#888", 1.0, dash="5,4")
            c.text(margin_l + plot_w - 4, sy(value) - 4, label, size=10,
                   anchor="end", fill="#555")
    # each distinct pixel is formatted once; series on bit-equal x arrays
    # (one time base) share their x cells, and -0.0 keeps apart from 0.0
    x_cells: dict[bytes, list[str]] = {}
    for idx, (label, (xa, ya)) in enumerate(arrays.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        key = xa.tobytes()
        if key not in x_cells:
            x_cells[key] = distinct_cells(sx(xa), _fmt)
        c.polyline(x_cells[key], distinct_cells(sy(ya), _fmt),
                   stroke=color)
        c.text(margin_l + plot_w - 4, margin_t + 14 + 14 * idx, label,
               size=11, anchor="end", fill=color)
    if title:
        c.text(width / 2, 22, title, size=13)
    if xlabel:
        c.text(margin_l + plot_w / 2, height - 12, xlabel, size=11)
    return c.render()


def grouped_boxplot(groups: Sequence[str],
                    boxes: Mapping[str, Sequence[BoxStats]],
                    stars: Mapping[str, Sequence[float]],
                    title: str = "", ylabel: str = "") -> str:
    """Grouped box-and-whisker plot, 1000 x 520, with a star marker per
    group and series.

    ``boxes`` maps a series label to one BoxStats per group; ``stars`` maps
    a series label to one scalar per group (drawn as a star beside a box
    series).  The y axis runs from 0 to 1.06 times the largest value.
    A series without one entry per group, star series without a box
    series, and a largest value that is not positive and finite raise
    ``ValueError``.
    """
    width, height = 1000, 520
    margin_l, margin_r, margin_t, margin_b = 70, 20, 46, 110
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    for kind, series in (("box", boxes), ("star", stars)):
        for label, row in series.items():
            if len(row) != len(groups):
                raise ValueError(
                    f"grouped_boxplot: {kind} series {label!r} has "
                    f"{len(row)} entries for {len(groups)} groups")
    values: list[float] = []
    for stats_row in boxes.values():
        for st in stats_row:
            values.extend([st.whisker_lo, st.whisker_hi, st.minimum,
                           st.maximum])
    for row in stars.values():
        values.extend(float(v) for v in row)
    if not values:
        raise ValueError("grouped_boxplot: no data")
    if stars and not boxes:
        raise ValueError("grouped_boxplot: star series need a box series "
                         "to stand beside")
    y_lo = 0.0
    y_hi = max(values) * 1.06
    if not 0.0 < y_hi < math.inf:
        raise ValueError(f"grouped_boxplot: the largest value "
                         f"{max(values)!r} leaves no y axis from 0: it must "
                         f"be positive and finite")

    def sy(y): return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    n_groups = len(groups)
    n_series = len(boxes)
    group_w = plot_w / n_groups
    box_w = min(16.0, group_w / (n_series + 2))

    c = _Canvas(width, height)
    c.rect(margin_l, margin_t, plot_w, plot_h, stroke="#444")
    for tick in _nice_ticks(y_lo, y_hi):
        c.line(margin_l - 4, sy(tick), margin_l, sy(tick), "#444")
        c.line(margin_l, sy(tick), margin_l + plot_w, sy(tick), "#ddd", 0.5)
        c.text(margin_l - 8, sy(tick) + 3.5, f"{tick:.6g}", size=10,
               anchor="end")

    third, half = box_w / 3, box_w / 2
    for g_idx, group in enumerate(groups):
        center = margin_l + (g_idx + 0.5) * group_w
        c.text(center, margin_t + plot_h + 14, group, size=10, anchor="end",
               rotate=-40)
        offsets = [(s_idx - (n_series - 1) / 2) * (box_w + 4)
                   for s_idx in range(n_series)]
        for s_idx, stats_row in enumerate(boxes.values()):
            st = stats_row[g_idx]
            x = center + offsets[s_idx]
            color = _PALETTE[s_idx % len(_PALETTE)]
            lo, q1, median, q3, hi = map(sy, (st.whisker_lo, st.q1, st.median,
                                              st.q3, st.whisker_hi))
            c.line(x, lo, x, q1, color)
            c.line(x, q3, x, hi, color)
            c.line(x - third, lo, x + third, lo, color)
            c.line(x - third, hi, x + third, hi, color)
            c.rect(x - half, q3, box_w, q1 - q3, fill="#fff", stroke=color,
                   width=1.4)
            c.line(x - half, median, x + half, median, color, 1.6)
        for s_idx, row in enumerate(stars.values()):
            x = center + offsets[s_idx % n_series]
            c.star(x, sy(float(row[g_idx])), _PALETTE[s_idx % len(_PALETTE)])

    for s_idx, label in enumerate(boxes):
        color = _PALETTE[s_idx % len(_PALETTE)]
        x = margin_l + 10 + 150 * s_idx
        c.rect(x, 14, 12, 10, fill="#fff", stroke=color, width=1.4)
        c.text(x + 18, 23, label, size=11, anchor="start", fill=color)
    if title:
        c.text(width / 2, 40, title, size=13)
    if ylabel:
        c.text(18, margin_t + plot_h / 2, ylabel, size=11, rotate=-90)
    return c.render()
