"""SVG emission: determinism, escaping, tick placement."""
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from pflsafe.body import REGION_IDS, REGION_LABELS, ContactMode
from pflsafe.errors import InputError
from pflsafe.svgplot import (_PALETTE, BoxStats, _Canvas, _fmt, _nice_ticks,
                             grouped_boxplot, line_chart)
from pflsafe.sweep import MassSource, SweepConfig, run_sweep


def test_nice_ticks_steps():
    assert _nice_ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert _nice_ticks(0.0, 10.0) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    ticks = _nice_ticks(0.0, 2.3)
    assert ticks[0] == 0.0
    assert ticks[-1] <= 2.3
    steps = {round(b - a, 12) for a, b in zip(ticks, ticks[1:])}
    assert len(steps) == 1
    mantissa = steps.pop()
    exponent = math.floor(math.log10(mantissa))
    assert round(mantissa / 10 ** exponent, 6) in (1.0, 2.0, 2.5, 5.0, 10.0)


def test_nice_ticks_degenerate_range():
    ticks = _nice_ticks(3.0, 3.0)
    assert ticks  # falls back to a unit span
    assert ticks[0] >= 3.0


def test_line_chart_basic():
    svg = line_chart({"speed": ([0.0, 1.0, 2.0], [0.0, 0.5, 0.25])},
                     title="ramp", xlabel="t [s]")
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")
    assert "<polyline" in svg
    assert "ramp" in svg and "t [s]" in svg


def test_line_chart_multiple_series_and_hlines():
    svg = line_chart(
        {"a": ([0, 1], [0, 1]), "b": ([0, 1], [1, 0])},
        hlines={"limit": 0.75})
    assert svg.count("<polyline") == 2
    assert "stroke-dasharray" in svg
    assert "limit" in svg


def test_line_chart_escapes_markup():
    svg = line_chart({"<speed> & 力": ([0, 1], [0, 1])}, title="a < b & c > d")
    assert "&lt;speed&gt; &amp; 力" in svg
    assert "a &lt; b &amp; c &gt; d" in svg
    assert "<speed>" not in svg


def test_line_chart_deterministic():
    args = ({"s": ([0.0, 0.1, 0.2], [0.3, 0.1, 0.7])},)
    assert line_chart(*args) == line_chart(*args)


def test_line_chart_rejects_empty():
    with pytest.raises(ValueError, match="no data"):
        line_chart({})
    with pytest.raises(ValueError, match="no data"):
        line_chart({"s": ([0.0, 1.0], [])})


def _per_point_ticks(lo, hi, target=6):
    """The tick rule, stepping by repeated addition as the chart does."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    ticks, value = [], math.ceil(lo / step) * step
    while value <= hi + 1e-12 * step:
        ticks.append(round(value, 12))
        value += step
    return ticks


def _per_point_line_chart(series, title="", xlabel="", hlines=None):
    """The reference chart: every range, pixel and number made one point
    at a time in Python floats."""
    width, height = 760, 480
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 55
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs = [float(x) for _, (xv, _) in series.items() for x in xv]
    ys = [float(y) for _, (_, yv) in series.items() for y in yv]
    if hlines:
        ys.extend(float(v) for v in hlines.values())
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_hi += 0.05 * (y_hi - y_lo)

    def sx(x): return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w
    def sy(y): return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    c = _Canvas(width, height)
    c.rect(margin_l, margin_t, plot_w, plot_h, stroke="#444")
    for tick in _per_point_ticks(x_lo, x_hi):
        c.line(sx(tick), margin_t + plot_h, sx(tick), margin_t + plot_h + 4, "#444")
        c.text(sx(tick), margin_t + plot_h + 16, _fmt(tick), size=10)
    for tick in _per_point_ticks(y_lo, y_hi):
        c.line(margin_l - 4, sy(tick), margin_l, sy(tick), "#444")
        c.line(margin_l, sy(tick), margin_l + plot_w, sy(tick), "#ddd", 0.5)
        c.text(margin_l - 8, sy(tick) + 3.5, _fmt(tick), size=10, anchor="end")
    for label, value in (hlines or {}).items():
        c.line(margin_l, sy(value), margin_l + plot_w, sy(value),
               "#888", 1.0, dash="5,4")
        c.text(margin_l + plot_w - 4, sy(value) - 4, label, size=10,
               anchor="end", fill="#555")
    for idx, (label, (xv, yv)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}"
                          for x, y in zip(xv, yv))
        c.parts.append(f'<polyline points="{points}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        c.text(margin_l + plot_w - 4, margin_t + 14 + 14 * idx, label,
               size=11, anchor="end", fill=color)
    if title:
        c.text(width / 2, 22, title, size=13)
    if xlabel:
        c.text(margin_l + plot_w / 2, height - 12, xlabel, size=11)
    return c.render()


_T = np.arange(2001) * 7.5e-4
ORACLE_CHARTS = {
    "int lists": ({"a": ([0, 1, 2, 5], [3, -1, 4, 1])}, {}),
    "one sample": ({"a": ([0.25], [0.5])}, {}),
    "constant": ({"a": ([0.0, 1.0, 2.0], [0.3, 0.3, 0.3])}, {}),
    "signed zeros": ({"a": ([-0.0, 0.0, 1.0], [0.0, -0.0, -0.0])}, {}),
    "hlines above and below": (
        {"a": ([0.0, 0.5, 1.0], [0.2, 0.4, 0.1])},
        {"hlines": {"cap": 0.9, "floor": -0.35}}),
    "two x arrays": (
        {"a": ([0.0, 0.1, 0.2], [1.0, 2.0, 1.5]),
         "b": ([0.05, 0.15, 0.35, 0.45], [0.5, 0.7, 2.5, 0.2])},
        {"title": "t", "xlabel": "x"}),
    "2001 points": (
        {"nominal": (_T, np.full_like(_T, 0.6)),
         "speed": (_T, 0.3 * (1.0 - np.exp(-_T / 0.05))),
         "tank": (_T, np.maximum(0.05 - 0.04 * _T, 0.0))},
        {"hlines": {"v0_max": 0.3}, "xlabel": "time [s]"}),
    "four series on one time base": (
        {"nominal": (_T, np.full_like(_T, 0.6)),
         "commanded": (_T, np.full_like(_T, 0.3)),
         "speed": (_T, 0.3 * (1.0 - np.exp(-_T / 0.05))),
         "tank": (_T, np.maximum(0.05 - 0.04 * _T, 0.0))},
        {"hlines": {"v0_max": 0.3}, "xlabel": "time [s]"}),
    "x arrays apart by a signed zero": (
        {"a": (np.array([0.0, 0.5, 1.0]), [0.2, 0.4, 0.1]),
         "b": (np.array([-0.0, 0.5, 1.0]), [0.3, -0.0, 0.0])}, {}),
}


@pytest.mark.parametrize("name", ORACLE_CHARTS)
def test_line_chart_matches_the_per_point_chart(name):
    series, options = ORACLE_CHARTS[name]
    assert line_chart(series, **options) == _per_point_line_chart(series,
                                                                  **options)


@pytest.mark.parametrize("bad, where", [
    ([math.nan, 1.0, 2.0], "y sample nan at index 0"),
    ([0.0, 1.0, math.nan], "y sample nan at index 2"),
    ([0.0, math.inf, 2.0], "y sample inf at index 1"),
    ([0.0, 1.0, -math.inf], "y sample -inf at index 2"),
])
def test_line_chart_rejects_a_non_finite_sample(bad, where):
    series = {"good": ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
              "bad one": ([0.0, 1.0, 2.0], bad)}
    with pytest.raises(ValueError, match=f"series 'bad one' has the "
                                         f"non-finite {where}"):
        line_chart(series)
    with pytest.raises(ValueError, match=f"series 'bad one' has the "
                                         f"non-finite x{where[1:]}"):
        line_chart({"bad one": (bad, [1.0, 2.0, 3.0])})
    with pytest.raises(InputError, match="hline 'cap' must be finite, got nan"):
        line_chart({"good": series["good"]}, hlines={"cap": math.nan})


def test_line_chart_rejects_a_range_wider_than_a_float():
    with pytest.raises(ValueError, match="the x range"):
        line_chart({"a": ([-1e308, 1e308], [0.0, 1.0])})
    with pytest.raises(ValueError, match="the y range"):
        line_chart({"a": ([0.0, 1.0], [-1e308, 1e308])})


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this (main) thread after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("xs", [
    [1e17, 1e17 + 16],      # a tick step of 5 is below the float spacing
    [1e17, 1e17],           # a unit span is below the float spacing
    [0.0, 5e-324],          # a span of one subnormal step
], ids=["step-absorbed", "constant-large", "subnormal-span"])
def test_line_chart_ends_where_float_spacing_is_coarse(xs):
    with _deadline(5.0):
        svg = line_chart({"a": (np.array(xs), np.array([0.0, 1.0]))})
    assert svg.count("<polyline") == 1
    assert "nan" not in svg and "inf" not in svg
    with _deadline(5.0):
        ticks = _nice_ticks(xs[0], xs[1])
    assert ticks and ticks == sorted(set(ticks))


def _stats(scale: float) -> BoxStats:
    return BoxStats(mean=0.5 * scale, q1=0.4 * scale, median=0.5 * scale,
                    q3=0.6 * scale, whisker_lo=0.2 * scale,
                    whisker_hi=0.8 * scale, minimum=0.1 * scale,
                    maximum=0.9 * scale, n=100)


def test_grouped_boxplot_basic():
    svg = grouped_boxplot(
        ["Head", "Chest"],
        {"transient": [_stats(1.0), _stats(2.0)],
         "clamped": [_stats(1.2), _stats(0.9)]},
        {"transient": [1.1, 1.9], "clamped": [0.4, 0.3]},
        title="limits", ylabel="v [m/s]")
    assert svg.startswith("<?xml")
    assert "Head" in svg and "Chest" in svg
    # one star marker per series and group
    assert svg.count("<polygon") == 2 * 2
    assert "limits" in svg
    # background, frame, two legend keys and one box per series and group
    assert svg.count("<rect") == 1 + 1 + 2 + 2 * 2


def test_grouped_boxplot_deterministic():
    groups = ["A", "B", "C"]
    boxes = {"x": [_stats(1.0), _stats(1.5), _stats(0.7)]}
    stars = {"x": [0.4, 0.6, 0.3]}
    assert (grouped_boxplot(groups, boxes, stars)
            == grouped_boxplot(groups, boxes, stars))


def test_grouped_boxplot_rejects_empty():
    with pytest.raises(ValueError, match="no data"):
        grouped_boxplot([], {"x": []}, {"x": []})


def test_grouped_boxplot_rejects_stars_without_a_box_series():
    with pytest.raises(ValueError, match="^grouped_boxplot: star series need "
                                         "a box series"):
        grouped_boxplot(["A"], {}, {"x": [1.0]})


@pytest.mark.parametrize("top", [0.0, -1.0, math.inf, math.nan, 1.7e308])
def test_grouped_boxplot_rejects_a_largest_value_with_no_axis(top):
    # the y axis runs from 0 to 1.06 times the largest value
    with pytest.raises(ValueError, match=r"^grouped_boxplot: the largest "
                                         r"value .* leaves no y axis from 0"):
        grouped_boxplot(["A"], {"x": [_stats(0.0)]}, {"x": [top]})


def test_grouped_boxplot_rejects_a_series_without_one_entry_per_group():
    with pytest.raises(ValueError, match=r"^grouped_boxplot: box series 'x' "
                                         r"has 0 entries for 1 groups"):
        grouped_boxplot(["A"], {"x": []}, {"x": [0.0]})
    with pytest.raises(ValueError, match=r"^grouped_boxplot: star series 'x' "
                                         r"has 2 entries for 1 groups"):
        grouped_boxplot(["A"], {"x": [_stats(1.0)]}, {"x": [1.0, 2.0]})


class _PerNumberCanvas:
    """The reference canvas: each number through its own ``_fmt`` call and
    each star's corners computed per star."""

    def __init__(self, width, height):
        self.width, self.height, self.parts = width, height, []

    def line(self, x1, y1, x2, y2, stroke="#000", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def rect(self, x, y, w, h, fill="none", stroke="#000", width=1.0):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')

    def text(self, x, y, s, size=11, anchor="middle", rotate=None, fill="#000"):
        transform = (f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"'
                     if rotate is not None else "")
        s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{fill}"{transform}>{s}</text>')

    def star(self, x, y, r, fill):
        pts = []
        for i in range(10):
            radius = r if i % 2 == 0 else 0.4 * r
            angle = -math.pi / 2 + i * math.pi / 5
            pts.append((x + radius * math.cos(angle), y + radius * math.sin(angle)))
        path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
        self.parts.append(
            f'<polygon points="{path}" fill="{fill}" stroke="#000" '
            f'stroke-width="0.6"/>')

    def render(self):
        body = "\n".join(self.parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="#fff"/>\n'
            f"{body}\n</svg>\n")


def _per_number_boxplot(groups, boxes, stars, title="", ylabel=""):
    """The reference box plot: every pixel computed where it is drawn and
    every number formatted there."""
    width, height = 1000, 520
    margin_l, margin_r, margin_t, margin_b = 70, 20, 46, 110
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    values = []
    for stats_row in boxes.values():
        for st in stats_row:
            values.extend([st.whisker_lo, st.whisker_hi, st.minimum,
                           st.maximum])
    for row in stars.values():
        values.extend(float(v) for v in row)
    y_lo = 0.0
    y_hi = max(values) * 1.06

    def sy(y): return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    n_groups = len(groups)
    n_series = len(boxes)
    group_w = plot_w / n_groups
    box_w = min(16.0, group_w / (n_series + 2))
    c = _PerNumberCanvas(width, height)
    c.rect(margin_l, margin_t, plot_w, plot_h, stroke="#444")
    for tick in _nice_ticks(y_lo, y_hi):
        c.line(margin_l - 4, sy(tick), margin_l, sy(tick), "#444")
        c.line(margin_l, sy(tick), margin_l + plot_w, sy(tick), "#ddd", 0.5)
        c.text(margin_l - 8, sy(tick) + 3.5, _fmt(tick), size=10, anchor="end")
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
            c.line(x, sy(st.whisker_lo), x, sy(st.q1), color)
            c.line(x, sy(st.q3), x, sy(st.whisker_hi), color)
            c.line(x - box_w / 3, sy(st.whisker_lo), x + box_w / 3,
                   sy(st.whisker_lo), color)
            c.line(x - box_w / 3, sy(st.whisker_hi), x + box_w / 3,
                   sy(st.whisker_hi), color)
            c.rect(x - box_w / 2, sy(st.q3), box_w, sy(st.q1) - sy(st.q3),
                   fill="#fff", stroke=color, width=1.4)
            c.line(x - box_w / 2, sy(st.median), x + box_w / 2, sy(st.median),
                   color, 1.6)
        for s_idx, row in enumerate(stars.values()):
            x = center + offsets[s_idx % max(n_series, 1)]
            c.star(x, sy(float(row[g_idx])), 5.0,
                   _PALETTE[s_idx % len(_PALETTE)])
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


def _sweep_boxplot_input(panda, body_table):
    """The groups, boxes and stars ``render_sweep_svg`` draws for a sweep of
    18 points."""
    result = run_sweep(panda, body_table, SweepConfig(
        box_min=(0.3, -0.2, 0.2), box_max=(0.5, 0.2, 0.6), grid_spacing=0.2,
        n_directions=20))
    boxes = {mode.value: [result.stats[rid, mode] for rid in REGION_IDS]
             for mode in ContactMode}
    stars = {mode.value: [result.samples[rid, mode, MassSource.CONSTANT][0]
                          for rid in REGION_IDS] for mode in ContactMode}
    return [REGION_LABELS[rid] for rid in REGION_IDS], boxes, stars


def _box(*five, mean=None):
    """A box of (whisker_lo, q1, median, q3, whisker_hi), its whiskers
    also its extremes."""
    lo, q1, med, q3, hi = five
    return BoxStats(mean=med if mean is None else mean, q1=q1, median=med,
                    q3=q3, whisker_lo=lo, whisker_hi=hi, minimum=lo,
                    maximum=hi, n=5)


@pytest.mark.parametrize("case", ["sweep", "equal quartiles", "decades",
                                  "extremes"])
def test_grouped_boxplot_matches_the_per_number_chart(panda, body_table, case):
    if case == "sweep":
        groups, boxes, stars = _sweep_boxplot_input(panda, body_table)
    elif case == "equal quartiles":
        groups = ["A", "B <&>"]
        boxes = {"x": [_box(0.5, 0.5, 0.5, 0.5, 0.5), _box(0.2, 0.7, 0.7, 0.7, 0.9)],
                 "y": [_box(0.0, 0.0, 0.0, 0.0, 0.0), _box(1.0, 1.0, 1.0, 1.0, 1.0)]}
        stars = {"x": [0.5, 0.7], "y": [0, 1]}
    else:  # log-uniform values over 10 decades, or over 600
        exponents = (-8, 2) if case == "decades" else (-300, 300)
        rng = np.random.default_rng(26)
        groups = [f"g{i}" for i in range(7)]
        boxes, stars = {}, {}
        for label in ("a", "b", "c"):
            five = np.sort(10.0 ** rng.uniform(*exponents, (7, 5)), axis=1)
            boxes[label] = [_box(*row) for row in five.tolist()]
            stars[label] = (10.0 ** rng.uniform(*exponents, 7)).tolist()
        stars["c"][0] = 5e-324
    options = {"title": "speeds <m/s>", "ylabel": "v [m/s]"}
    assert (grouped_boxplot(groups, boxes, stars, **options)
            == _per_number_boxplot(groups, boxes, stars, **options))


@pytest.mark.parametrize("value", [
    0.1, -2.5e-320, 1e308, 123456789.0, -0.0, math.inf, 7, -7, 10 ** 20, 0,
    True, False, np.float64(0.3), np.float32(1.1), np.float32(3e38),
    np.float16(0.1), np.int64(123456789), np.int32(-5), np.uint8(255),
    np.bool_(True), np.bool_(False)])
def test_the_svg_number_format_is_6g_of_the_float(value):
    assert _fmt(value) == format(float(value), ".6g")


def test_the_svg_number_format_matches_6g_over_the_float_range():
    rng = np.random.default_rng(7)
    values = (rng.uniform(-1.0, 1.0, 20_000)
              * 10.0 ** rng.integers(-320, 309, 20_000)).tolist()
    assert list(map(_fmt, values)) == [format(v, ".6g") for v in values]
