"""SVG emission: determinism, escaping, tick placement."""
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from pflsafe.errors import InputError
from pflsafe.svgplot import (_PALETTE, BoxStats, _Canvas, _fmt, _nice_ticks,
                             grouped_boxplot, line_chart)


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
