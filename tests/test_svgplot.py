"""SVG emission: determinism, escaping, tick placement."""
import math

import pytest

from pflsafe.svgplot import BoxStats, _nice_ticks, grouped_boxplot, line_chart


def test_nice_ticks_steps():
    assert _nice_ticks(0.0, 1.0, target=5) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert _nice_ticks(0.0, 10.0, target=5) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
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
                     title="ramp", xlabel="t [s]", ylabel="v [m/s]")
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")
    assert "<polyline" in svg
    assert "ramp" in svg and "t [s]" in svg and "v [m/s]" in svg


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
