"""SVG line plots: the polyline against the per-point formatter."""

import math
import re

import numpy as np
import pytest

from accband import svgplot
from accband.svgplot import HEIGHT, MARGIN, WIDTH


def ref_points(x, y):
    """The polyline points, formatted one point at a time."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    x_lo, x_hi = min(x), max(x)
    y_lo, y_hi = min(y), max(y)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v):
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    return " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))


def polyline(path):
    return re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)


@pytest.mark.parametrize("case", ["profile", "flat", "two_points", "negative_zero"])
def test_polyline_matches_per_point_format(tmp_path, rng, case):
    if case == "profile":
        x = np.degrees(np.linspace(-1.047, -0.873, 2001))
        y = 40.0 * np.sin(np.linspace(0.0, 3.0, 2001)) + rng.standard_normal(2001)
    elif case == "flat":  # y_hi == y_lo widens the range by one each way
        x = np.linspace(-60.0, -50.0, 11)
        y = np.full(11, -0.25)
    elif case == "two_points":
        x, y = [0, 1], [3.0, -3.0]
    else:
        x = [-0.0, 0.0, 1e-300, 2.5]
        y = [0.0, -0.0, 1e300, -1e-300]
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, x, y, xlabel="x", ylabel="y", title="t")
    assert polyline(path) == ref_points(x, y)


def test_array_input_writes_the_same_bytes_as_lists(tmp_path, rng):
    """Arrays (as the zonal mode passes them) and lists of floats plot alike."""
    thetas = np.linspace(-1.0471975511965976, -0.8726646259971648, 2001)
    u = 40.0 * np.sin(np.linspace(0.0, 3.0, 2001)) + rng.standard_normal(2001)
    from_arrays, from_lists = tmp_path / "arrays.svg", tmp_path / "lists.svg"
    svgplot.line_plot(from_arrays, np.degrees(thetas), u,
                      xlabel="x", ylabel="y", title="t")
    svgplot.line_plot(from_lists, [math.degrees(t) for t in thetas], u.tolist(),
                      xlabel="x", ylabel="y", title="t")
    assert from_arrays.read_bytes() == from_lists.read_bytes()
