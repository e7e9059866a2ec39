"""SVG line plots: the path's vertices against the per-point reference."""

import math

import numpy as np
import pytest

from accband import svgplot
from accband.errors import NumericalError


def ref_points(pixels):
    """The %.2f polyline points the plot once wrote, formatted one point at
    a time: the vertex reference and the size baseline for the path."""
    return " ".join(f"{px:.2f},{py:.2f}" for px, py in pixels)


def hundredths(points):
    """The %.2f points as integer hundredths of a pixel, read off the text."""
    return [tuple(int(v.replace(".", "")) for v in pair.split(","))
            for pair in points.split(" ")]


def plot_case(case, rng):
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
    return x, y


@pytest.mark.parametrize("case", ["profile", "flat", "two_points", "negative_zero"])
def test_polyline_matches_per_point_format(tmp_path, rng, plot_pixels, svg_curve, case):
    """The path's decoded vertices are round(100 * pixel), and on these
    cases also the points the per-point %.2f formatter prints."""
    x, y = plot_case(case, rng)
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, x, y, xlabel="x", ylabel="y", title="t")
    _, vertices = svg_curve(path)
    pixels = plot_pixels(x, y)
    assert vertices == [(round(100 * px), round(100 * py)) for px, py in pixels]
    assert vertices == hundredths(ref_points(pixels))


def test_path_is_at_most_six_tenths_of_the_polyline(tmp_path, rng, plot_pixels,
                                                    svg_curve):
    """A later edit that inflates the curve's text again fails here."""
    x, y = plot_case("profile", rng)
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, x, y, xlabel="x", ylabel="y", title="t")
    d, _ = svg_curve(path)
    assert len(d) <= 0.6 * len(ref_points(plot_pixels(x, y)))


@pytest.mark.parametrize("case", ["nan", "zero_width_x"])
def test_non_finite_pixels_raise_before_any_file(tmp_path, case):
    if case == "nan":
        x, y = [0.0, 1.0, 2.0], [1.0, math.nan, 3.0]
    else:
        x, y = [5.0, 5.0, 5.0], [1.0, 2.0, 3.0]
    path = tmp_path / "plot.svg"
    with pytest.raises(NumericalError, match="non-finite"):
        svgplot.line_plot(path, x, y)
    assert not path.exists()


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
