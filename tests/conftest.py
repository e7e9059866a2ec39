import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from accband.geometry import BandConfig
from accband.svgplot import HEIGHT, MARGIN, WIDTH


@pytest.fixture
def fig1_config():
    """Headline scenario: strong jets, lam = -3000, upsilon = 30000."""
    return BandConfig(lam=-3000.0, upsilon=30000.0)


@pytest.fixture
def mild_config():
    """Desk-scale scenario used for time-stepping tests (lam = 0)."""
    return BandConfig(psi1=-0.2, psi2=0.2, omega=2.0, lam=0.0, upsilon=1.0)


@pytest.fixture
def mild_neg_lam_config():
    """Desk-scale scenario with a negative vorticity slope."""
    return BandConfig(psi1=-0.2, psi2=0.2, omega=2.0, lam=-10.0, upsilon=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def _plot_pixels(x, y):
    """(sx, sy) of each point by svgplot.line_plot's axis formulas, one
    Python float at a time."""
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

    return [(sx(a), sy(b)) for a, b in zip(x, y)]


def _svg_curve(path):
    """(d, vertices) of the one curve in a line_plot SVG: the file parsed as
    XML, its path's d text, and the absolute vertices in hundredths of a
    pixel that the d text's M point and relative l steps decode to."""
    root = ET.parse(path).getroot()
    (curve,) = root.iter("{http://www.w3.org/2000/svg}path")
    assert curve.get("transform") == "scale(0.01)"
    d = curve.get("d")
    match = re.fullmatch(r"M(-?\d+,-?\d+)l(-?\d+,-?\d+(?: -?\d+,-?\d+)*)", d)
    assert match, d[:80]
    pairs = [match.group(1), *match.group(2).split(" ")]
    steps = [[int(v) for v in pair.split(",")] for pair in pairs]
    return d, [tuple(v) for v in np.cumsum(steps, axis=0).tolist()]


@pytest.fixture
def plot_pixels():
    return _plot_pixels


@pytest.fixture
def svg_curve():
    return _svg_curve
