"""Minimal SVG line plots (axes, one path, labels); no plotting library.

The curve is one SVG path in integer hundredths of a pixel, drawn under
``transform="scale(0.01)"``: an absolute ``M`` to the first vertex, then
one relative ``l`` whose pairs step from each vertex to the next.  Each
vertex is ``round(100 * pixel)``, half to even on the double product, so
the curve takes under half the text of ``%.2f`` pixel pairs.  It differs
from ``%.2f`` only where ``100 * pixel`` rounds onto an exact .5 that the
pixel itself is not, a case rare enough that none has been seen.

Deliberately small: richer plotting belongs to the user's tooling via the
CSV outputs.
"""

import numpy as np

from .errors import NumericalError

WIDTH, HEIGHT = 640, 420
MARGIN = 56
TICKS = 5  # labelled ticks per axis, both ends included


def _ticks(lo, hi):
    step = (hi - lo) / (TICKS - 1)
    return [lo + i * step for i in range(TICKS)]


def line_plot(path, x, y, *, xlabel="", ylabel="", title=""):
    """Write a single-series line plot to an SVG file.

    Raises NumericalError, before the file is opened, when a pixel
    coordinate is not finite (a NaN or infinite input, or a zero-width
    x range).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(y)), float(np.max(y))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v):
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    with np.errstate(all="ignore"):  # a zero-width range gives NaN, refused here
        xy = np.column_stack((sx(x), sy(y)))
    if not np.all(np.isfinite(xy)):
        raise NumericalError(
            f"cannot plot {path}: non-finite pixel coordinates "
            f"(x range [{x_lo!r}, {x_hi!r}], y range [{y_lo!r}, {y_hi!r}])"
        )
    vertices = np.rint(xy * 100).astype(np.int64)
    steps = np.concatenate((vertices[0], np.diff(vertices, axis=0).ravel()))
    d = ("M%d,%dl" + " ".join(["%d,%d"] * (len(x) - 1))) % tuple(steps.tolist())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
    ]
    axis = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
                 f'y2="{HEIGHT - MARGIN}" {axis}/>')
    parts.append(f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
                 f'y2="{HEIGHT - MARGIN}" {axis}/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(t):.2f}" y1="{HEIGHT - MARGIN}" '
                     f'x2="{sx(t):.2f}" y2="{HEIGHT - MARGIN + 5}" {axis}/>')
        parts.append(f'<text x="{sx(t):.2f}" y="{HEIGHT - MARGIN + 18}" '
                     f'text-anchor="middle" font-size="11">{t:.4g}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{MARGIN - 5}" y1="{sy(t):.2f}" x2="{MARGIN}" '
                     f'y2="{sy(t):.2f}" {axis}/>')
        parts.append(f'<text x="{MARGIN - 8}" y="{sy(t) + 4:.2f}" '
                     f'text-anchor="end" font-size="11">{t:.4g}</text>')
    parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 16 {HEIGHT / 2:.0f})">'
                 f'{ylabel}</text>')
    parts.append(f'<path transform="scale(0.01)" d="{d}" fill="none" '
                 f'stroke="#1f6fb2" stroke-width="150"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
