"""Minimal SVG line plots (axes, polyline, labels); no plotting library.

Deliberately small: richer plotting belongs to the user's tooling via the
CSV outputs.
"""

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN = 56


def _ticks(lo, hi, n=5):
    if hi == lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_plot(path, x, y, *, xlabel="", ylabel="", title=""):
    """Write a single-series line plot to an SVG file."""
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

    # sx and sy over whole arrays: the same expressions, one format call
    xy = np.empty((len(x), 2))
    xy[:, 0] = MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)
    xy[:, 1] = HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)
    points = " ".join(["%.2f,%.2f"] * len(x)) % tuple(xy.ravel().tolist())
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
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" '
                 f'stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
