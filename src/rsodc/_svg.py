"""Static SVG scatter plots for embeddings, no plotting dependency."""

from __future__ import annotations

import numpy as np

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 64, 150, 40, 52


def _bounds(values: np.ndarray):
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    if span <= 0.0:
        lo, hi = lo - 1.0, hi + 1.0
    else:
        lo, hi = lo - 0.05 * span, hi + 0.05 * span
    return lo, hi


def scatter_svg(points, labels, path, title: str = "") -> None:
    """Write a 2-d scatter colored by cluster label.

    Uses the first two columns of `points`; a single column is plotted
    against a zero second coordinate.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    x = P[:, 0]
    y = P[:, 1] if P.shape[1] >= 2 else np.zeros_like(x)
    lab = np.asarray(labels, dtype=int)

    x0, x1 = _bounds(x)
    y0, y1 = _bounds(y)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * plot_w

    def sy(v):
        return _H - _MB - (v - y0) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    font = 'font-family="sans-serif" font-size="12"'
    for frac in (0.0, 0.5, 1.0):
        vx = x0 + frac * (x1 - x0)
        px = sx(vx)
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 18}" {font} '
                     f'text-anchor="middle">{vx:.4g}</text>')
        vy = y0 + frac * (y1 - y0)
        py = sy(vy)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" {font} '
                     f'text-anchor="end">{vy:.4g}</text>')
    parts.append(f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 12}" {font} '
                 f'text-anchor="middle">component 1</text>')
    parts.append(f'<text x="16" y="{_MT + plot_h / 2:.1f}" {font} '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{_MT + plot_h / 2:.1f})">component 2</text>')
    if title:
        parts.append(f'<text x="{_W / 2:.1f}" y="24" font-family="sans-serif" '
                     f'font-size="15" text-anchor="middle">{title}</text>')

    # whole-array coordinates: the same operations, in the same order, as
    # sx and sy apply to one point
    circle = '<circle cx="%.2f" cy="%.2f" r="4" fill="%s" fill-opacity="0.75"/>'
    colors = [PALETTE[(li - 1) % len(PALETTE)] for li in lab.tolist()]
    parts.extend(circle % point for point in zip(sx(x).tolist(), sy(y).tolist(), colors))

    lx = _W - _MR + 16
    for row, li in enumerate(np.unique(lab)):
        color = PALETTE[(li - 1) % len(PALETTE)]
        ly = _MT + 10 + 20 * row
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly + 2}" {font}>cluster {li}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")
