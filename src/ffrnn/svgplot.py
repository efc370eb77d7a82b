"""Minimal standalone SVG scatter plots (no plotting dependency).

CSV files remain the canonical outputs; these are quick-look figures for the
eigenvalue distribution and the projected activity.
"""

from __future__ import annotations

import numpy as np

from .tensorio import write_file

SIZE = 480
MARGIN = 40
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) / span * (out_hi - out_lo)


def _document(body, title):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">\n'
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>\n'
        f'<text x="{SIZE / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>\n'
    )
    return head + body + "</svg>\n"


def _scatter_svg(points, colors, xlim, ylim, title, extra=""):
    xs = _scale([p[0] for p in points], xlim[0], xlim[1], MARGIN, SIZE - MARGIN)
    ys = _scale([p[1] for p in points], ylim[0], ylim[1], SIZE - MARGIN, MARGIN)
    body = (
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{SIZE - 2 * MARGIN}" '
        f'height="{SIZE - 2 * MARGIN}" fill="none" stroke="#888"/>\n'
    )
    body += extra
    for x, y, c in zip(xs, ys, colors):
        body += f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{c}" fill-opacity="0.7"/>\n'
    return _document(body, title)


def write_spectrum_svg(path, eigvals, eps_circle: float = 0.05) -> None:
    """Eigenvalues in the complex plane with the unit circle drawn in."""
    eigvals = np.asarray(eigvals)
    lim = max(1.1, float(np.abs(eigvals).max()) * 1.05) if eigvals.size else 1.1
    cx = _scale([0.0], -lim, lim, MARGIN, SIZE - MARGIN)[0]
    cy = _scale([0.0], -lim, lim, SIZE - MARGIN, MARGIN)[0]
    r = (SIZE - 2 * MARGIN) / (2 * lim)
    circle = (
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" '
        f'fill="none" stroke="#444" stroke-dasharray="4 3"/>\n'
    )
    colors = ["#d62728" if abs(v) > 1 + eps_circle else "#1f77b4" for v in eigvals]
    points = [(v.real, v.imag) for v in eigvals]
    write_file(path, _scatter_svg(points, colors, (-lim, lim), (-lim, lim),
                                  "recurrent-matrix eigenvalues", extra=circle))


def write_projection_svg(path, points, labels, axes=(0, 1)) -> None:
    """2-D view of the projected activity, colored by memory state."""
    points = np.asarray(points, dtype=float)
    i, j = axes
    xy = points[:, [i, j]]
    lo = float(xy.min()) if xy.size else -1.0
    hi = float(xy.max()) if xy.size else 1.0
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    lim = (lo - pad, hi + pad)
    colors = [PALETTE[l % 8] if l >= 0 else "#cccccc" for l in labels]
    write_file(path, _scatter_svg(xy, colors, lim, lim,
                                  f"activity projection (pc{i + 1} vs pc{j + 1})"))
