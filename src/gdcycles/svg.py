"""Tiny dependency-free SVG scatter/line emitter.

CSV is the canonical output everywhere; these plots are a convenience for
eyeballing sweeps and trajectories without a plotting stack.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["scatter_svg", "line_svg"]

_W, _H = 720, 480
_M = 50  # margin


def _finite_pairs(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ok = np.isfinite(xs) & np.isfinite(ys)
    return xs[ok], ys[ok]


def _axis_range(v):
    lo, hi = float(np.min(v)), float(np.max(v))
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if hi - lo < 1e-300:
        pad = 1.0 if hi == 0.0 else abs(hi) * 0.1
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _project(xs, ys):
    x0, x1 = _axis_range(xs)
    y0, y1 = _axis_range(ys)
    px = _M + (xs - x0) / (x1 - x0) * (_W - 2 * _M)
    py = _H - _M - (ys - y0) / (y1 - y0) * (_H - 2 * _M)
    return px, py, (x0, x1, y0, y1)


def _frame(title, xlabel, ylabel, rng):
    x0, x1, y0, y1 = rng
    return [
        f'<rect x="{_M}" y="{_M}" width="{_W - 2 * _M}" height="{_H - 2 * _M}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="15" y="{_H / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {_H / 2:.0f})">{ylabel}</text>',
        f'<text x="{_M}" y="{_H - _M + 15}" font-size="10">{x0:.6g}</text>',
        f'<text x="{_W - _M}" y="{_H - _M + 15}" text-anchor="end" font-size="10">{x1:.6g}</text>',
        f'<text x="{_M - 5}" y="{_H - _M}" text-anchor="end" font-size="10">{y0:.6g}</text>',
        f'<text x="{_M - 5}" y="{_M + 4}" text-anchor="end" font-size="10">{y1:.6g}</text>',
    ]


def _document(body):
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">'
    )
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


# Points are formatted this many at a time, one % per block ('%.2f' % x gives
# the same text as f"{x:.2f}"), so the Python floats of a block stay small
# however many points there are.
_POINT_BLOCK = 4096


def _format_points(px, py, point: str, sep: str) -> str:
    """Each (x, y) pair through the two-%.2f template ``point``, joined by
    ``sep``."""
    blocks = []
    for lo in range(0, len(px), _POINT_BLOCK):
        xy = np.column_stack((px[lo:lo + _POINT_BLOCK], py[lo:lo + _POINT_BLOCK]))
        blocks.append(sep.join([point] * len(xy)) % tuple(xy.ravel().tolist()))
    return sep.join(blocks)


def scatter_svg(xs, ys, title="", xlabel="", ylabel="", radius=1.2) -> str:
    xs, ys = _finite_pairs(xs, ys)
    if len(xs) == 0:
        xs, ys = np.array([0.0]), np.array([0.0])
    px, py, rng = _project(xs, ys)
    body = _frame(title, xlabel, ylabel, rng)
    r = f"{radius}".replace("%", "%%")      # the template is %-formatted
    circle = f'<circle cx="%.2f" cy="%.2f" r="{r}" fill="black"/>'
    body.append(_format_points(px, py, circle, "\n"))
    return _document(body)


def line_svg(xs, ys, title="", xlabel="", ylabel="") -> str:
    xs, ys = _finite_pairs(xs, ys)
    if len(xs) == 0:
        xs, ys = np.array([0.0]), np.array([0.0])
    px, py, rng = _project(xs, ys)
    body = _frame(title, xlabel, ylabel, rng)
    pts = _format_points(px, py, "%.2f,%.2f", " ")
    body.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="0.8"/>')
    return _document(body)
