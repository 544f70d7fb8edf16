"""SVG emission: block formatting writes the bytes per-point formatting did."""

import math

import numpy as np
import pytest

from gdcycles import svg
from gdcycles.svg import _POINT_BLOCK


def _scatter_by_point(xs, ys, title="", xlabel="", ylabel="", radius=1.2):
    """scatter_svg as first written: one f-string per point."""
    xs, ys = svg._finite_pairs(xs, ys)
    if len(xs) == 0:
        xs, ys = np.array([0.0]), np.array([0.0])
    px, py, rng = svg._project(xs, ys)
    body = svg._frame(title, xlabel, ylabel, rng)
    for x, y in zip(px, py):
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}" fill="black"/>')
    return svg._document(body)


def _line_by_point(xs, ys, title="", xlabel="", ylabel=""):
    """line_svg as first written: one f-string per point."""
    xs, ys = svg._finite_pairs(xs, ys)
    if len(xs) == 0:
        xs, ys = np.array([0.0]), np.array([0.0])
    px, py, rng = svg._project(xs, ys)
    body = svg._frame(title, xlabel, ylabel, rng)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    body.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="0.8"/>')
    return svg._document(body)


@pytest.mark.parametrize("n", [0, 1, _POINT_BLOCK, 2 * _POINT_BLOCK + 3])
def test_block_formatting_matches_per_point(n):
    # non-finite inputs are dropped before projection; n = 1 keeps none
    rng = np.random.default_rng(n)
    xs = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3, size=n)
    ys = rng.normal(size=n)
    if n:
        xs[0], ys[-1] = math.nan, math.inf
    for radius in (1.2, 3):
        assert svg.scatter_svg(xs, ys, "t", "x", "y", radius=radius) == _scatter_by_point(
            xs, ys, "t", "x", "y", radius=radius)
    assert svg.line_svg(xs, ys, "t", "x", "y") == _line_by_point(xs, ys, "t", "x", "y")
