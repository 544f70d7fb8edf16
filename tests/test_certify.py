"""Certified trap balls: the float GD map keeps each certified ball around
an orbit and shrinks it as the ball's bound says; a ball that cannot be
certified is refused."""

import numpy as np
import pytest

import gdcycles as g
from gdcycles import certify
from gdcycles.certify import TrapBall, trap_balls
from gdcycles.losses import ScalarLoss
from conftest import basin_attractors

LOSSES = ["logistic", "squareplus"]
RADII = 3e-6 * 2.0 ** np.arange(1, 11)       # about 2 .. 1024 times the raster's tol
EPS = 1.5e-6                                 # about half that tol


def _sphere_starts(points, radius, n_dirs=8):
    """n_dirs starts at ``radius`` (less a hair) around each point, in one
    batch: (len(points) * n_dirs, 2), and each start's point index."""
    angles = 2 * np.pi * (np.arange(n_dirs) + 0.25) / n_dirs
    dirs = np.column_stack([np.cos(angles), np.sin(angles)]) * radius * (1 - 1e-9)
    starts = (points[:, None, :] + dirs[None]).reshape(-1, 2)
    return starts, np.repeat(np.arange(len(points)), n_dirs)


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("attractor", ["fixed-point", "cycle"])
def test_stepped_states_stay_within_the_bound(loss, attractor):
    # states on the rim of each certified ball, stepped as one float batch,
    # are j steps later within bound(j) of the orbit point j steps on
    obj, sol, eta, orbit = basin_attractors(loss)
    points = sol.w_star[None, :] if attractor == "fixed-point" else orbit
    balls = [b for b in trap_balls(obj, eta, points, RADII, EPS) if b is not None]
    assert len(balls) >= 5
    p = len(points)
    for ball in balls:
        W, phase = _sphere_starts(points, ball.radius)
        for j in range(1, 1500):
            W = g.step_many(obj, W, eta)
            dist = np.linalg.norm(W - points[(phase + j) % p], axis=1)
            assert dist.max() <= ball.bound(j), (ball, j)


@pytest.mark.parametrize("loss", LOSSES)
def test_certified_factors(loss):
    obj, sol, eta, orbit = basin_attractors(loss)
    star = trap_balls(obj, eta, sol.w_star[None, :], RADII, EPS)
    cycle = trap_balls(obj, eta, orbit, RADII, EPS)
    # the smallest balls hold; balls grow until one is refused
    assert star[0] is not None and cycle[0] is not None
    assert None in cycle
    # at w* the factor is at least |1 - eta lambda| over H(w*)'s eigenvalues
    jac = np.eye(2) - eta * obj.hessian(sol.w_star)
    assert np.linalg.norm(jac, 2) <= star[0].q < 1.0
    assert star[0].period == 1 and star[0].growth == 1.0
    # a cycle's balls contract over one to four laps, whichever comes
    # within EPS soonest; under squareplus one lap's product has norm
    # above 1, so never over one
    held = [b for b in cycle if b is not None]
    assert {b.period for b in held} <= {13, 26, 39, 52}
    if loss == "squareplus":
        assert 13 not in {b.period for b in held}
    steps = [b.steps_within(EPS) for b in held]
    assert steps == sorted(steps)
    held = [b for b in star if b is not None]
    assert [b.q for b in held] == sorted(b.q for b in held)


@pytest.mark.parametrize("loss", LOSSES)
def test_each_ball_is_the_soonest_of_its_lap_counts(loss, monkeypatch):
    # with at most one lap allowed, no ball comes within EPS sooner
    obj, sol, eta, orbit = basin_attractors(loss)
    best = trap_balls(obj, eta, orbit, RADII, EPS)
    monkeypatch.setattr(certify, "_LAPS", 1)
    one = trap_balls(obj, eta, orbit, RADII, EPS)
    for b, o in zip(best, one):
        assert o is None or b.steps_within(EPS) <= o.steps_within(EPS)
    assert any(b is not None and (o is None or b.steps_within(EPS) < o.steps_within(EPS))
               for b, o in zip(best, one))


@pytest.mark.parametrize("eps", [1e-6, 1.5e-6, 1e-5])
def test_steps_within(eps):
    ball = TrapBall(radius=1e-4, period=13, q=0.95, growth=1.01, slack=1e-10)
    n = ball.steps_within(eps)
    assert n % 13 == 0 and n > 0
    assert all(ball.bound(m) < eps for m in range(n, n + 100 * 13))
    assert ball.bound(n - 1) >= eps
    assert ball.steps_within(1e-4 * 1.02) == 0
    assert TrapBall(1e-4, 13, 0.95, 1.0, 1e-7).steps_within(1e-6) is None


def _shifted(orbit):
    out = orbit.copy()
    out[5] += [1e-3, 0.0]
    return out


@pytest.mark.parametrize("case", ["shifted-orbit-point", "reversed-orbit", "past-two-over-lambda",
                                  "other-loss", "non-finite-orbit"])
def test_refused(case):
    obj, sol, eta, orbit = basin_attractors("logistic")
    points = orbit
    if case == "shifted-orbit-point":
        points = _shifted(orbit)
    elif case == "reversed-orbit":
        points = orbit[::-1]
    elif case == "past-two-over-lambda":
        # w* repels along H(w*)'s top eigenvector
        eta, points = 1.02 * sol.eta_two_lambda, sol.w_star[None, :]
    elif case == "other-loss":
        # the logistic loss under another name and functions: the curvature
        # bounds rest on the shipped losses' unimodal l''
        loss = g.logistic()
        obj = g.Objective(obj.ds, ScalarLoss("copy", loss.f, loss.d1, lambda z: loss.d2(z)))
    else:
        points = orbit.copy()
        points[3, 1] = np.inf
    assert trap_balls(obj, eta, points, RADII, EPS) == [None] * len(RADII)
