"""Certified trap balls: a ball around each point of a periodic orbit of the
GD map that the float GD map, as ``step_many`` computes it, provably keeps
and shrinks.

A state within ``radius`` of an orbit point is, j steps later, within
``TrapBall.bound(j)`` of the orbit point j steps on, so a consumer that only
needs to know which attractor a state ends near can stop stepping it.  The
bounds are taken in float arithmetic and inflated outward; an exact
enclosure (for instance interval arithmetic in mpmath) can replace
``trap_balls``'s body behind the same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import step_many
from .losses import LOSS_NAMES, get_loss
from .objective import Objective

__all__ = ["TrapBall", "trap_balls"]

_U = np.finfo(float).eps / 2              # unit roundoff of binary64
# the curvature bounds rest on l'' being unimodal about 0, which the shipped
# losses pass in ``verify_assumption1``; any other loss gets no ball
_UNIMODAL = frozenset(get_loss(name) for name in LOSS_NAMES)
# a computed norm or l'' value is taken as at most this relative error off
_REL = 64 * _U
# the most laps of a cycle over which a contraction is sought
_LAPS = 4


@dataclass(frozen=True)
class TrapBall:
    """The ball of ``radius`` around each point o_0 .. o_{p-1} of an orbit
    of period p = ``period`` (p = 1: a fixed point), certified to trap.

    A float state within ``radius`` of o_k at some step is, j steps later,
    within

        bound(j) = growth * q**(j // p) * radius + floor

    of o_{(k + j) mod p}, where q < 1 bounds the contraction over a period,
    ``growth`` >= 1 the growth over fewer than p steps, and floor =
    growth * slack / (1 - q) + slack, with ``slack`` the distance a period
    can add whatever the state: the orbit's closure defect and the rounding
    of each float step, carried through the Jacobians.
    """

    radius: float
    period: int
    q: float
    growth: float
    slack: float

    @property
    def floor(self) -> float:
        return self.growth * self.slack / (1.0 - self.q) + self.slack

    def bound(self, steps: int) -> float:
        return self.growth * self.q ** (steps // self.period) * self.radius + self.floor

    def steps_within(self, eps: float) -> Optional[int]:
        """The fewest steps n such that bound(n') < eps for every n' >= n
        (a multiple of the period), or None if the floor is not below eps."""
        if self.floor >= eps:
            return None
        room = (eps - self.floor) / (self.growth * self.radius)
        m = 0 if room > 1.0 else max(0, math.ceil(math.log(room) / math.log(self.q)))
        while self.bound(m * self.period) >= eps:
            m += 1
        while m > 0 and self.bound((m - 1) * self.period) < eps:
            m -= 1
        return m * self.period


def _step_rounding(obj: Objective, eta: float, wmax: np.ndarray) -> np.ndarray:
    """A bound on |fl(T(w)) - T(w)| for the float GD map of ``step_many``
    at any w with |w| <= wmax: the margins' dot products, l' of a rounded
    margin (l'' <= l''(0) and |l'| <= 1 for a unimodal loss), the weights,
    the gradient's sum over groups, eta and the subtraction, each with a
    rounding error of a few units, taken four times over."""
    A, c = obj._A, obj._wts
    G, d = A.shape
    a = np.linalg.norm(A, axis=1)
    s1 = float(c @ a)                      # bounds |grad L| anywhere
    s2 = float(c @ (a * a))
    k0 = float(obj.loss.d2(0.0))
    grad_err = k0 * (d + 1) * _U * wmax * s2 + (G + 20) * _U * s1
    return 4.0 * math.sqrt(d) * (eta * grad_err + _U * (wmax + 2.0 * eta * s1))


def _jacobians(obj: Objective, eta: float, orbit: np.ndarray, reach: np.ndarray):
    """For each reach (shape (n,)): midpoint Jacobians M_k = I - eta
    H_mid(o_k), shape (n, p, d, d), and a bound e_k, shape (n, p), on
    |J - M_k| for every mean Jacobian J = I - eta H of the map over a
    segment within that reach of o_k.

    Each group's curvature l''(a_i . w) over the ball lies between l'' at
    the ends of the margin's range, and below l''(0) if the range holds 0
    (l'' is unimodal about 0); its centre ``obj.margins(o_k)`` is good to
    (d + 1)u |a_i||o_k| in any rounding order.  With those intervals [k_lo,
    k_hi] every Hessian over the ball lies in the Loewner interval H_mid -+
    R, R = sum_i c_i (k_hi - k_lo) / 2 a_i a_i^T: |H - H_mid| <= lambda_max(R).

    Both sums come from ``Objective._curvature_sum``, whose matmul rounds
    each term twice (the weighted row c_i w_i a_i, then its product with
    a_i) and adds the G terms, and whose symmetrization averages two such
    sums, one rounding more.  So with nonnegative weights w_i each entry of
    a computed sum lies within about (G + 2)u sum_i c_i w_i |a_i|^2 of the
    exact one, and the spectral norm of the error, at most its Frobenius
    norm, within the same.  For R that sum is tr R, which (G + 64)u tr R
    covers; for H_mid it is at most h_top = sum_i c_i k_hi |a_i|^2, which
    2(G + 4)u h_top covers."""
    A, c = obj._A, obj._wts
    G, d = A.shape
    a = np.linalg.norm(A, axis=1)
    z = obj.margins(orbit)                                   # (p, G)
    half = (a * reach[:, None, None] * (1.0 + _REL)
            + (d + 1) * _U * a * np.linalg.norm(orbit, axis=1)[:, None])   # (n, p, G)
    half = half + _REL * (np.abs(z) + half)
    lo, hi = z - half, z + half
    d_lo, d_hi = obj.loss.d2(lo), obj.loss.d2(hi)
    k_lo = np.minimum(d_lo, d_hi) * (1.0 - _REL)
    k_hi = np.where((lo <= 0.0) & (hi >= 0.0), float(obj.loss.d2(0.0)),
                    np.maximum(d_lo, d_hi)) * (1.0 + _REL)
    H_mid = obj._curvature_sum(c * (k_lo + k_hi) / 2.0)    # (n, p, d, d)
    R = obj._curvature_sum(c * (k_hi - k_lo) / 2.0)
    # lambda_max(R) and the rounding of R's and H_mid's sums over the groups
    spread = np.linalg.eigvalsh(R)[..., -1] + (G + 64) * _U * np.trace(R, axis1=-2, axis2=-1)
    h_top = (c * k_hi) @ (a * a)                             # bounds |H| over the ball
    e = eta * (spread + 2.0 * (G + 4) * _U * h_top) + 2.0 * d * _U * (1.0 + eta * h_top)
    return np.eye(d) - eta * H_mid, e


def _norm2(X: np.ndarray) -> np.ndarray:
    """The spectral norms of a stack of matrices, inflated outward.  A 2x2
    matrix [[a, b], [c, d]] has the largest singular value
    (|(a + d, b - c)| + |(a - d, b + c)|) / 2, each term to a few units."""
    if X.shape[-2:] == (2, 2):
        a, b, c, d = (X[..., i, j] for i in (0, 1) for j in (0, 1))
        top = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    else:
        top = np.linalg.norm(X, 2, axis=(-2, -1))
    return top * (1.0 + _REL)


def _lap_bounds(M: np.ndarray, e: np.ndarray, laps: int):
    """Bounds on the norms of products of the mean Jacobians J_k, each
    within e_k of M_k (M of shape (n, p, d, d), e of (n, p)), for each lap
    count m = 1 .. ``laps``: q over the m * p steps from any phase, and
    growth over 0 .. m * p - 1 steps from any phase (1 at none), each of
    shape (n, laps).  Each running product from phase k is kept as a float
    midpoint C with a norm bound rho on how far the true products can lie
    from it."""
    n, p, d, _ = M.shape
    C = np.broadcast_to(np.eye(d), M.shape).copy()
    rho = np.zeros((n, p))
    q, growth = np.empty((n, laps)), np.empty((n, laps))
    most = np.ones(n)                       # the growth over the steps so far
    M_norm = _norm2(M)
    M_frob = np.sqrt(np.einsum("...ij,...ij->...", M, M))
    for j in range(laps * p + 1):
        C_norm = _norm2(C)
        bound = np.max(C_norm + rho, axis=1) * (1.0 + _REL)
        if j and j % p == 0:
            q[:, j // p - 1], growth[:, j // p - 1] = bound, most
        if j == laps * p:
            break
        if j:
            most = np.maximum(most, bound)
        nxt = (np.arange(p) + j) % p         # the phase each product steps through
        rounding = (d + 1) * _U * M_frob[:, nxt] * np.sqrt(np.einsum("...ij,...ij->...", C, C))
        rho = rho * (M_norm[:, nxt] + e[:, nxt]) + C_norm * e[:, nxt] + rounding
        C = M[:, nxt] @ C
    return q, growth


def trap_balls(obj: Objective, eta: float, orbit: np.ndarray, radii, eps: float) -> list:
    """Certify the ball of each of ``radii`` around each point of ``orbit``,
    a (p, d) array taken as o_0 -> o_1 -> ... -> o_{p-1} -> o_0 under the GD
    map at step size ``eta``: for each radius the certified TrapBall that
    brings a state within ``eps`` of the orbit in the fewest steps, or None
    where every ball is refused or none comes within eps.

    The contraction is sought over 1 to ``_LAPS`` laps of a cycle (the lap
    count is the ball's period): a lap's Jacobian product can have its
    eigenvalues below 1 in modulus but not its norm, and the norm of a
    product over more laps comes closer to the product of the eigenvalues.
    The slack of a step is the orbit's closure defect max_k |fl(T(o_k)) -
    o_{k+1}| and the rounding of that evaluation, plus the rounding of the
    state's own float step.  The Jacobian bounds hold over a reach around
    each orbit point that must hold every state within a period of
    entering the ball, growth * radius + slack; the reach starts just past
    the radius and is widened just past the largest such need, a few times
    at most.  A ball is refused when the loss is not a shipped one, when q
    is not below 1, or when a period does not bring the ball back inside
    itself.
    """
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))
    radii = np.asarray(radii, dtype=float)
    balls = [None] * len(radii)
    if obj.loss not in _UNIMODAL or not np.all(np.isfinite(orbit)):
        return balls
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.linalg.norm(step_many(obj, orbit, eta) - np.roll(orbit, -1, axis=0), axis=1)
    defect = float(np.max(defect)) * (1.0 + _REL)
    if not np.isfinite(defect):
        return balls
    p = len(orbit)
    laps = np.arange(1, (_LAPS if p > 1 else 1) + 1)
    todo = np.flatnonzero(radii > 0.0)
    reach = 1.01 * radii
    for _ in range(4):
        if not len(todo):
            break
        r = radii[todo, None]
        wmax = float(np.max(np.linalg.norm(orbit, axis=1))) + reach[todo, None]
        q, growth = _lap_bounds(*_jacobians(obj, eta, orbit, reach[todo]), len(laps))
        slack = growth * laps * p * (defect + 2.0 * _step_rounding(obj, eta, wmax))
        need = growth * r + slack
        ok = (q < 1.0) & (q * r + slack <= r)
        fits = ok & (need <= reach[todo, None])
        for i, k in enumerate(todo.tolist()):
            for m in np.flatnonzero(fits[i]).tolist():
                ball = TrapBall(float(r[i, 0]), int(laps[m] * p), float(q[i, m]),
                                float(growth[i, m]), float(slack[i, m]))
                steps = ball.steps_within(eps)
                if steps is not None and (balls[k] is None or steps < balls[k].steps_within(eps)):
                    balls[k] = ball
        again = np.any(ok & ~fits, axis=1)
        todo, need = todo[again], np.where(ok, need, 0.0)[again]
        reach[todo] = 1.01 * np.max(need, axis=1, initial=0.0)
    return balls
