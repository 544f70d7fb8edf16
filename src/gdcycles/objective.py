"""The weighted finite-sum classification objective and its minimizer.

L(w) = (1/N) * sum_i count_i * l(-y_i w.x_i)

with l a ScalarLoss.  Exposes value/gradient/Hessian, the largest Hessian
eigenvalue, and the three critical step sizes 2/L, 1/lambda, 2/lambda where
lambda is the top Hessian eigenvalue at the minimizer and L the global
smoothness constant l''(0) * lambda_max(second moment).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .exceptions import (
    ConvergenceError,
    DegenerateDataError,
    PowerIterationError,
    SeparableDataError,
)
from .losses import ScalarLoss

__all__ = ["Objective", "Solution", "diverged", "lambda_max", "minimize"]

# sup-norm past which an iterate counts as diverged
DIVERGENCE_NORM = 1e12

# Newton steps before minimize raises ConvergenceError
NEWTON_MAX_STEPS = 500

# Up to this many coordinates, a Python loop over a 1-D state beats the two
# ufunc calls (0.5 against 2.6 us at one, 1.3 against 2.7 us at 16, 1.7
# against 1.6 us at 32, numpy 2.4 on a 2-core Xeon).
_GUARD_LOOP_MAX = 16


def diverged(w: np.ndarray, axis=None):
    """The divergence guard: whether the sup-norm of w exceeds
    DIVERGENCE_NORM or is NaN.  One Python bool over all of w by default;
    with ``axis``, a bool array with one per slice along it (axis=-1: one
    per state of a batch).

    One ``np.abs`` and one ``np.maximum.reduce``, which propagates NaN, so a
    NaN coordinate counts as diverged.  A single 1-D state of at most
    _GUARD_LOOP_MAX coordinates (``run``'s and ``minimize``'s, one guard per
    step) is answered from Python floats instead, at about a fifth of the
    cost at one coordinate; a NaN fails ``<=`` there too.  An empty state
    raises ValueError either way."""
    if axis is None and w.ndim == 1 and len(w) <= _GUARD_LOOP_MAX:
        if not len(w):
            raise ValueError("the divergence guard needs a nonempty state")
        # a plain loop: all() over a generator costs about twice as much
        for x in w.tolist():
            if not abs(x) <= DIVERGENCE_NORM:
                return True
        return False
    within = np.maximum.reduce(np.abs(w), axis=axis) <= DIVERGENCE_NORM
    # `not` skips the ufunc call that `~` makes on a numpy bool
    return not within if axis is None else ~within


class Objective:
    """Immutable pairing of a Dataset with a ScalarLoss.

    All evaluation methods are pure; instances can be shared freely across
    threads/processes.
    """

    def __init__(self, ds: Dataset, loss: ScalarLoss):
        self.ds = ds
        self.loss = loss
        # margins are z_i = -y_i w.x_i = (A w)_i
        self._A = -(ds.ys[:, None] * ds.xs)
        self._A.setflags(write=False)
        self._wts = ds.counts / ds.total_count
        self._wts.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.ds.dim

    def margins(self, w: np.ndarray) -> np.ndarray:
        """The margins A w of a state, shape (d,), or of each state of a stack,
        shape (..., d): one matrix-vector product per state, bit for bit
        ``A @ w`` (``W @ A.T`` rounds some rows differently)."""
        w = np.asarray(w, dtype=float)
        if w.ndim == 0:
            raise ValueError("margins need a state of shape (d,) or (..., d), not a scalar")
        return np.matmul(self._A, w[..., None])[..., 0]

    def value(self, w) -> float:
        v = float(self._wts @ self.loss.f(self.margins(w)))
        if not np.isfinite(v):
            raise FloatingPointError(f"non-finite objective value at w={w!r}")
        return v

    def gradient(self, w) -> np.ndarray:
        z = self.margins(w)
        g = self._A.T @ (self._wts * self.loss.d1(z))
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient at w={w!r}")
        return g

    def hessian(self, w) -> np.ndarray:
        z = self.margins(w)
        d = self._wts * self.loss.d2(z)
        h = (self._A * d[:, None]).T @ self._A
        if not np.all(np.isfinite(h)):
            raise FloatingPointError(f"non-finite Hessian at w={w!r}")
        return 0.5 * (h + h.T)

    @cached_property
    def second_moment(self) -> np.ndarray:
        """sum_i (count_i/N) x_i x_i^T (signs cancel, so A works in place of X)."""
        m = (self._A * self._wts[:, None]).T @ self._A
        return 0.5 * (m + m.T)

    @cached_property
    def global_smoothness(self) -> float:
        """L = l''(0) * lambda_max(second moment), the uniform Hessian bound."""
        return float(self.loss.d2(0.0)) * lambda_max(self.second_moment)

    @cached_property
    def gram(self) -> np.ndarray:
        """Group Gram matrix K[i,j] = y_i y_j x_i.x_j used by the
        probability-space recurrence."""
        yx = self.ds.ys[:, None] * self.ds.xs
        return yx @ yx.T


@dataclass(frozen=True)
class Solution:
    """Minimizer report with the critical step sizes."""

    w_star: np.ndarray
    grad_norm: float
    lambda_star: float
    L_global: float
    eta_two_L: float
    eta_one_lambda: float
    eta_two_lambda: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "w_star": [float(v) for v in np.atleast_1d(self.w_star)],
            "grad_norm": self.grad_norm,
            "lambda_star": self.lambda_star,
            "L_global": self.L_global,
            "eta_two_L": self.eta_two_L,
            "eta_one_lambda": self.eta_one_lambda,
            "eta_two_lambda": self.eta_two_lambda,
        }


def lambda_max(m: np.ndarray, tol: float = 1e-12, max_iters: int = 10**5, seed: int = 0) -> float:
    """Largest (algebraic) eigenvalue of a symmetric matrix.

    d=1 reads the scalar, d=2 uses the trace/discriminant closed form, and
    d>=3 runs shifted power iteration with a fixed-seed random start until
    the Rayleigh quotient is stable to ``tol`` relative.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    d = m.shape[0]
    if d == 1:
        return float(m[0, 0])
    if d == 2:
        mean = 0.5 * (m[0, 0] + m[1, 1])
        rad = float(np.hypot(0.5 * (m[0, 0] - m[1, 1]), m[0, 1]))
        return mean + rad

    # Shift by an upper bound on the spectral radius so the algebraically
    # largest eigenvalue also dominates in magnitude.
    shift = float(np.abs(m).sum(axis=1).max())
    if shift == 0.0:
        return 0.0
    b = m + shift * np.eye(d)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lam = None
    for _ in range(max_iters):
        u = b @ v
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            lam = None
            continue
        lam_new = float(v @ u)
        v = u / nu
        if lam is not None and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new - shift
        lam = lam_new
    raise PowerIterationError("power iteration hit its cap", (lam or 0.0) - shift)


def _min_eigenvalue_ratio(m: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(m)
    top = float(vals[-1])
    if top <= 0.0:
        return 0.0
    return float(vals[0]) / top


def minimize(obj: Objective, tol: float = 1e-12) -> Solution:
    """Find the unique finite minimizer of a non-separable objective.

    Damped Newton from w = 0 at every d, until the gradient norm is below
    ``tol``; ConvergenceError after NEWTON_MAX_STEPS steps.  Raises
    SeparableDataError when iterates run away (the usual symptom of separable
    data) and DegenerateDataError when the feature second moment is rank
    deficient, in which case the minimizer is a whole subspace and
    weight-space iteration is the wrong representation.
    """
    if not 0.0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be positive and finite, got {tol}")
    d = obj.dim
    if _min_eigenvalue_ratio(obj.second_moment) < 1e-12:
        raise DegenerateDataError(
            "feature second moment is rank deficient; minimizer is a subspace"
        )
    L = obj.global_smoothness

    w = np.zeros(d)
    mu = 0.0
    eye = np.eye(d)
    fw = obj.value(w)
    for iters in range(NEWTON_MAX_STEPS):
        g = obj.gradient(w)
        if float(np.linalg.norm(g)) < tol:
            break
        h = obj.hessian(w)
        while True:
            try:
                step = np.linalg.solve(h + mu * eye, -g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                trial = w + step
                ft = obj.value(trial)
                if ft <= fw:
                    w, fw = trial, ft
                    mu = 0.0 if mu <= 1e-12 else mu * 0.25
                    break
            mu = 1e-12 if mu == 0.0 else mu * 2.0
            if mu > 1e16:
                raise DegenerateDataError(
                    "Hessian singular beyond the damping floor"
                )
        if diverged(w):
            raise SeparableDataError(
                "divergence while minimizing; data likely separable or degenerate"
            )
    else:
        raise ConvergenceError(f"Newton did not reach tol={tol} in {NEWTON_MAX_STEPS} iterations")

    grad_norm = float(np.linalg.norm(obj.gradient(w)))
    lam = lambda_max(obj.hessian(w))
    if lam <= 0.0:
        raise DegenerateDataError("Hessian at the minimizer is not positive")
    two_lam = 2.0 / lam
    return Solution(
        w_star=w,
        grad_norm=grad_norm,
        lambda_star=lam,
        L_global=L,
        eta_two_L=2.0 / L,
        eta_one_lambda=two_lam / 2.0,
        eta_two_lambda=two_lam,
        iterations=iters,
    )
