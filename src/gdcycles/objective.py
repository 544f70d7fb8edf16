"""The weighted finite-sum classification objective and its minimizer.

L(w) = (1/N) * sum_i count_i * l(-y_i w.x_i)

with l a ScalarLoss.  Exposes value/gradient/Hessian, the largest Hessian
eigenvalue, and the three critical step sizes 2/L, 1/lambda, 2/lambda where
lambda is the top Hessian eigenvalue at the minimizer and L the global
smoothness constant l''(0) * lambda_max(second moment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, check_separable
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

# lambda_max's power iteration at d >= 3: the relative change of the Rayleigh
# quotient at which it stops, its cap on iterations, and the seed of its
# random start
POWER_TOL = 1e-12
POWER_MAX_ITERS = 10**5
POWER_SEED = 0

# The loss is summed over blocks of at most this many margins (128 KiB).
_LOSS_BLOCK_FLOATS = 2**14

# Up to this many coordinates, a Python loop over a 1-D state beats the two
# ufunc calls (0.5 against 2.6 us at one, 1.3 against 2.7 us at 16, 1.7
# against 1.6 us at 32, numpy 2.4 on a 2-core Xeon).
_GUARD_LOOP_MAX = 16


def diverged(w, axis=None):
    """The divergence guard: whether the sup-norm of w exceeds
    DIVERGENCE_NORM or is NaN.  One Python bool over all of w by default;
    with ``axis``, a bool array with one per slice along it (axis=-1: one
    per state of a batch).

    One ``np.abs`` and one ``np.maximum.reduce``, which propagates NaN, so a
    NaN coordinate counts as diverged.  A single 1-D state of at most
    _GUARD_LOOP_MAX coordinates (``minimize``'s, one guard per step) is
    answered from Python floats instead, at about a fifth of the cost at one
    coordinate; a NaN fails ``<=`` there too.  So is a state given as a list
    of Python floats, as ``run`` steps a logistic state.  An empty state
    raises ValueError either way."""
    if type(w) is not list:
        if axis is not None or w.ndim != 1 or len(w) > _GUARD_LOOP_MAX:
            within = np.maximum.reduce(np.abs(w), axis=axis) <= DIVERGENCE_NORM
            # `not` skips the ufunc call that `~` makes on a numpy bool
            return not within if axis is None else ~within
        w = w.tolist()
    if not w:
        raise ValueError("the divergence guard needs a nonempty state")
    # a plain loop: all() over a generator costs about twice as much
    for x in w:
        if not abs(x) <= DIVERGENCE_NORM:
            return True
    return False


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

    def _loss_sum(self, Z: np.ndarray, out=None):
        """sum_i (count_i/N) l(z_i) for margins Z of shape (G,) or (..., G),
        into ``out`` if given; unchecked, as ``run`` and the sweep hold states
        whose loss may overflow.  One ``np.vecdot`` per _LOSS_BLOCK_FLOATS
        margins calls a lone state's dot kernel on every row, with its bits;
        ``F @ wts`` or ``np.einsum`` over a block round some rows differently."""
        if Z.ndim == 1:
            return np.vecdot(self.loss.f(Z), self._wts)
        out = np.empty(Z.shape[:-1]) if out is None else out
        rows = max(1, _LOSS_BLOCK_FLOATS // (math.prod(Z.shape[1:]) or 1))
        for lo in range(0, len(Z), rows):
            np.vecdot(self.loss.f(Z[lo:lo + rows]), self._wts, out=out[lo:lo + rows])
        return out

    def value(self, w):
        """The objective at a state, shape (d,), as a float, or at each state
        of a stack, shape (..., d), as an array of shape (...), each entry
        bit for bit its state's own.  FloatingPointError if one is not finite."""
        v = self._loss_sum(self.margins(w))
        v = float(v) if v.ndim == 0 else v   # math.isfinite: 3 us less than numpy's
        if not (math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()):
            raise FloatingPointError(f"non-finite objective value at w={w!r}")
        return v

    def gradient(self, w) -> np.ndarray:
        z = self.margins(w)
        g = self._A.T @ (self._wts * self.loss.d1(z))
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient at w={w!r}")
        return g

    def _curvature_sum(self, c: np.ndarray) -> np.ndarray:
        """sum_i c_i a_i a_i^T over the rows a_i of A, for group weights c of
        shape (G,) or (..., G): shape (d, d) or (..., d, d), symmetrized.

        One ``np.matmul((A * c)^T, A)``, which multiplies each matrix of a
        stack as it multiplies a lone one, so each matrix has the bits of
        its own product.  The one place a weighted sum of outer products of
        A's rows is formed: the Hessian, the second moment and the trap
        balls' curvature bounds all read it."""
        h = np.matmul(np.swapaxes(self._A * c[..., None], -1, -2), self._A)
        return 0.5 * (h + np.swapaxes(h, -1, -2))

    def _hessians(self, W: np.ndarray) -> np.ndarray:
        """``hessian`` without its finiteness check, for a caller that reads
        non-finite states on purpose."""
        return self._curvature_sum(self._wts * self.loss.d2(self.margins(W)))

    def hessian(self, w) -> np.ndarray:
        """The Hessian sum_i (count_i/N) l''(a_i.w) a_i a_i^T of a state,
        shape (d,), or of each state of a stack, shape (..., d): shape
        (d, d) or (..., d, d), each matrix bit for bit the one its state
        gives alone.  FloatingPointError if any entry is not finite."""
        h = self._hessians(w)
        if not np.isfinite(h).all():
            raise FloatingPointError(f"non-finite Hessian at w={w!r}")
        return h

    @cached_property
    def second_moment(self) -> np.ndarray:
        """sum_i (count_i/N) x_i x_i^T (signs cancel, so A works in place of X)."""
        return self._curvature_sum(self._wts)

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
    """Minimizer report; the critical step sizes are functions of
    ``lambda_star`` and ``L_global``."""

    w_star: np.ndarray
    grad_norm: float
    lambda_star: float
    L_global: float
    iterations: int

    @property
    def eta_two_L(self) -> float:
        return 2.0 / self.L_global

    @property
    def eta_one_lambda(self) -> float:
        return self.eta_two_lambda / 2.0

    @property
    def eta_two_lambda(self) -> float:
        return 2.0 / self.lambda_star

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


def lambda_max(m: np.ndarray):
    """Largest (algebraic) eigenvalue of a symmetric matrix, shape (d, d),
    as a float, or of each matrix of a stack, shape (..., d, d), as an
    array of shape (...).

    d=1 reads the scalar and d=2 uses the trace/discriminant closed form,
    elementwise over a stack with the bits of one matrix; d>=3 runs shifted
    power iteration on each matrix with a random start drawn from
    POWER_SEED, until the Rayleigh quotient is stable to POWER_TOL relative,
    and raises PowerIterationError after POWER_MAX_ITERS iterations.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square, or a stack of square matrices")
    d = m.shape[-1]
    if d == 1:
        top = m[..., 0, 0]
    elif d == 2:
        mean = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
        top = mean + np.hypot(0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1])
    else:
        top = np.array([_power_iteration(b) for b in m.reshape(-1, d, d)])
        top = top.reshape(m.shape[:-2])
    return float(top) if m.ndim == 2 else top


def _power_iteration(m: np.ndarray) -> float:
    """lambda_max of one (d, d) symmetric matrix by shifted power iteration."""
    d = m.shape[0]
    # Shift by an upper bound on the spectral radius so the algebraically
    # largest eigenvalue also dominates in magnitude.
    shift = float(np.abs(m).sum(axis=1).max())
    if shift == 0.0:
        return 0.0
    b = m + shift * np.eye(d)
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lam = None
    for _ in range(POWER_MAX_ITERS):
        u = b @ v
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            lam = None
            continue
        lam_new = float(v @ u)
        v = u / nu
        if lam is not None and abs(lam_new - lam) <= POWER_TOL * max(1.0, abs(lam_new)):
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

    ``check_separable`` decides first, exactly, whether a finite minimizer
    exists: SeparableDataError unless the verdict is "non_separable", since
    on separable or weakly separable data the loss keeps falling along a
    witness direction.  Then DegenerateDataError when the feature second
    moment is rank deficient, in which case the minimizer is a whole
    subspace and weight-space iteration is the wrong representation.  Damped
    Newton then runs from w = 0 at every d, until the gradient norm is below
    ``tol``; ConvergenceError after NEWTON_MAX_STEPS steps, and
    SeparableDataError should the iterates still run away.
    """
    if not 0.0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be positive and finite, got {tol}")
    verdict = check_separable(obj.ds).verdict
    if verdict != "non_separable":
        raise SeparableDataError(
            f"dataset is {verdict.replace('_', ' ')}; the minimizer is at infinity"
        )
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
            if step is not None and np.isfinite(step).all():
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
    return Solution(w_star=w, grad_norm=grad_norm, lambda_star=lam, L_global=L,
                    iterations=iters)
