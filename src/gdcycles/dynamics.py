"""The discrete GD map, trajectory generation, the probability-space
recurrence, and orbit stability diagnostics.

The map under study is T(w) = w - eta * grad L(w) with a constant step size.
Trajectories subsample their history but always keep a dense window of the
most recent iterates so that cycle detection and spectral analysis can see
consecutive steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .losses import sigmoid
from .objective import DIVERGENCE_NORM, Objective, Solution

__all__ = [
    "GDConfig",
    "Trajectory",
    "resolve_eta",
    "gd_step",
    "step_many",
    "run",
    "probs_from_weights",
    "prob_step",
    "run_prob",
    "orbit_multiplier",
    "lyapunov",
]

DEFAULT_TAIL_WINDOW = 4096
_PROB_CLAMP_LO = 1e-300


def resolve_eta(
    eta: Optional[float] = None,
    gamma: Optional[float] = None,
    ref: str = "lambda",
    solution: Optional[Solution] = None,
) -> float:
    """Turn an absolute step size or a (gamma, reference) pair into eta.

    ref="lambda" gives gamma / lambda_star, ref="two-L" gives gamma * (2/L).
    """
    if (eta is None) == (gamma is None):
        raise ValueError("exactly one of eta and gamma must be given")
    if eta is None:
        if solution is None:
            raise ValueError("gamma-relative step sizes need a Solution")
        if ref == "lambda":
            eta = gamma / solution.lambda_star
        elif ref == "two-L":
            eta = gamma * solution.eta_two_L
        else:
            raise ValueError("ref must be 'lambda' or 'two-L'")
    eta = float(eta)
    if not np.isfinite(eta) or eta <= 0.0:
        raise ValueError(f"step size must resolve to a positive finite real, got {eta}")
    return eta


@dataclass
class GDConfig:
    """Run configuration: step-size spec, length, and recording policy."""

    w0: np.ndarray
    max_iters: int
    eta: Optional[float] = None
    gamma: Optional[float] = None
    ref: str = "lambda"
    record_every: int = 1
    tail_window: int = DEFAULT_TAIL_WINDOW

    def __post_init__(self):
        self.w0 = np.atleast_1d(np.asarray(self.w0, dtype=float))
        if not np.all(np.isfinite(self.w0)):
            raise ValueError(f"w0 must be finite, got {self.w0}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Recorded GD iterates.

    ``times`` holds the iteration index of each recorded row.  The final
    ``tail_window`` iterates are always recorded densely regardless of
    ``record_every``; ``dense_tail()`` returns that consecutive block.
    """

    times: np.ndarray
    iterates: np.ndarray
    losses: np.ndarray
    eta: float
    diverged: bool
    record_every: int
    tail_window: int
    max_iters: int

    @property
    def dim(self) -> int:
        return self.iterates.shape[1]

    def _dense_from(self) -> int:
        gaps = np.flatnonzero(np.diff(self.times) != 1)
        return int(gaps[-1]) + 1 if len(gaps) else 0

    def dense_tail(self) -> np.ndarray:
        """Longest consecutive-in-t block ending at the last iterate."""
        return self.iterates[self._dense_from():]

    def dense_tail_losses(self) -> np.ndarray:
        return self.losses[self._dense_from():]


def step_many(obj: Objective, W: np.ndarray, eta: Union[float, np.ndarray]) -> np.ndarray:
    """The GD map T(w) = w - eta * grad L(w) applied to each row of W, shape
    (m, d); a 1-D W is a single state, and an (s, m, d) W a stack of s
    batches whose products run layer by layer.  ``eta`` is one step size for
    every row, an (m, 1) column giving each row its own, or an (s, 1, 1)
    array giving each layer of a stack its own."""
    Z = W @ obj._A.T                       # margins per row
    P = obj.loss.d1(Z) * obj._wts
    return W - eta * (P @ obj._A)


def gd_step(obj: Objective, w: np.ndarray, eta: float) -> np.ndarray:
    """One checked step of the GD map: eta must be positive and the step
    finite."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    out = step_many(obj, np.asarray(w, dtype=float), eta)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite GD step")
    return out


def run(obj: Objective, cfg: GDConfig, solution: Optional[Solution] = None) -> Trajectory:
    """Iterate the GD map for cfg.max_iters steps, recording per the config.

    Divergence (sup-norm above 1e12) truncates the run and sets the flag
    instead of raising: step-size sweeps must tolerate diverging cells.

    The loop only steps; it keeps the margins of each recorded iterate, and
    the losses are evaluated from them after the loop, block by block, each
    row's loss bit-identical to ``obj.value``.
    """
    eta = resolve_eta(cfg.eta, cfg.gamma, cfg.ref, solution)
    T = cfg.max_iters
    dense_from_t = max(0, T - cfg.tail_window + 1)
    t_all = np.arange(T + 1)
    rec_mask = (t_all % cfg.record_every == 0) | (t_all >= dense_from_t)
    rec_times = t_all[rec_mask]

    A = obj._A
    At = A.T            # a view: a contiguous copy rounds 2-D steps differently
    wts = obj._wts
    d1 = obj.loss.d1
    w = cfg.w0.astype(float).copy()
    if w.shape != (obj.dim,):
        raise ValueError(f"w0 has shape {w.shape}, expected ({obj.dim},)")

    iterates = np.empty((len(rec_times), obj.dim))
    margins = np.empty((len(rec_times), len(A)))
    rec = rec_mask.tolist()
    n = 0
    diverged = False
    for t in range(T):
        z = A @ w
        if rec[t]:
            iterates[n] = w
            margins[n] = z
            n += 1
        w = w - eta * (At @ (wts * d1(z)))
        if np.abs(w).max() > DIVERGENCE_NORM:
            diverged = True
            break
    else:
        if rec[T]:
            iterates[n] = w
            margins[n] = A @ w
            n += 1

    return Trajectory(
        times=rec_times[:n],
        iterates=iterates[:n],
        losses=_losses_from_margins(obj, margins[:n]),
        eta=eta,
        diverged=diverged,
        record_every=cfg.record_every,
        tail_window=cfg.tail_window,
        max_iters=T,
    )


# The loss is evaluated over blocks of at most this many margins (128 KiB),
# so its temporaries stay small however long the run.
_LOSS_BLOCK_FLOATS = 2**14


def _losses_from_margins(obj: Objective, Z: np.ndarray) -> np.ndarray:
    """The objective at each row of margins.  Each row is summed by its own
    dot product, as ``obj.value`` does: one matrix-vector product over the
    block rounds some rows differently."""
    wts = obj._wts
    out = np.empty(len(Z))
    rows = max(1, _LOSS_BLOCK_FLOATS // Z.shape[1])
    for lo in range(0, len(Z), rows):
        F = obj.loss.f(Z[lo:lo + rows])
        out[lo:lo + len(F)] = [wts @ f for f in F]
    return out


# ---------------------------------------------------------------------------
# Probability-space recurrence (logistic loss only)
# ---------------------------------------------------------------------------

def _require_logistic(obj: Objective):
    if obj.loss.name != "logistic":
        raise TypeError("the probability-space recurrence is specific to the logistic loss")


def probs_from_weights(obj: Objective, w: np.ndarray) -> np.ndarray:
    """Per-group probabilities p_i = sigma(-y_i w.x_i)."""
    _require_logistic(obj)
    return sigmoid(obj.margins(w))


def prob_step(obj: Objective, p: np.ndarray, eta: float) -> np.ndarray:
    """One step of the per-example probability recurrence,

        p'_i = sigma( logit(p_i) - (eta/N) y_i (sum_j c_j y_j p_j x_j) . x_i ).

    The update only touches the data through the group Gram matrix, which the
    objective caches.  Entries that have collapsed to exactly 0 or 1 make the
    logit overflow; clamp (see run_prob) before calling when iterating hard.
    """
    _require_logistic(obj)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    logit = np.log(p) - np.log1p(-p)
    drive = obj.gram @ (obj.ds.counts * p) / obj.ds.total_count
    return sigmoid(logit - eta * drive)


def run_prob(obj: Objective, p0: np.ndarray, eta: float, iters: int) -> np.ndarray:
    """Iterate prob_step, clamping into the representable open interval each
    step.  Returns the (iters+1, G) sequence including p0."""
    p = np.asarray(p0, dtype=float).copy()
    hi = 1.0 - np.finfo(float).epsneg  # largest float strictly below 1
    out = np.empty((iters + 1, len(p)))
    out[0] = p
    for t in range(1, iters + 1):
        p = np.clip(p, _PROB_CLAMP_LO, hi)
        p = prob_step(obj, p, eta)
        out[t] = p
    return out


# ---------------------------------------------------------------------------
# Orbit stability diagnostics
# ---------------------------------------------------------------------------

def orbit_multiplier(obj: Objective, orbit, eta: float) -> float:
    """Spectral radius of the product of GD-map Jacobians I - eta H(w) along
    an orbit.  Below 1 the orbit is locally attracting; 1 is neutral."""
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))
    if orbit.shape[0] == 0:
        raise ValueError("orbit must be nonempty")
    if obj.dim == 1:
        prod = 1.0
        for w in orbit:
            prod *= 1.0 - eta * float(obj.hessian(w)[0, 0])
        return abs(prod)
    m = np.eye(obj.dim)
    for w in orbit:
        m = (np.eye(obj.dim) - eta * obj.hessian(w)) @ m
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _lyapunov_from_states(obj: Objective, states: np.ndarray, eta: float) -> float:
    """Mean log expansion rate of the GD map along consecutive states.

    All curvatures come from one ``loss.d2`` call.  In 1D the rate is the
    mean of log|1 - eta L''(w_t)|; in higher dimensions a unit tangent vector
    is pushed through the Jacobians I - eta H(w_t) with renormalization
    (Benettin et al., Meccanica 15, 1980), over Hessians built in one batch.
    """
    states = np.atleast_2d(states)
    A = obj._A
    G, d = A.shape
    D = obj.loss.d2(states @ A.T) * obj._wts                 # weighted curvatures, (n, G)
    H = D @ (A[:, :, None] * A[:, None, :]).reshape(G, d * d)  # Hessians, (n, d*d)
    if d == 1:
        return float(np.mean(np.log(np.maximum(np.abs(1.0 - eta * H[:, 0]), 1e-300))))
    v = np.ones(d) / np.sqrt(d)
    norms = np.empty(len(H))
    for i, h in enumerate(H.reshape(-1, d, d)):
        v = v - eta * (h @ v)
        s = math.sqrt(v @ v)
        if s == 0.0:
            return -np.inf
        norms[i] = s
        v /= s
    return float(np.mean(np.log(norms)))


def lyapunov(obj: Objective, traj: Trajectory, eta: float, burn_in: int) -> float:
    """Average log expansion rate along a recorded trajectory, over every
    iterate after the first ``burn_in``.

    In 1D this is the mean of log|1 - eta L''(w_t)|; in higher dimensions a
    unit tangent vector is pushed through the Jacobians with
    renormalization.  The estimator is the one ``detect_cycle`` applies to
    the last ``tail_window`` states.  Requires dense recording so
    consecutive states are available.
    """
    if traj.record_every != 1:
        raise ValueError("lyapunov needs a densely recorded trajectory (record_every=1)")
    if len(traj.iterates) < burn_in + 1000:
        raise ValueError("trajectory too short for the requested burn-in")
    return _lyapunov_from_states(obj, traj.iterates[burn_in:], eta)
