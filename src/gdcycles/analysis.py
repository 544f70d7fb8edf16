"""Limit-behavior classification and parameter sweeps.

The centerpiece is ``detect_cycle``: given a trajectory's dense tail it finds
the smallest period k whose last two k-windows agree to a relative tolerance,
classifying the run as a fixed point, a period-k cycle, or undetermined.
``bifurcation_sweep`` scans a step-size grid with multi-scale random
initializations; ``basin_raster`` maps which attractor each starting point
reaches; ``psd`` turns loss tails into a periodogram; ``sharpness_series``
tracks the top Hessian eigenvalue along a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .certify import trap_balls
from .dynamics import (
    StepWork,
    Trajectory,
    _final_states,
    _lyapunov_from_states,
    _state_blocks,
    orbit_multiplier,
    step_many,
)
from .losses import sigmoid
from .objective import Objective, diverged, lambda_max

__all__ = [
    "CycleReport",
    "check_cycle_args",
    "detect_cycle",
    "PsdResult",
    "check_psd_window",
    "psd",
    "SweepCell",
    "BifurcationSweep",
    "DEFAULT_SCALES",
    "bifurcation_sweep",
    "BasinRaster",
    "check_raster",
    "basin_raster",
    "sharpness_series",
    "trajectory_to_csv",
    "sweep_to_csv",
    "psd_to_csv",
    "raster_to_pgm",
    "raster_header",
]

DEFAULT_CYCLE_TOL = 1e-8
DEFAULT_K_MAX = 2048
DEFAULT_SCALES = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)

LABEL_OTHER = 0
LABEL_TO_CYCLE = 1
LABEL_TO_FIXED_POINT = 2
_PGM_VALUES = {LABEL_OTHER: 0, LABEL_TO_CYCLE: 128, LABEL_TO_FIXED_POINT: 255}


@dataclass(frozen=True)
class CycleReport:
    """Classification of a trajectory's limit behavior.

    kind is "fixed_point", "cycle", or "undetermined"; period is 1 for a
    fixed point, k > 1 for a cycle, 0 when undetermined.  residual is the
    worst relative mismatch between the last two period-windows; multiplier
    is the spectral radius of the Jacobian product along the orbit; lyapunov
    is the mean log expansion rate over the last ``tail_window`` states.
    """

    kind: str
    period: int
    orbit: np.ndarray
    residual: float
    multiplier: float
    lyapunov: float


def _window_residual(tail: np.ndarray, k: int) -> float:
    last = tail[-k:]
    prev = tail[-2 * k:-k]
    diffs = np.max(np.abs(last - prev), axis=1)
    scale = 1.0 + np.max(np.abs(last), axis=1)
    return float(np.max(diffs / scale))


def check_cycle_args(k_max: int, tol: float = DEFAULT_CYCLE_TOL) -> None:
    """Raise ValueError unless ``k_max`` >= 1 and ``tol`` is positive and
    finite: with either out of range no period can be found, and
    ``detect_cycle`` would report "undetermined" for any orbit."""
    if not k_max >= 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def detect_cycle(
    obj: Objective,
    traj: Trajectory,
    tol: float = DEFAULT_CYCLE_TOL,
    k_max: int = DEFAULT_K_MAX,
) -> CycleReport:
    """Find the smallest period k <= k_max closing the dense tail to ``tol``.

    The residual for candidate k compares the final k iterates with the k
    before them, sup-norm, relative to 1 + the iterate magnitude.  Scanning k
    upward guarantees minimality: every smaller k, its divisors included, has
    already failed to close the window.

    The scan runs the full residual only for the k whose last-row term,
    max|w_T - w_{T-k}| / (1 + max|w_T|), is below ``tol``; all k_max terms
    come from one array operation.  That term is one entry of the residual's
    maximum, computed with the same float operations, so every skipped k has
    a residual of at least ``tol`` (or NaN) and the k found is still the
    smallest that closes.

    ``lyapunov`` is estimated over the last ``traj.tail_window`` states of
    the dense tail, so it does not depend on the recording policy or on how
    long the transient before that window lasted.
    """
    check_cycle_args(k_max, tol)
    tail = traj.dense_tail()
    if len(tail) < 2 * k_max:
        raise ValueError(
            f"dense tail has {len(tail)} iterates, need >= {2 * k_max} for k_max={k_max}"
        )
    eta = traj.eta
    found = 0
    residual = float("nan")
    last = tail[-1]
    before = tail[-1 - k_max:-1][::-1]          # row k - 1 is w_{T-k}
    terms = np.max(np.abs(last - before), axis=1) / (1.0 + np.max(np.abs(last)))
    for k in (np.flatnonzero(terms < tol) + 1).tolist():
        r = _window_residual(tail, k)
        if r < tol:
            found, residual = k, r
            break

    lyap = _lyapunov_from_states(obj, tail[max(0, len(tail) - traj.tail_window):], eta)
    if found == 0:
        return CycleReport("undetermined", 0, tail[:0], float("nan"), float("nan"), lyap)

    orbit = tail[-found:].copy()
    if found == 1:
        mult = orbit_multiplier(obj, orbit, eta)
        return CycleReport("fixed_point", 1, orbit, residual, mult, lyap)

    # a genuine cycle visits k pairwise-distinct points
    scale = 1.0 + np.max(np.abs(orbit))
    for i in range(found):
        d = np.max(np.abs(orbit[i + 1:] - orbit[i]), axis=1) if i + 1 < found else np.array([np.inf])
        if np.min(d) < tol * scale:
            return CycleReport("undetermined", 0, tail[:0], float("nan"), float("nan"), lyap)
    mult = orbit_multiplier(obj, orbit, eta)
    return CycleReport("cycle", found, orbit, residual, mult, lyap)


# ---------------------------------------------------------------------------
# Power spectral density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdResult:
    freqs: np.ndarray   # cycles per iteration, in [0, 0.5]
    power: np.ndarray   # one-sided, sums to the window variance


def check_psd_window(window: int) -> None:
    """Raise ValueError unless ``window`` is a power of two of at least 2."""
    if window < 2 or (window & (window - 1)) != 0:
        raise ValueError(f"window must be a power of two, got {window}")


def psd(losses: Sequence[float], window: int = 1024) -> PsdResult:
    """Mean-removed one-sided periodogram of the last ``window`` samples.

    ``window`` must be a power of two no longer than the sequence.  The
    normalization conserves energy: sum(power) equals the variance of the
    mean-removed window (Parseval).
    """
    losses = np.asarray(losses, dtype=float)
    check_psd_window(window)
    if window > len(losses):
        raise ValueError(f"window {window} longer than sequence of {len(losses)}")
    x = losses[-window:]
    x = x - x.mean()
    spec = np.fft.rfft(x)
    power = (spec.real**2 + spec.imag**2) / (window * window)
    power[1:-1] *= 2.0  # fold the conjugate half in; DC and Nyquist are unique
    freqs = np.arange(window // 2 + 1) / window
    return PsdResult(freqs, power)


# ---------------------------------------------------------------------------
# Bifurcation sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    eta: float
    init_index: int
    final_losses: np.ndarray          # distinct tail losses, ascending
    scaled_sharpness: float           # eta * lambda_max(H(w_T)) / 2
    diverged: bool
    final_pn: Optional[np.ndarray] = None


@dataclass(frozen=True)
class BifurcationSweep:
    eta_grid: np.ndarray
    cells: tuple                      # eta-major, init-minor
    seed: int
    scales: tuple
    n_inits: int
    row_steps: int                    # cell-steps taken, at most len(cells) * T

    def cells_at(self, eta_index: int):
        return self.cells[eta_index * self.n_inits:(eta_index + 1) * self.n_inits]


def _dedup(values: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Collapse near-equal values (relative tolerance) to one representative."""
    vals = np.sort(np.asarray(values, dtype=float))
    vals = vals[np.isfinite(vals)]
    if len(vals) == 0:
        return vals
    # an exact repeat always collapses into the representative before it;
    # Python floats run the comparison faster than numpy scalars, with the
    # same binary64 arithmetic
    vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))].tolist()
    out = [vals[0]]
    for v in vals[1:]:
        if abs(v - out[-1]) > rtol * max(1.0, abs(v), abs(out[-1])):
            out.append(v)
    return np.array(out)


# A sweep's transient stack holds at most this many floats in each buffer of
# its StepWork and in each of its arrays of states (the stack, the states
# written out, the repeat check's reference), and a tail block's two
# buffers at most this many each (512 KiB), its recorded states when it is
# closed d times as many, so the sweep's memory does not grow with the grid.
_SWEEP_BLOCK_FLOATS = 2**16


def bifurcation_sweep(
    obj: Objective,
    eta_grid: Sequence[float],
    n_inits: int,
    scales: Sequence[float] = DEFAULT_SCALES,
    T: int = 10_000,
    seed: int = 0,
    tail: int = 1024,
    pn_group: Optional[int] = None,
) -> BifurcationSweep:
    """Run GD for every (step size, initialization) pair and record the
    distinct tail losses plus the scaled sharpness at the final iterate.

    Initializations are scale * standard-normal draws, the scales cycled
    across init indices, all deterministic from ``seed`` and shared across
    step sizes.  Divergence is recorded per cell, never raised.  The grid
    must be a nonempty 1-D sequence of positive, finite, strictly ascending
    step sizes, and ``scales`` a nonempty sequence of finite values.

    The pairs are stepped as (etas, n_inits, d) stacks with one step size
    per layer, in two phases:

    - the transient, steps 1 .. T - tail, records nothing, so it steps as
      many step sizes at once as fit 2**16 floats in each buffer of one
      StepWork (at least one step size), through ``dynamics._final_states``.
      That checks every cell for a byte repeat, keeps the period p of each
      cell that repeats, writes its state at T - tail out at the step whose
      phase matches, and drops a layer from the stack once all its cells
      are written.  The divergence guard marks each cell that crosses it
      after a step (once its layer leaves, a cell only repeats states
      already checked) and settles it, so ``_final_states`` writes it at
      once rather than stepping it on through inf to NaN; such a cell is
      zeroed at T - tail and after every tail step;
    - the tail, the last min(tail, T) steps, steps each transient stack in
      blocks of consecutive step sizes whose two tail buffers hold at most
      2**16 values each, or one step size's n_inits * min(tail, T) when
      that is more.  A block is closed when every cell of it still alive
      repeated in the transient and the largest period P is at most the
      tail: such a cell's tail runs through the p states after T - tail
      over and over, so the block steps and records only P steps, and each
      cell reports its first p values and, as its final state, the one at
      step (tail - 1) % p + 1.  Every other block steps the whole tail.

    Every matrix product runs on the same (n_inits, d) layers as a
    one-step-size sweep, so a cell does not depend on the grid around it:
    BLAS may round a row differently by its position in a product.  So
    every cell is bit for bit what stepping all T steps gives, and
    ``row_steps`` counts the cell-steps taken, at most len(cells) * T.

    ``pn_group`` optionally also records the distinct tail values of the
    probability p = sigma(-y_g w.x_g) for one dataset group; loss and
    sharpness are blind to symmetric two-point oscillations (the two points
    produce identical losses), and this probe is how those are made visible.
    """
    eta_grid = np.asarray(eta_grid, dtype=float)
    if eta_grid.ndim != 1 or len(eta_grid) == 0:
        raise ValueError(f"eta_grid must be a nonempty 1-D sequence, got shape {eta_grid.shape}")
    if not np.all(np.isfinite(eta_grid) & (eta_grid > 0.0)):
        raise ValueError(f"step sizes must be positive and finite, got {eta_grid}")
    if np.any(np.diff(eta_grid) <= 0.0):
        raise ValueError("eta_grid must be strictly ascending")
    if n_inits < 1 or T < 1 or tail < 1:
        raise ValueError(f"n_inits, T and tail must be positive, got {n_inits}, {T}, {tail}")
    scale_arr = np.asarray(scales, dtype=float)
    if scale_arr.ndim != 1 or len(scale_arr) == 0 or not np.all(np.isfinite(scale_arr)):
        raise ValueError(f"scales must be a nonempty sequence of finite values, got {scales}")
    A = obj._A
    if pn_group is not None and not 0 <= pn_group < len(A):
        raise ValueError(f"pn_group must index one of the {len(A)} dataset groups, "
                         f"got {pn_group}")
    rng = np.random.default_rng(seed)
    d = obj.dim
    inits = rng.standard_normal((n_inits, d)) * np.resize(scale_arr, n_inits)[:, None]
    tail_steps = min(tail, T)
    etas_per_block = max(1, _SWEEP_BLOCK_FLOATS // (tail_steps * n_inits))
    etas_per_stack = max(1, _SWEEP_BLOCK_FLOATS // (max(len(A), d) * n_inits))
    if etas_per_stack > etas_per_block:
        # whole tail blocks per stack, so only the grid's last block is short
        etas_per_stack -= etas_per_stack % etas_per_block

    wts = obj._wts
    loss = obj.loss
    pn_row = None if pn_group is None else A[pn_group]

    cells = []
    row_steps = 0
    for s_lo in range(0, len(eta_grid), etas_per_stack):
        stack_etas = eta_grid[s_lo:s_lo + etas_per_stack]
        shape = (len(stack_etas), n_inits)
        alive_stack = np.ones(shape, dtype=bool)

        def mark_diverged(W, layers):
            if diverged(W):
                gone = diverged(W, axis=-1)
                alive_stack[layers] &= ~gone
                return gone                # settled: retired from the transient
            return None

        W_stack, period_stack, taken = _final_states(
            obj, np.broadcast_to(inits, shape + (d,)), stack_etas[:, None, None],
            T - tail_steps, each_step=mark_diverged)
        row_steps += taken
        W_stack[~alive_stack] = 0.0        # frozen; excluded from reporting
        work = StepWork(obj, min(len(stack_etas), etas_per_block) * n_inits)
        for lo in range(0, len(stack_etas), etas_per_block):
            etas = stack_etas[lo:lo + etas_per_block]
            W, alive = W_stack[lo:lo + len(etas)], alive_stack[lo:lo + len(etas)]
            period = period_stack[lo:lo + len(etas)]
            # a cell that repeated in the transient takes its p tail values
            # in tail steps 1 .. p, and its state at T in step (tail - 1) % p + 1
            live = period[alive]
            P = int(live.max(initial=0))
            closed = bool(np.all(live > 0)) and P <= tail_steps
            steps = P if closed else tail_steps
            tail_losses = np.empty((steps,) + alive.shape)
            tail_pn = np.empty((steps,) + alive.shape) if pn_row is not None else None
            tail_states = np.empty((steps,) + W.shape) if closed else None
            eta_layers, dead = etas[:, None, None], ~alive
            frozen = bool(dead.any())
            for k in range(steps):
                step_many(obj, W, eta_layers, work=work, out=W)
                if diverged(W):
                    dead |= diverged(W, axis=-1)
                    frozen = True
                if frozen:
                    W[dead] = 0.0
                tail_losses[k] = loss.f(W @ A.T) @ wts
                if tail_pn is not None:
                    tail_pn[k] = sigmoid(W @ pn_row)
                if closed:
                    tail_states[k] = W
            row_steps += alive.size * steps
            for j, eta in enumerate(etas.tolist()):
                for i in range(n_inits):
                    if dead[j, i]:
                        cells.append(SweepCell(eta, i, np.array([]), float("nan"), True,
                                               np.array([]) if pn_row is not None else None))
                        continue
                    if closed:
                        p = int(period[j, i])
                        w_T = tail_states[(tail_steps - 1) % p, j, i]
                    else:
                        p, w_T = steps, W[j, i]
                    fl = _dedup(tail_losses[:p, j, i])
                    sharp = eta * lambda_max(obj.hessian(w_T)) / 2.0
                    fp = _dedup(tail_pn[:p, j, i]) if tail_pn is not None else None
                    cells.append(SweepCell(eta, i, fl, sharp, False, fp))
    return BifurcationSweep(eta_grid, tuple(cells), seed, tuple(scales), n_inits, row_steps)


# ---------------------------------------------------------------------------
# Basin of attraction raster
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasinRaster:
    bounds: tuple                 # (xmin, xmax, ymin, ymax)
    resolution: tuple             # (nx, ny)
    labels: np.ndarray            # (ny, nx), row j at y = ymin + (j+.5)dy
    eta: float
    w_star: np.ndarray
    orbit: np.ndarray
    row_steps: int                # GD row-steps taken, at most nx * ny * T
    stops: dict                   # cells that stopped "repeated", "trapped" or at the "horizon"


def check_raster(bounds, resolution, T: int):
    """The bounds and resolution of a basin raster as floats and ints;
    raise ValueError unless nx, ny and T are at least 1 and the bounds are
    finite with xmin < xmax and ymin < ymax."""
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    nx, ny = (int(v) for v in resolution)
    if nx < 1 or ny < 1 or T < 1:
        raise ValueError(f"nx, ny and T must be positive, got {nx}, {ny}, {T}")
    if not (np.isfinite([xmin, xmax, ymin, ymax]).all() and xmin < xmax and ymin < ymax):
        raise ValueError("bounds must be finite with xmin < xmax and ymin < ymax, "
                         f"got {(xmin, xmax, ymin, ymax)}")
    return (xmin, xmax, ymin, ymax), (nx, ny)


# Trap balls are tried at these multiples of the label tolerance, smallest
# first, up to the first that is refused or needs the whole horizon.
_TRAP_RADII = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
# The raster checks its cells against the trap balls every this many steps,
# at most this many cells at a time.
_TRAP_EVERY = 16
_TRAP_BLOCK_ROWS = 4096


def _trap_ladder(obj: Objective, eta: float, points: np.ndarray, tol: float, T: int) -> list:
    """(radius, steps) of each certified trap ball around ``points``, a
    periodic orbit, smallest first: a state within radius of an orbit point
    with at least ``steps`` steps to go ends within tol / 2 of the orbit."""
    ladder = []
    for ball in trap_balls(obj, eta, points, tol * np.asarray(_TRAP_RADII), tol / 2.0):
        steps = None if ball is None else ball.steps_within(tol / 2.0)
        if steps is None or steps >= T:
            break
        ladder.append((ball.radius, steps))
    return ladder


def _trap_check(attractors, T: int, trapped: np.ndarray):
    """The ``each_step`` hook of a raster that labels a cell once a trap
    ball holds it.  ``attractors`` is a list of (label, points, ladder);
    every ``_TRAP_EVERY`` steps, a cell within the largest radius of an
    attractor's ladder whose steps still fit before T is settled and its
    label written into ``trapped`` (indexed by cell), unless one is there.

    The squared distances are |w|^2 - 2 w.o + |o|^2, one matrix product
    per block of cells; a cell passes when that is at most r^2 less a
    margin for its rounding.  The margin covers cells with |w| < 2R, R the
    largest |o| plus radius, and a cell further out is further than R from
    every point, so it cannot pass."""
    points = np.vstack([pts for _, pts, _ in attractors])
    ends = np.cumsum([len(pts) for _, pts, _ in attractors])
    B = -2.0 * points                      # exact: a power of two
    oo = np.einsum("ij,ij->i", points, points)[:, None]
    R = float(np.sqrt(oo.max())) + max(ladder[-1][0] for _, _, ladder in attractors)
    margin = 32 * np.finfo(float).eps * (3.0 * R) ** 2
    buf = np.empty(_TRAP_BLOCK_ROWS * len(points))
    u = 0

    def settle(W, cells):
        nonlocal u
        u += 1
        if u % _TRAP_EVERY:
            return None
        # each attractor's largest radius whose steps fit before T
        thr = [max((r * r - margin for r, steps in ladder if steps <= T - u), default=0.0)
               for _, _, ladder in attractors]
        if max(thr) <= 0.0:
            return None
        label = np.full(len(W), -1, dtype=np.int8)
        for lo in range(0, len(W), _TRAP_BLOCK_ROWS):
            blk = W[lo:lo + _TRAP_BLOCK_ROWS]
            # one row per point, one column per cell
            D = np.matmul(B, blk.T, out=buf[:len(points) * len(blk)].reshape(len(points), -1))
            D += oo
            w2 = np.einsum("ij,ij->i", blk, blk)
            for (lab, pts, _), end, t in zip(attractors, ends, thr):
                if t > 0.0:
                    near = np.minimum.reduce(D[end - len(pts):end], axis=0)
                    label[lo:lo + len(blk)][near + w2 <= t] = lab
        hit = label >= 0
        if not hit.any():
            return None
        new = cells[hit]
        fresh = trapped[new] < 0
        trapped[new[fresh]] = label[hit][fresh]
        return hit

    return settle


def basin_raster(
    obj: Objective,
    eta: float,
    bounds,
    resolution,
    refs,
    T: int,
) -> BasinRaster:
    """Label each grid-cell center by the attractor GD reaches from it.

    ``refs`` is (w_star, orbit): a finite vector of shape (2,) and a
    nonempty finite (k, 2) array.  After T steps a cell is to_fixed_point
    if the final point lies within tol = 1e-6 * (1 + |w*|) of w*, to_cycle
    if within tol of any orbit point, and other if neither.

    A cell stops being stepped as soon as its label is known:

    - ``repeated``: once its bytes repeat, its state at T is known exactly;
      it is written out at the step whose phase matches T and leaves the
      batch (``dynamics._final_states``).  The batch never shrinks to one
      row, which numpy multiplies by a path that rounds differently, so
      every final state is bit for bit the one stepping all cells T times
      gives;
    - ``trapped``: every 16 steps, a cell inside a certified trap ball
      (``certify.trap_balls``) of w* or of the orbit taken in its order, from
      which the certificate bounds its distance at T below tol / 2, is
      labelled by that attractor and leaves.  Balls of 2 to 1024 times tol
      are tried, and a ball of radius r is used only from the step at which
      the bound from r holds at T.  The orbit's balls are not used when an
      orbit point lies within 2 tol of w*, where both labels could match;
    - ``horizon``: any other cell is stepped to T.

    So every label is the one stepping all cells T times gives.
    ``row_steps`` counts the row-steps taken and ``stops`` the cells that
    stopped each way.
    """
    if obj.dim != 2:
        raise ValueError("basin rasterization is defined for d=2 only")
    (xmin, xmax, ymin, ymax), (nx, ny) = check_raster(bounds, resolution, T)
    w_star, orbit = refs
    w_star = np.asarray(w_star, dtype=float)
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))
    if w_star.shape != (2,) or not np.all(np.isfinite(w_star)):
        raise ValueError(f"w_star must be a finite vector of shape (2,), got {w_star!r}")
    if orbit.ndim != 2 or orbit.shape[1] != 2 or len(orbit) == 0 \
            or not np.all(np.isfinite(orbit)):
        raise ValueError(f"orbit must be a nonempty finite (k, 2) array, got {orbit!r}")

    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    cx = xmin + (np.arange(nx) + 0.5) * dx
    cy = ymin + (np.arange(ny) + 0.5) * dy
    X, Y = np.meshgrid(cx, cy)               # (ny, nx)

    tol = 1e-6 * (1.0 + float(np.linalg.norm(w_star)))
    attractors = [(LABEL_TO_FIXED_POINT, w_star[None, :],
                   _trap_ladder(obj, eta, w_star[None, :], tol, T))]
    if np.min(np.linalg.norm(orbit - w_star, axis=1)) > 2.0 * tol:
        attractors.append((LABEL_TO_CYCLE, orbit, _trap_ladder(obj, eta, orbit, tol, T)))
    attractors = [a for a in attractors if a[2]]
    trapped = np.full(nx * ny, -1, dtype=np.int8)   # the label a trap ball gave
    W, period, row_steps = _final_states(
        obj, np.column_stack([X.ravel(), Y.ravel()]), eta, T,
        each_step=_trap_check(attractors, T, trapped) if attractors else None)

    # a written cell that rode along may have been trapped too; its state at
    # T labels it
    by_trap = (trapped >= 0) & (period == 0)
    labels = trapped.copy()
    stepped = ~by_trap
    Ws = W[stepped]
    d_star = np.linalg.norm(Ws - w_star, axis=1)
    d_orbit = np.min(
        np.linalg.norm(Ws[:, None, :] - orbit[None, :, :], axis=2), axis=1
    )
    own = np.full(len(Ws), LABEL_OTHER, dtype=np.int8)
    own[d_orbit < tol] = LABEL_TO_CYCLE
    own[d_star < tol] = LABEL_TO_FIXED_POINT
    labels[stepped] = own
    n_repeated, n_trapped = int(np.count_nonzero(period)), int(np.count_nonzero(by_trap))
    stops = {"repeated": n_repeated, "trapped": n_trapped,
             "horizon": nx * ny - n_repeated - n_trapped}
    return BasinRaster(
        (xmin, xmax, ymin, ymax), (nx, ny), labels.reshape(ny, nx),
        float(eta), w_star, orbit, row_steps, stops,
    )


# ---------------------------------------------------------------------------
# Sharpness along a trajectory
# ---------------------------------------------------------------------------

def sharpness_series(obj: Objective, traj: Trajectory, start: int = 0) -> np.ndarray:
    """lambda_max of the Hessian at each recorded iterate from ``start`` on.

    In 1D this is the closed form L''(w), one vectorized pass over the rows.
    In higher dimensions each row needs its own Hessian and ``lambda_max``
    (a power iteration for d >= 3), so on a closed orbit the value is
    computed once per phase present among the rows, at the first row of that
    phase, and copied to every later row of the phase whose iterate has the
    same bytes; any other row gets its own.  The result is the per-row one,
    bit for bit.
    """
    W = traj.iterates[start:]
    if obj.dim == 1:
        Z = W @ obj._A.T
        d2 = obj.loss.d2(Z)
        x2 = obj._A[:, 0] ** 2
        return (d2 * obj._wts) @ x2
    out = np.empty(len(W))
    for lo, hi, src in _state_blocks(traj.times[start:], traj.closed_at, traj.closed_period,
                                     (W,)):
        rows = np.arange(lo, hi)
        own = rows if src is None else rows[src == rows]
        out[own] = [lambda_max(obj.hessian(w)) for w in W[own]]
        if src is not None:
            out[rows] = out[src]
    return out


# ---------------------------------------------------------------------------
# Text emission (CSV / PGM)
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return format(float(v), ".17g")


# trajectory_to_csv formats this many rows per % operation, so the Python
# floats of a block stay small however long the trajectory.
_CSV_BLOCK_ROWS = 4096


def trajectory_to_csv(traj: Trajectory, sharpness: Optional[np.ndarray] = None,
                      include_w: bool = True) -> str:
    """One row per recorded iterate: t, loss, optionally w and sharpness.
    Values are written as ``_fmt`` writes them: '%.17g' % x gives the same
    text as format(x, '.17g'), -0, nan and inf included.

    Rows are formatted a block at a time, one % per block.  On a closed
    orbit the values after t are formatted once per phase, at the first row
    of that phase, and a later row whose values have the same bytes in every
    column is written as its t plus that text; any other row is formatted on
    its own, so the text is the per-row one for any input."""
    cols = ["t", "loss"]
    columns = [traj.losses]
    if include_w:
        cols += [f"w_{j + 1}" for j in range(traj.dim)]
        columns.append(traj.iterates)
    if sharpness is not None:
        cols.append("sharpness")
        columns.append(np.asarray(sharpness, dtype=float))
    values = ",%.17g" * (len(cols) - 1) + "\n"
    row = "%d" + values
    # grown in place block by block (CPython resizes a str that nothing else
    # holds): parts joined at the end would hold the text twice at its peak
    out = ",".join(cols) + "\n"
    times = traj.times
    suffix = {}         # row index -> its formatted values, for rows that others copy
    for lo, hi, src in _state_blocks(times, traj.closed_at, traj.closed_period, columns,
                                     rows=_CSV_BLOCK_ROWS):
        if src is None:
            block = np.column_stack([times[lo:hi]] + [c[lo:hi] for c in columns])
            out += row * len(block) % tuple(block.ravel().tolist())
            continue
        rows = np.arange(lo, hi)
        own = rows[src == rows]
        if len(own):
            block = np.column_stack([c[own] for c in columns])
            text = values * len(own) % tuple(block.ravel().tolist())
            suffix.update(zip(own.tolist(), text.splitlines(keepends=True)))
        # each row's t and shared text, interleaved for one %
        args = [None] * (2 * (hi - lo))
        args[0::2] = times[lo:hi].tolist()
        args[1::2] = map(suffix.__getitem__, src.tolist())
        out += "%d%s" * (hi - lo) % tuple(args)
    return out


def sweep_to_csv(sweep: BifurcationSweep) -> str:
    lines = ["eta,init_index,loss_value,scaled_sharpness,diverged"]
    for cell in sweep.cells:
        if cell.diverged:
            lines.append(f"{_fmt(cell.eta)},{cell.init_index},nan,nan,1")
            continue
        for lv in cell.final_losses:
            lines.append(
                f"{_fmt(cell.eta)},{cell.init_index},{_fmt(lv)},{_fmt(cell.scaled_sharpness)},0"
            )
    return "\n".join(lines) + "\n"


def psd_to_csv(res: PsdResult) -> str:
    lines = ["freq,power"]
    for f, p in zip(res.freqs, res.power):
        lines.append(f"{_fmt(f)},{_fmt(p)}")
    return "\n".join(lines) + "\n"


def raster_to_pgm(raster: BasinRaster) -> str:
    """ASCII PGM (P2), values 0=other, 128=to_cycle, 255=to_fixed_point.
    Rows are written top-down (largest y first)."""
    nx, ny = raster.resolution
    text = np.array([str(_PGM_VALUES[k]) for k in range(len(_PGM_VALUES))])
    lines = ["P2", f"{nx} {ny}", "255"]
    lines += map(" ".join, text[raster.labels[::-1]].tolist())
    return "\n".join(lines) + "\n"


def raster_header(raster: BasinRaster, gamma: Optional[float] = None) -> str:
    xmin, xmax, ymin, ymax = raster.bounds
    nx, ny = raster.resolution
    lines = [
        f"xmin {_fmt(xmin)}", f"xmax {_fmt(xmax)}",
        f"ymin {_fmt(ymin)}", f"ymax {_fmt(ymax)}",
        f"nx {nx}", f"ny {ny}",
        f"eta {_fmt(raster.eta)}",
    ]
    if gamma is not None:
        lines.append(f"gamma {_fmt(gamma)}")
    lines.append("w_star " + " ".join(_fmt(v) for v in raster.w_star))
    return "\n".join(lines) + "\n"
