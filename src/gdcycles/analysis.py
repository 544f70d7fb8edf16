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

from .dynamics import (
    Trajectory,
    _lyapunov_from_states,
    _state_blocks,
    orbit_multiplier,
    step_many,
)
from .losses import sigmoid
from .objective import DIVERGENCE_NORM, Objective, lambda_max

__all__ = [
    "CycleReport",
    "detect_cycle",
    "PsdResult",
    "check_psd_window",
    "psd",
    "SweepCell",
    "BifurcationSweep",
    "DEFAULT_SCALES",
    "bifurcation_sweep",
    "BasinRaster",
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

    ``lyapunov`` is estimated over the last ``traj.tail_window`` states of
    the dense tail, so it does not depend on the recording policy or on how
    long the transient before that window lasted.
    """
    tail = traj.dense_tail()
    if len(tail) < 2 * k_max:
        raise ValueError(
            f"dense tail has {len(tail)} iterates, need >= {2 * k_max} for k_max={k_max}"
        )
    eta = traj.eta
    found = 0
    residual = float("nan")
    for k in range(1, k_max + 1):
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


# A sweep block's two tail buffers hold at most this many floats each (512
# KiB), so the sweep's memory does not grow with the grid.
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
    step sizes.  Divergence is recorded per cell, never raised.

    The pairs are stepped together in blocks of consecutive step sizes, each
    block an (etas, n_inits, d) stack with one step size per layer, sized so
    that each tail buffer holds at most 2**16 values, or one step size's
    n_inits * min(tail, T) when that is more.  Every matrix product then
    runs on the same (n_inits, d) layers as a one-step-size sweep, so a cell
    does not depend on the grid around it: BLAS may round a row differently
    by its position in a product.

    ``pn_group`` optionally also records the distinct tail values of the
    probability p = sigma(-y_g w.x_g) for one dataset group; loss and
    sharpness are blind to symmetric two-point oscillations (the two points
    produce identical losses), and this probe is how those are made visible.
    """
    eta_grid = np.asarray(eta_grid, dtype=float)
    if np.any(np.diff(eta_grid) <= 0.0):
        raise ValueError("eta_grid must be strictly ascending")
    if n_inits < 1 or T < 1 or tail < 1:
        raise ValueError(f"n_inits, T and tail must be positive, got {n_inits}, {T}, {tail}")
    A = obj._A
    if pn_group is not None and not 0 <= pn_group < len(A):
        raise ValueError(f"pn_group must index one of the {len(A)} dataset groups, "
                         f"got {pn_group}")
    rng = np.random.default_rng(seed)
    d = obj.dim
    scale_arr = np.array([scales[i % len(scales)] for i in range(n_inits)])
    inits = rng.standard_normal((n_inits, d)) * scale_arr[:, None]
    tail_steps = min(tail, T)
    etas_per_block = max(1, _SWEEP_BLOCK_FLOATS // (tail_steps * n_inits))

    wts = obj._wts
    loss = obj.loss
    pn_row = None if pn_group is None else A[pn_group]

    cells = []
    for lo in range(0, len(eta_grid), etas_per_block):
        etas = eta_grid[lo:lo + etas_per_block]
        eta_layers = etas[:, None, None]
        shape = (len(etas), n_inits)
        W = np.broadcast_to(inits, shape + (d,))
        alive = np.ones(shape, dtype=bool)
        tail_losses = np.full((tail_steps,) + shape, np.nan)
        tail_pn = np.full((tail_steps,) + shape, np.nan) if pn_row is not None else None
        for t in range(1, T + 1):
            W = step_many(obj, W, eta_layers)
            with np.errstate(invalid="ignore"):
                bad = ~(np.max(np.abs(W), axis=2) <= DIVERGENCE_NORM)
            if np.any(bad & alive):
                alive &= ~bad
            if not np.all(alive):
                W[~alive] = 0.0  # frozen; excluded from reporting
            k = t - (T - tail_steps)
            if k >= 1:
                tail_losses[k - 1] = loss.f(W @ A.T) @ wts
                if tail_pn is not None:
                    tail_pn[k - 1] = sigmoid(W @ pn_row)
        for j, eta in enumerate(etas.tolist()):
            for i in range(n_inits):
                if not alive[j, i]:
                    cells.append(SweepCell(eta, i, np.array([]), float("nan"), True,
                                           np.array([]) if pn_row is not None else None))
                    continue
                fl = _dedup(tail_losses[:, j, i])
                sharp = eta * lambda_max(obj.hessian(W[j, i])) / 2.0
                fp = _dedup(tail_pn[:, j, i]) if tail_pn is not None else None
                cells.append(SweepCell(eta, i, fl, sharp, False, fp))
    return BifurcationSweep(eta_grid, tuple(cells), seed, tuple(scales), n_inits)


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


def basin_raster(
    obj: Objective,
    eta: float,
    bounds,
    resolution,
    refs,
    T: int,
) -> BasinRaster:
    """Label each grid-cell center by the attractor GD reaches from it.

    ``refs`` is (w_star, orbit).  After T steps a cell is to_fixed_point if
    the final point lies within 1e-6 * (1 + |w*|) of w*, to_cycle if within
    the same tolerance of any orbit point, and other if neither.
    """
    if obj.dim != 2:
        raise ValueError("basin rasterization is defined for d=2 only")
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    nx, ny = (int(v) for v in resolution)
    w_star, orbit = refs
    w_star = np.asarray(w_star, dtype=float)
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))

    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    cx = xmin + (np.arange(nx) + 0.5) * dx
    cy = ymin + (np.arange(ny) + 0.5) * dy
    X, Y = np.meshgrid(cx, cy)               # (ny, nx)
    W = np.column_stack([X.ravel(), Y.ravel()])
    for _ in range(T):
        W = step_many(obj, W, eta)

    tol = 1e-6 * (1.0 + float(np.linalg.norm(w_star)))
    d_star = np.linalg.norm(W - w_star, axis=1)
    d_orbit = np.min(
        np.linalg.norm(W[:, None, :] - orbit[None, :, :], axis=2), axis=1
    )
    labels = np.full(W.shape[0], LABEL_OTHER, dtype=np.int8)
    labels[d_orbit < tol] = LABEL_TO_CYCLE
    labels[d_star < tol] = LABEL_TO_FIXED_POINT
    return BasinRaster(
        (xmin, xmax, ymin, ymax), (nx, ny), labels.reshape(ny, nx),
        float(eta), w_star, orbit,
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
    lines = ["P2", f"{nx} {ny}", "255"]
    for j in range(ny - 1, -1, -1):
        lines.append(" ".join(str(_PGM_VALUES[int(v)]) for v in raster.labels[j]))
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
