"""The discrete GD map, trajectory generation, the probability-space
recurrence, and orbit stability diagnostics.

The map under study is T(w) = w - eta * grad L(w) with a constant step size.
Trajectories subsample their history but always keep a dense window of the
most recent iterates so that cycle detection and spectral analysis can see
consecutive steps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .losses import sigmoid, weighted_sigmoid
from .objective import Objective, Solution, diverged

__all__ = [
    "GDConfig",
    "Trajectory",
    "resolve_eta",
    "check_count",
    "gd_step",
    "StepWork",
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


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int, or ValueError unless it is an integer of at
    least ``least``: a float (even 2.0) or a bool is no count."""
    # numpy integers are Integral; bools are too, but no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass
class GDConfig:
    """Run configuration: start, length, step size and recording policy."""

    w0: np.ndarray
    max_iters: int
    eta: float
    record_every: int = 1
    tail_window: int = DEFAULT_TAIL_WINDOW

    def __post_init__(self):
        self.w0 = np.atleast_1d(np.asarray(self.w0, dtype=float))
        if not np.all(np.isfinite(self.w0)):
            raise ValueError(f"w0 must be finite, got {self.w0}")
        for name in ("max_iters", "record_every", "tail_window"):
            setattr(self, name, check_count(name, getattr(self, name)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded GD iterates.

    ``times`` holds the iteration index of each recorded row.  The final
    ``tail_window`` iterates are always recorded densely regardless of
    ``record_every``; ``dense_tail()`` returns that consecutive block.

    ``closed_at`` is the iteration t at which ``run`` found w_t equal, byte
    for byte, to w_{t-p} with p = ``closed_period``: the float orbit is
    periodic from there on, and every row from t + p on is a copy.  Both are
    None when no repeat was found within the horizon.
    """

    times: np.ndarray
    iterates: np.ndarray
    losses: np.ndarray
    eta: float
    diverged: bool
    record_every: int
    tail_window: int
    max_iters: int
    closed_at: Optional[int] = None
    closed_period: Optional[int] = None

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


class StepWork:
    """Preallocated buffers for ``step_many`` on up to ``rows`` states of
    ``obj``: the margins, the loss derivative and its scratch, the group
    weights repeated per row and the gradient.

    ``step_many`` views the first rows of each buffer in the shape of the
    batch it steps, and cuts new views only when that shape changes, so a
    batch that shrinks between steps keeps stepping in the same memory.
    After a step, ``margins`` holds the margins of the states stepped.

    ``At``, the operand of the margin product, is Aᵀ in one of two layouts,
    chosen by the product's shape.  When each product has two or more rows,
    as in an (n, d) batch or an (s, n, d) stack with n >= 2, it is a
    C-contiguous copy, which OpenBLAS multiplies three to four times faster
    than the F-ordered view ``obj._A.T``, with the same bits.  A 1-D state,
    a (1, d) batch and an (s, 1, d) stack keep the view: numpy multiplies
    them by a one-row path, on which the copy rounds some margins
    differently.

    ``product``, the function of the margin and gradient products, is
    ``np.dot`` for a 1-D state and ``np.matmul`` otherwise.  On a 1-D state
    both give the same bits, and ``np.dot`` takes about a third less time
    per product.  The one exception is a zero margin at d = 1, where each
    margin is one product: np.dot keeps the sign of a product that rounds
    to zero, and np.matmul adds it to +0.0.  Both shipped loss derivatives
    give -0.0 the bits of +0.0, so the step keeps its bits.

    ``one_state_wts``, the group weights as a list of Python floats, is set
    when ``obj``'s loss derivative is ``losses.sigmoid`` (None otherwise):
    it selects ``step_many``'s one-state branch and feeds its Python-float
    arithmetic.
    """

    def __init__(self, obj: Objective, rows: int):
        G, d = obj._A.shape
        self.obj = obj
        self._At_view = self.At = obj._A.T              # for one-row products
        self._At_rows = np.ascontiguousarray(self.At)   # for two rows or more
        self._At_rows.flags.writeable = False
        # repeated, the weights multiply the derivatives as one flat run of
        # floats; broadcast along rows of G, numpy loops G at a time
        self._bufs = (np.empty((rows, G)), np.empty((rows, G)), np.empty((rows, G)),
                      np.empty((rows, G)), np.empty((rows, d)))
        self._bufs[3][:] = obj._wts
        self.shape = None                  # the batch shape of the views below
        # a list, not a closure over self: a workspace is freed by reference
        # counting alone, without waiting for the cycle collector
        self.one_state_wts = obj._wts.tolist() if obj.loss.d1 is sigmoid else None

    def _fit(self, shape: tuple):
        """Cut the views for a batch of states of shape ``shape`` (W's shape
        without its last axis)."""
        n = int(np.prod(shape, dtype=np.intp))
        if n > len(self._bufs[0]):
            raise ValueError(f"a batch of {n} states exceeds the workspace's "
                             f"{len(self._bufs[0])}")
        self.margins, self.d1, self.scratch, self.wts, self.grad = (
            b[:n].reshape(shape + b.shape[1:]) for b in self._bufs)
        self.At = self._At_rows if shape and shape[-1] >= 2 else self._At_view
        self.product = np.matmul if shape else np.dot
        self.shape = shape


def step_many(obj: Objective, W: np.ndarray, eta: Union[float, np.ndarray], *,
              work: Optional[StepWork] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The GD map T(w) = w - eta * grad L(w) applied to each row of W, shape
    (m, d); a 1-D W is a single state, and an (s, m, d) W a stack of s
    batches whose products run layer by layer.  ``eta`` is one step size for
    every row, an (m, 1) column giving each row its own, or an (s, 1, 1)
    array giving each layer of a stack its own.

    Every intermediate is written into ``work``, a StepWork of ``obj`` with
    room for W's states, built afresh when not given; the new states go
    into ``out`` (which may be W itself) when given, else into a new array.
    With both, a step allocates no array.

    A 1-D W under the logistic loss (``obj.loss.d1`` is ``losses.sigmoid``,
    by identity) takes a branch of four numpy calls: the two products, and
    sigmoid's -|z| and exp in ``losses.weighted_sigmoid``.  The rest of the
    step rounds once per operation, so it is done on Python floats with the
    bits of the numpy form.  There ``eta`` is a real number (a float, a
    numpy float or a 0-d array) or a (d,) array giving each coordinate its
    own; a Python float is the fastest."""
    if work is None:
        work = StepWork(obj, W.size // W.shape[-1])
    elif work.obj is not obj:
        raise ValueError("the workspace was built for another objective")
    if W.ndim == 1 and work.one_state_wts is not None:
        if work.shape != ():
            work._fit(())
        Z = work.product(W, work.At, work.margins)
        grad = work.product(weighted_sigmoid(Z, work.one_state_wts, work.d1), obj._A, work.grad)
        if out is None:
            out = np.empty(W.shape)
        etas = (np.broadcast_to(eta, W.shape).tolist() if type(eta) is not float
                else [eta] * len(W))
        for j, (wj, gj, ej) in enumerate(zip(W.tolist(), grad.tolist(), etas)):
            out[j] = wj - ej * gj
        return out
    shape = W.shape[:-1]
    if work.shape != shape:
        work._fit(shape)
    # outputs are passed positionally: numpy parses keywords more slowly,
    # which shows on a one-state step
    Z = work.product(W, work.At, work.margins)  # margins per row
    P = obj.loss.d1(Z, out=work.d1, scratch=work.scratch)
    np.multiply(P, work.wts, P)
    grad = work.product(P, obj._A, work.grad)
    np.multiply(eta, grad, grad)
    return np.subtract(W, grad, out)


class _RepeatCheck:
    """Brent's byte-repeat check (BIT 20, 1980) on a batch of float states
    that all start at t = 0: the batched form of the check ``run`` makes on
    its one iterate.  The states, shape (..., d), are passed as their int64
    bit patterns, so that -0.0 and 0.0 differ and a NaN matches its own
    bytes.

    The states share the reference time r and its span, re-taken whenever
    t - r reaches the span (which then doubles), and each state keeps its
    own reference w_r.  A state whose bytes at time u are those of its w_r
    is periodic from r on with period u - r (the map is a pure function of
    a state's bits); ``period``, in the batch's shape, holds that period
    for each state, 0 for one that has not repeated.

    Each check compares the first coordinate of every state first.  Only
    when some state matches there does it compare the other coordinates
    and drop the states that repeated before, so a step on which no state
    can repeat costs two numpy calls.
    """

    def __init__(self, bits: np.ndarray):
        self.ref, self.r, self.span = bits.copy(), 0, 1
        self.period = np.zeros(bits.shape[:-1], dtype=np.int64)
        self.open = np.ones(bits.shape[:-1], dtype=bool)   # not repeated yet

    def __call__(self, bits: np.ndarray, u: int) -> Optional[np.ndarray]:
        """Check the states' bits at time u: the mask of the states that
        repeat for the first time, or None when none does.  Then the
        reference moves to u if its span is up."""
        ref = self.ref
        hit = bits[..., 0] == ref[..., 0]
        found = np.count_nonzero(hit)      # on a few rows a third of hit.any()'s cost
        if found:
            for j in range(1, bits.shape[-1]):  # coordinate by coordinate: np.all is slower
                hit &= bits[..., j] == ref[..., j]
            hit &= self.open
            found = np.count_nonzero(hit)
        if found:
            self.period[hit] = u - self.r
            self.open &= ~hit
        if u - self.r == self.span:
            self.ref, self.r, self.span = bits.copy(), u, 2 * self.span
        return hit if found else None

    def settle(self, states: np.ndarray):
        """Check the states that the mask ``states`` selects no more, and
        read their periods as 0."""
        self.open &= ~states
        self.period[states] = 0

    def keep(self, rows: np.ndarray):
        """Keep the entries of the batch's first axis that ``rows`` (a mask
        or ascending indices) selects only, as the batch keeps those entries
        only."""
        self.ref, self.period, self.open = self.ref[rows], self.period[rows], self.open[rows]


def _final_states(obj: Objective, W: np.ndarray, eta: Union[float, np.ndarray], T: int,
                  each_step: Optional[Callable[[np.ndarray, np.ndarray],
                                               Optional[np.ndarray]]] = None):
    """The states of W after T steps of the GD map, each bit for bit what
    stepping all of W T times gives; each state's float period (0 if its
    bytes did not repeat, or if it was settled); and the state-steps taken.

    W is an (n, d) batch, or an (s, n, d) stack whose layers each take their
    own step size from an (s, 1, 1) ``eta``.  A state whose bytes at time u
    repeat those of its reference w_r (``_RepeatCheck``) is periodic from r
    with period p = u - r, so it is written out at step u + (T - u) % p; an
    entry of the first axis (a row, a layer) leaves once all its states are
    written.  A row's step does not depend on the other rows of a batch of
    two or more, nor a layer's on the other layers, but a (1, d) batch goes
    down a product path that rounds differently, so the first axis never
    shrinks to one entry: a written entry rides along, stepped but unread.

    ``each_step(W, entries)``, when given, reads the states after every step
    and each entry's index in the first axis of the input.  It returns None,
    or a boolean mask in W's batch shape of the states it has settled: those
    not written yet are written out as they stand after that step, with
    period 0, are checked for repeats no more, and leave as written states
    do.  A settled state is not its state at T: the caller that settles it
    keeps what it knows of it.
    """
    W = np.array(W, dtype=float, order="C")   # a copy, with its bits viewed in place
    out = W.copy()
    period = np.zeros(W.shape[:-1], dtype=np.int64)
    entries = np.arange(len(W))            # each batch entry's index in W
    stop = np.full(W.shape[:-1], T)        # when each batch state is written
    todo = np.ones(W.shape[:-1], dtype=bool)   # not written yet
    repeats = _RepeatCheck(W.view(np.int64))
    first = T                              # the earliest stop of a state not written
    row_steps = 0
    work = StepWork(obj, W.size // W.shape[-1])   # re-cut by step_many as the batch shrinks
    for u in range(1, T + 1):
        W = step_many(obj, W, eta, work=work, out=W)
        row_steps += W.size // W.shape[-1]
        done = None if each_step is None else each_step(W, entries)
        if done is not None:
            done = done & todo
            repeats.settle(done)
        hit = repeats(W.view(np.int64), u)
        if hit is not None:
            stop[hit] = u + (T - u) % repeats.period[hit]
            first = min(first, int(stop[hit].min()))
        if u >= first:
            due = todo & (stop == u)
            done = due if done is None else done | due
        if done is None or not done.any():
            continue
        at = np.nonzero(done)
        out_at = (entries[at[0]],) + at[1:]
        out[out_at], period[out_at] = W[at], repeats.period[at]
        todo[at] = False
        keep = todo.any(axis=tuple(range(1, todo.ndim)))
        left = np.count_nonzero(keep)
        if left == 0:
            break
        if left == 1:
            keep[np.argmin(keep)] = True   # a written entry rides along
        keep = np.flatnonzero(keep)        # one index array serves every take below
        W, entries, stop, todo = (a[keep] for a in (W, entries, stop, todo))
        eta = eta[keep] if np.ndim(eta) else eta
        repeats.keep(keep)
        first = int(stop[todo].min())
    return out, period, row_steps


def gd_step(obj: Objective, w: np.ndarray, eta: float) -> np.ndarray:
    """One checked step of the GD map: eta must be positive and finite (as
    ``resolve_eta`` checks it) and the step finite."""
    out = step_many(obj, np.asarray(w, dtype=float), resolve_eta(eta))
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite GD step")
    return out


def run(obj: Objective, cfg: GDConfig) -> Trajectory:
    """Iterate the GD map for cfg.max_iters steps, recording per the config.

    Divergence (``objective.diverged``: sup-norm above 1e12, or NaN)
    truncates the run and sets the flag instead of raising: step-size
    sweeps must tolerate diverging cells.

    The loop only steps and keeps the recorded iterates.  After it, the
    losses are written into place by ``obj.value``'s unchecked sum, bit for
    bit ``obj.value`` of each state (the last may have diverged).

    The map is a pure function of the bits of w, so once an iterate repeats
    an earlier one byte for byte, the orbit is periodic from there on.  Each
    iterate is compared with a reference w_r, re-taken whenever t - r reaches
    a power of two (Brent, BIT 20, 1980).  When w_t repeats w_r, the run
    records ``closed_at = t`` and ``closed_period = t - r``, steps on for one
    period keeping those states, and, if that lands on the same bytes again,
    evaluates the loss of each of those p states once and fills every later
    recorded row by copying the state and loss of its phase.  The result is
    the one stepping to ``max_iters`` gives, bit for bit.
    """
    eta = resolve_eta(cfg.eta)
    T, every = cfg.max_iters, cfg.record_every
    # every record_every-th t before the dense tail, then every t to T
    dense_from_t = max(0, T - cfg.tail_window + 1)
    rec_times = np.concatenate((np.arange(0, dense_from_t, every),
                                np.arange(dense_from_t, T + 1)))

    w = cfg.w0.astype(float).copy()
    if w.shape != (obj.dim,):
        raise ValueError(f"w0 has shape {w.shape}, expected ({obj.dim},)")
    nxt = np.empty_like(w)                # step_many writes w_{t+1} here
    work = StepWork(obj, 1)

    iterates = np.empty((len(rec_times), obj.dim))
    n = 0
    rec_t = 0                             # the next time to record
    stepped = None                        # rows recorded by stepping, if filled
    escaped = False                       # the divergence guard stopped the run
    ref, r, span = w.tobytes(), 0, 1      # Brent's reference w_r and its span
    closed_at = period = cycle = None     # cycle: the states from closed_at on
    for t in range(T):
        step_many(obj, w, eta, work=work, out=nxt)
        if t == rec_t:
            iterates[n] = w
            n += 1
            # the next multiple of record_every, or the dense tail's next t
            rec_t = t + every if t + every < dense_from_t else max(t + 1, dense_from_t)
        if cycle is not None:
            cycle.append(w.copy())
        w, nxt = nxt, w
        if diverged(w):
            escaped = True
            break
        # bytes, not ==, which takes -0.0 for 0.0 (they print differently)
        if cycle is None:
            key = w.tobytes()
            if key == ref:
                closed_at, period, cycle = t + 1, t + 1 - r, []
            elif t + 1 - r == span:
                ref, r, span = key, t + 1, 2 * span
        elif len(cycle) == period:
            if w.tobytes() == ref:
                stepped, n = n, len(rec_times)
                break
            # the replay left the orbit: copy nothing, search afresh
            ref, r, span = w.tobytes(), t + 1, 1
            closed_at = period = cycle = None
    else:
        iterates[n] = w                   # T is in the dense tail
        n += 1

    losses = np.empty(n)
    stepped = n if stepped is None else stepped
    obj._loss_sum(obj.margins(iterates[:stepped]), out=losses[:stepped])
    if stepped < n:
        # the filled rows copy the states and losses of the cycle
        states = np.array(cycle)
        _fill_periodic(rec_times[stepped:], closed_at, (iterates[stepped:], states),
                       (losses[stepped:], obj._loss_sum(obj.margins(states))))

    return Trajectory(
        times=rec_times[:n],
        iterates=iterates[:n],
        losses=losses,
        eta=eta,
        diverged=escaped,
        record_every=cfg.record_every,
        tail_window=cfg.tail_window,
        max_iters=T,
        closed_at=closed_at,
        closed_period=period,
    )


# The phase work on a closed orbit goes over blocks of at most this many rows
# (128 KiB of phase indices), so its temporaries stay small however long the
# run.
_PHASE_BLOCK_ROWS = 2**14


def _orbit_phase(times: np.ndarray, closed_at: int, period: int) -> np.ndarray:
    """The phase (t - closed_at) mod period of each time t on a closed orbit:
    from ``closed_at`` on, the states at two times of one phase are the same
    bytes.  Taken from the times, not from row positions, so that it holds
    for any slice of a trajectory."""
    return (times - closed_at) % period


def _fill_periodic(times, start, *pairs):
    """Write the rows at ``times`` of an orbit that repeats from ``start``
    on: for each (out, values) pair, out's row at time s is the row of
    ``values`` at phase (s - start) mod len(values)."""
    period = len(pairs[0][1])
    for lo in range(0, len(times), _PHASE_BLOCK_ROWS):
        hi = lo + _PHASE_BLOCK_ROWS
        phase = _orbit_phase(times[lo:hi], start, period)
        for out, values in pairs:
            # "clip" is never applied (phase is in range) and, unlike
            # "raise", writes into ``out`` without a buffer
            np.take(values, phase, axis=0, out=out[lo:hi], mode="clip")


def _state_blocks(times: np.ndarray, closed_at: Optional[int], period: Optional[int],
                  columns, rows: int = _PHASE_BLOCK_ROWS):
    """Blocks (lo, hi, src) of at most ``rows`` of the rows at ``times``,
    which let a per-row consumer of a closed orbit work once per distinct
    state.

    ``src`` is None for a block whose rows lie before ``closed_at`` (or for
    every block when nothing closed): each row there is its own state.  From
    ``closed_at`` on, ``src[i]`` is the index of a row whose bytes in every
    one of ``columns`` (arrays with one row per time) equal those of row
    lo + i: the first row of its phase, or lo + i itself when that row is
    the first of its phase or its bytes differ.  So src[i] <= lo + i, and a
    consumer evaluates the rows with src[i] == lo + i and copies the rest.
    """
    n = len(times)
    k0 = n if closed_at is None else int(np.searchsorted(times, closed_at))
    for lo in range(0, k0, rows):
        yield lo, min(lo + rows, k0), None
    if k0 == n:
        return
    first = np.full(period, -1)             # each phase's first row, or -1
    for lo in range(k0, n, rows):
        hi = min(lo + rows, n)
        idx = np.arange(lo, hi)
        phase = _orbit_phase(times[lo:hi], closed_at, period)
        new = first[phase] < 0
        if new.any():
            # phases seen here for the first time: np.unique gives the
            # first row of each
            fresh, at = np.unique(phase[new], return_index=True)
            first[fresh] = idx[new][at]
        src = first[phase]
        for col in columns:
            same = np.all(_row_bits(col[lo:hi]) == _row_bits(col[src]), axis=1)
            src = np.where(same, src, idx)
        yield lo, hi, src


def _row_bits(rows: np.ndarray) -> np.ndarray:
    """The float64 bit patterns of each row, one row per line: comparing
    them tells -0.0 from 0.0 and matches a NaN with its own bytes."""
    rows = np.ascontiguousarray(rows, dtype=float)
    return rows.view(np.int64).reshape(len(rows), -1)


# ---------------------------------------------------------------------------
# Probability-space recurrence (logistic loss only)
# ---------------------------------------------------------------------------

def _require_logistic(obj: Objective):
    # by its derivative, as StepWork tells it, not by its name: any loss may
    # be named "logistic", and the logistic loss may go by another name
    if obj.loss.d1 is not sigmoid:
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
    iters = check_count("iters", iters, least=0)
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
    an orbit, a nonempty (k, d) array, at the absolute step size ``eta``
    (``resolve_eta`` checks it).  Below 1 the orbit is locally attracting;
    1 is neutral.  The Hessians come from one ``obj.hessian`` call on the
    orbit and are multiplied in orbit order, by the same matrix product at
    every d."""
    eta = resolve_eta(eta)
    orbit = np.atleast_2d(np.asarray(orbit, dtype=float))
    if orbit.shape[0] == 0:
        raise ValueError("orbit must be nonempty")
    m = np.eye(obj.dim)
    for jac in np.eye(obj.dim) - eta * obj.hessian(orbit):
        m = jac @ m
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _lyapunov_from_states(obj: Objective, states: np.ndarray, eta: float) -> float:
    """Mean log expansion rate of the GD map along consecutive states.

    The Hessians are built in one batch, ``obj.hessian``'s stack without its
    finiteness check (a state may be NaN here), each with the bits of that
    state's own Hessian.  In 1D the rate is the mean of
    log|1 - eta L''(w_t)|; in higher dimensions a unit tangent vector is
    pushed through the Jacobians I - eta H(w_t) with renormalization
    (Benettin et al., Meccanica 15, 1980).
    """
    H = obj._hessians(np.atleast_2d(states))                 # (n, d, d)
    d = obj.dim
    if d == 1:
        return float(np.mean(np.log(np.maximum(np.abs(1.0 - eta * H[:, 0, 0]), 1e-300))))
    v = np.ones(d) / np.sqrt(d)
    norms = np.empty(len(H))
    for i, h in enumerate(H):
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
    burn_in = check_count("burn_in", burn_in, least=0)
    if len(traj.iterates) < burn_in + 1000:
        raise ValueError("trajectory too short for the requested burn-in")
    return _lyapunov_from_states(obj, traj.iterates[burn_in:], eta)
