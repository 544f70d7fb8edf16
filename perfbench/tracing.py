"""Per-layer tracing of gdcycles from outside the package.

The layers are the package modules.  Each is timed at its public functions:
the tracer swaps a timing wrapper in under the name the calling module looks
the function up by, wraps ``Objective.hessian`` on the class, and hands the
workloads a ``ScalarLoss`` whose ``f``/``d1``/``d2`` are timing wrappers.
Nothing inside the package changes.

Spans are aggregated in memory as they close: per span name the call count,
the busy (inclusive) time, the self time (busy time minus the time of spans
opened inside it) and a work count.  Per-span records are not kept: the
sweep workload alone makes ~300k loss calls per pass.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from gdcycles import analysis, construct, data, dynamics, objective
from gdcycles.losses import ScalarLoss

SPANS = (
    "losses",
    "data.parse",
    "data.check_separable",
    "objective.minimize",
    "objective.hessian",
    "objective.lambda_max",
    "dynamics.run",
    "dynamics.step_many",
    "analysis.detect_cycle",
    "analysis.psd",
    "analysis.bifurcation_sweep",
    "analysis.basin_raster",
    "analysis.sharpness_series",
    "analysis.emit",
    "construct.eos_demo",
    "construct.hunt_1d",
)

# (module, attribute, span): every place a workload or the package itself
# looks a traced function up.  Names a later version of the package drops are
# skipped, so the layer then reads as idle instead of breaking the benchmark.
_TARGETS = (
    (data, "parse_compact", "data.parse"),
    (construct, "check_separable", "data.check_separable"),
    (objective, "minimize", "objective.minimize"),
    (construct, "minimize", "objective.minimize"),
    (objective, "lambda_max", "objective.lambda_max"),
    (analysis, "lambda_max", "objective.lambda_max"),
    (dynamics, "run", "dynamics.run"),
    (construct, "run", "dynamics.run"),
    (dynamics, "step_many", "dynamics.step_many"),
    (analysis, "step_many", "dynamics.step_many"),
    (analysis, "detect_cycle", "analysis.detect_cycle"),
    (construct, "detect_cycle", "analysis.detect_cycle"),
    (analysis, "psd", "analysis.psd"),
    (analysis, "bifurcation_sweep", "analysis.bifurcation_sweep"),
    (analysis, "basin_raster", "analysis.basin_raster"),
    (analysis, "sharpness_series", "analysis.sharpness_series"),
    (analysis, "trajectory_to_csv", "analysis.emit"),
    (analysis, "psd_to_csv", "analysis.emit"),
    (analysis, "sweep_to_csv", "analysis.emit"),
    (analysis, "raster_to_pgm", "analysis.emit"),
    (construct, "eos_demo", "construct.eos_demo"),
    (construct, "hunt_1d", "construct.hunt_1d"),
)

# Operations per element of the logistic loss derivative, exp counted as one.
LOSS_D1_OPS = 6
# Closure rule behind dynamics.run.useful_frac, the same as detect_cycle's.
CLOSE_TOL = 1e-8
CLOSE_K_MAX = 2048


class Stat:
    __slots__ = ("calls", "busy", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.work = 0.0


def step_cost(groups: int, dim: int, rows: int):
    """(flops, bytes) one step_many call computes, counted from the code
    rather than measured.  Per row-step: two (G x d) products, the loss
    derivative, the weight multiply and the update.  Bytes: operands and
    results read or written once, margins and weighted derivatives written
    and read back, 8 bytes per float."""
    flops = rows * (4 * groups * dim + (LOSS_D1_OPS + 1) * groups + 2 * dim)
    nbytes = 8 * (2 * rows * dim + 2 * groups * dim + groups + 4 * rows * groups)
    return flops, nbytes


def closure_time(traj) -> int:
    """First recorded t from which the trajectory's dense tail stays closed:
    every later state matches the one a period before it to CLOSE_TOL,
    relative to 1 + its magnitude, for the smallest period that closes the
    final window.  A tail that never closes counts as wholly useful."""
    tail = traj.dense_tail()
    times = traj.times[len(traj.times) - len(tail):]
    scale = 1.0 + np.max(np.abs(tail), axis=1)
    for k in range(1, min(CLOSE_K_MAX, len(tail) // 2) + 1):
        last = np.max(np.abs(tail[-k:] - tail[-2 * k:-k]), axis=1) / scale[-k:]
        if last.max() < CLOSE_TOL:
            r = np.max(np.abs(tail[k:] - tail[:-k]), axis=1) / scale[k:]
            open_ = np.nonzero(r >= CLOSE_TOL)[0]
            return int(times[open_[-1] + 1]) if len(open_) else int(times[0])
    return int(traj.times[-1])


class Tracer:
    """Aggregates spans; ``installed()`` patches the package while active."""

    def __init__(self):
        self.stats = {name: Stat() for name in SPANS}
        self._stack = []          # child time accumulated per open span
        self.top_time = 0.0       # time of spans opened with none open
        self.flops = 0.0
        self.bytes = 0.0
        self.hunt_runs = 0
        self.hunt_hits = 0
        self.trajectories = []

    def wrap(self, name, fn, before=None, after=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(stat, args)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.top_time += dt
                stat.calls += 1
                stat.busy += dt
                stat.self_time += dt - child
            if after is not None:
                after(stat, args, out)
            return out

        return traced

    def loss(self, base: ScalarLoss) -> ScalarLoss:
        """The same loss with every evaluation traced as a ``losses`` span."""
        def count(stat, args):
            stat.work += np.size(args[0])
        return ScalarLoss(base.name, *(self.wrap("losses", fn, before=count)
                                       for fn in (base.f, base.d1, base.d2)))

    def _count_rows(self, stat, args):
        obj, W = args[0], args[1]
        rows = W.shape[0]
        stat.work += rows
        flops, nbytes = step_cost(obj.ds.n_groups, obj.dim, rows)
        self.flops += flops
        self.bytes += nbytes

    def _keep_run(self, stat, args, traj):
        self.trajectories.append(traj)
        stat.work += int(traj.times[-1])

    def _count_bytes(self, stat, args, text):
        stat.work += len(text)

    def _hunt_before(self, stat, args):
        self.hunt_runs -= self.stats["dynamics.run"].calls

    def _hunt_after(self, stat, args, recipe):
        self.hunt_runs += self.stats["dynamics.run"].calls
        self.hunt_hits += 1

    @contextlib.contextmanager
    def installed(self):
        hooks = {
            "dynamics.step_many": (self._count_rows, None),
            "dynamics.run": (None, self._keep_run),
            "analysis.emit": (None, self._count_bytes),
            "construct.hunt_1d": (self._hunt_before, self._hunt_after),
        }
        saved = []
        try:
            for module, attr, name in _TARGETS:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, *hooks.get(name, (None, None))))
            hessian = objective.Objective.hessian
            saved.append((objective.Objective, "hessian", hessian))
            objective.Objective.hessian = self.wrap("objective.hessian", hessian)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def metrics(self, units: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics per traced unit (one set-up plus one pass)."""
        st = self.stats
        per = 1.0 / units

        def ratio(a, b):
            return a / b if b else 0.0

        run, step = st["dynamics.run"], st["dynamics.step_many"]
        useful = sum(closure_time(t) for t in self.trajectories)
        out = {
            "losses.calls": (st["losses"].calls * per, "count"),
            "losses.elems_per_call": (ratio(st["losses"].work, st["losses"].calls), "elems"),
            "losses.busy_s": (st["losses"].busy * per, "s"),
            "objective.hessian.calls": (st["objective.hessian"].calls * per, "count"),
            "objective.hessian.busy_s": (st["objective.hessian"].busy * per, "s"),
            "objective.lambda_max.calls": (st["objective.lambda_max"].calls * per, "count"),
            "objective.lambda_max.busy_s": (st["objective.lambda_max"].busy * per, "s"),
            "objective.minimize.busy_s": (st["objective.minimize"].busy * per, "s"),
            "data.parse.busy_s": (st["data.parse"].busy * per, "s"),
            "data.check_separable.busy_s": (st["data.check_separable"].busy * per, "s"),
            "dynamics.run.calls": (run.calls * per, "count"),
            "dynamics.run.iters": (run.work * per, "iters"),
            "dynamics.run.us_per_iter": (ratio(run.busy * 1e6, run.work), "us"),
            "dynamics.run.useful_frac": (ratio(useful, run.work), "frac"),
            "dynamics.step_many.calls": (step.calls * per, "count"),
            "dynamics.step_many.rows_per_call": (ratio(step.work, step.calls), "rows"),
            "dynamics.step_many.ns_per_row_step": (ratio(step.busy * 1e9, step.work), "ns"),
            "dynamics.step_many.flops_computed": (self.flops * per, "flop"),
            "dynamics.step_many.bytes_computed": (self.bytes * per, "B"),
            "dynamics.step_many.ops_per_byte": (ratio(self.flops, self.bytes), "flop/B"),
            "analysis.sharpness_series.busy_s": (st["analysis.sharpness_series"].busy * per, "s"),
            "construct.eos_demo.busy_s": (st["construct.eos_demo"].busy * per, "s"),
            "construct.hunt_1d.busy_s": (st["construct.hunt_1d"].busy * per, "s"),
            "construct.hunt_1d.runs_per_hit": (ratio(self.hunt_runs, self.hunt_hits), "runs"),
            "analysis.emit.busy_s": (st["analysis.emit"].busy * per, "s"),
            "analysis.emit.bytes": (st["analysis.emit"].work * per, "B"),
        }
        for name in SPANS:
            out[f"{name}.self_s"] = (st[name].self_time * per, "s")
        out["bench.self_s"] = ((traced_s - self.top_time) * per, "s")
        out["trace.unit_s"] = (traced_s * per, "s")
        out["trace.overhead_frac"] = (ratio(traced_s * per, untraced_s), "frac")
        return out
