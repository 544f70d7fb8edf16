"""The four benchmark workloads: inputs, set-up, one measured pass, checks.

Every workload calls the package the way ``gdcycles repro`` does, one
library pipeline call per result, and looks each function up through its
module at call time so that ``tracing.Tracer`` can time it.

Inputs are the checked-in recipes, embedded here so the benchmark does not
depend on where the package keeps its data files.  The seed picks the sweep
initializations and the basin grid offset, and permutes the task order of
``classify`` and ``construct``, whose inputs are otherwise fixed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import traceback
from pathlib import Path

import numpy as np

from gdcycles import analysis, construct, data, dynamics, objective

DEFAULT_SEED = 0

# name -> (compact dataset text, gamma, w0, expected kind, expected period)
RECIPES = {
    "period4_1d": ("250 1 1\n200 1 -1\n6 1 20\n", 1.9, [10.0], "cycle", 4),
    "period7_1d": ("250 1 1\n200 1 -1\n15 1 70\n", 1.5, [10.0], "cycle", 7),
    "period37_1d": ("200 1 1\n190 1 -1\n25 1 270\n", 1.4, [10.0], "cycle", 37),
    "period13_2d": ("500 1 1 0\n30 1 -1 0\n5 1 0 1\n1 1 0 -1\n7 1 45 -70\n10 1 7.5 50\n",
                    0.4, [15.0, 4.0], "cycle", 13),
    "chaotic_1d": ("250 1 1\n200 1 -1\n15 1 60\n", 1.5, [10.0], "undetermined", 0),
}
TOY_N2 = "1 1 1\n1 1 -1\n"
BASIN_2D = "160 1 1 0\n30 1 -1 0\n5 1 0 1\n1 1 0 -1\n7 1 45 -70\n10 1 7.5 50\n"

CLASSIFY_ITERS = 60_000        # the repro --quick horizon
CLASSIFY_K_MAX = 2048
CYCLE_TOL = 1e-8

SWEEP_GRID = np.round(np.arange(7.0, 10.0001, 0.05), 10)
SWEEP_INITS = 4
SWEEP_T = 4_000
SWEEP_PN_TOL = 1e-9

BASIN_GAMMA = 0.95
BASIN_W0 = [15.0, 4.0]
BASIN_BOUNDS = (-10.0, 30.0, -10.0, 30.0)
BASIN_RES = 128
BASIN_T = 4_000
BASIN_REF_ITERS = 8_192        # the period-13 orbit closes long before this
BASIN_MIN_SHARE = 0.01

EOS_RECIPE = construct.Recipe1D(m=250, n=200, x_big=20.0, b=6, gamma=1.9, w0=10.0)
EOS_K = 4
EOS_BASE_ITERS = 60_000
EOS_STACK_ITERS = 10_000
EOS_TAIL = 2_048
EOS_SPREAD_TOL = 1e-6
HUNT_GAMMA = 1.5
HUNT_ITERS = 40_000            # hunt_1d's own defaults, reused to verify its hit
HUNT_K_MAX = 256


# ---------------------------------------------------------------------------
# Tally and checks
# ---------------------------------------------------------------------------

class Tally:
    """Tasks attempted and failed, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.outputs = {}

    def task(self, label, fn):
        """Run one task; it fails if ``fn`` raises or returns problems."""
        try:
            problems = fn()
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        self.record(label, problems)

    def record(self, label, problems, tasks=1):
        """Count ``tasks`` attempted tasks, all failed if there are
        ``problems``.  tasks=0 records a check on a whole output of tasks
        already counted, which fails as one task."""
        self.attempted += tasks
        if problems:
            self.failed += max(tasks, 1)
            self.failures.extend(f"{label}: {p}" for p in problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@functools.cache
def golden():
    """SHA-256 of every emitted file at the seed commit, per workload."""
    return json.loads((Path(__file__).parent / "golden.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_outputs(workload, outputs, seed, tally):
    """Compare each emitted file's SHA-256 with the seed commit's; seeded
    workloads only have reference hashes at the default seed."""
    ref = golden()[workload]
    problems = []
    for name, text in outputs.items():
        digest = sha256(text)
        tally.outputs[name] = digest
        if ref["seeded"] and seed != DEFAULT_SEED:
            continue
        if ref["sha256"].get(name) != digest:
            problems.append(f"{name} sha256 {digest[:12]} differs from the seed commit's")
    return problems


def check_limit(name, rep):
    """A recipe's limit: its kind and period, a window residual below the
    cycle tolerance and an attracting multiplier; the chaotic recipe must be
    undetermined with a positive Lyapunov estimate.  The Lyapunov value is
    not checked tighter, since its estimator is due to change."""
    kind, period = RECIPES[name][3:]
    problems = []
    if (rep.kind, rep.period) != (kind, period):
        problems.append(f"got {rep.kind} period {rep.period}, expected {kind} period {period}")
    elif kind == "cycle":
        if not rep.residual < CYCLE_TOL:
            problems.append(f"residual {rep.residual:.3g} not below {CYCLE_TOL}")
        if not rep.multiplier < 1.0:
            problems.append(f"multiplier {rep.multiplier:.6g} not below 1")
    elif not rep.lyapunov > 0.0:
        problems.append(f"lyapunov {rep.lyapunov:.6g} not positive")
    return problems


def check_sweep_cell(cell):
    """Toy n=2 sweep: one probe value, the fixed point 1/2, below eta = 8;
    the two closed-form period-2 points above it."""
    if cell.diverged:
        return ["diverged"]
    pn = cell.final_pn
    if cell.eta < 8.0:
        want = np.array([0.5])
    elif cell.eta > 8.0:
        want = np.sort(construct.period2_points(cell.eta))
    else:
        return [] if np.all((pn > 0.0) & (pn < 1.0)) else [f"pn {pn} outside (0, 1)"]
    if len(pn) != len(want) or np.max(np.abs(pn - want)) > SWEEP_PN_TOL:
        return [f"pn {pn} at eta {cell.eta}, expected {want}"]
    return []


def check_basin(raster):
    """Both attractors must claim at least BASIN_MIN_SHARE of the cells."""
    problems = []
    for label, what in ((analysis.LABEL_TO_FIXED_POINT, "fixed point"),
                        (analysis.LABEL_TO_CYCLE, "cycle")):
        share = float(np.mean(raster.labels == label))
        if share < BASIN_MIN_SHARE:
            problems.append(f"{what} basin covers {share:.4f} of cells")
    return problems


def check_eos(sharp, eta):
    """Stacked sharpness constant along the tail and strictly above 2/eta."""
    problems = []
    spread = float(np.max(sharp) - np.min(sharp))
    if not spread < EOS_SPREAD_TOL:
        problems.append(f"sharpness spread {spread:.3g} not below {EOS_SPREAD_TOL}")
    if not float(np.min(sharp)) > 2.0 / eta:
        problems.append(f"sharpness min {float(np.min(sharp)):.9g} not above 2/eta {2.0 / eta:.9g}")
    return problems


def check_hunt(rep):
    if rep.kind != "cycle" or not rep.multiplier < 1.0:
        return [f"hunt_1d hit gives {rep.kind} with multiplier {rep.multiplier:.6g}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _solve(text, gamma, loss):
    obj = objective.Objective(data.parse_compact(text), loss)
    sol = objective.minimize(obj)
    return obj, sol, gamma / sol.lambda_star


def _order(names, seed):
    return [names[i] for i in np.random.default_rng(seed).permutation(len(names))]


def setup_classify(seed, loss):
    problems = {}
    for name, (text, gamma, w0, _, _) in RECIPES.items():
        obj, _, eta = _solve(text, gamma, loss)
        problems[name] = (obj, eta, np.array(w0))
    return {"seed": seed, "order": _order(list(RECIPES), seed), "problems": problems}


def classify_result(name, obj, eta, w0):
    """run -> detect_cycle -> psd -> CSVs for one recipe."""
    traj = dynamics.run(obj, dynamics.GDConfig(w0=w0, max_iters=CLASSIFY_ITERS, eta=eta))
    rep = analysis.detect_cycle(obj, traj, k_max=CLASSIFY_K_MAX)
    spec = analysis.psd(traj.dense_tail_losses())
    outputs = {
        f"{name}/trajectory.csv": analysis.trajectory_to_csv(traj),
        f"{name}/psd.csv": analysis.psd_to_csv(spec),
    }
    return rep, outputs


def classify_check(name, rep, outputs, seed, tally):
    return check_limit(name, rep) + check_outputs("classify", outputs, seed, tally)


def pass_classify(ctx):
    """Recipe limits classified."""
    tally = Tally()
    for name in ctx["order"]:
        obj, eta, w0 = ctx["problems"][name]
        tally.task(name, lambda: classify_check(
            name, *classify_result(name, obj, eta, w0), ctx["seed"], tally))
    return tally


def setup_sweep(seed, loss):
    obj = objective.Objective(data.parse_compact(TOY_N2), loss)
    return {"seed": seed, "obj": obj}


def pass_sweep(ctx):
    """(eta, init) cells of the repro --quick toy sweep."""
    tally = Tally()
    n_cells = len(SWEEP_GRID) * SWEEP_INITS
    try:
        sweep = analysis.bifurcation_sweep(ctx["obj"], SWEEP_GRID, n_inits=SWEEP_INITS,
                                           T=SWEEP_T, seed=ctx["seed"], pn_group=1)
        csv = analysis.sweep_to_csv(sweep)
    except Exception:
        tally.record("sweep", ["raised:\n" + traceback.format_exc()], tasks=n_cells)
        return tally
    sweep_check(sweep, csv, ctx["seed"], tally)
    return tally


def sweep_check(sweep, csv, seed, tally):
    for cell in sweep.cells:
        tally.record(f"eta {cell.eta} init {cell.init_index}", check_sweep_cell(cell))
    tally.record("sweep.csv", check_outputs("sweep", {"sweep.csv": csv}, seed, tally), tasks=0)


def setup_basin(seed, loss):
    obj, sol, eta = _solve(BASIN_2D, BASIN_GAMMA, loss)
    traj = dynamics.run(obj, dynamics.GDConfig(w0=np.array(BASIN_W0),
                                               max_iters=BASIN_REF_ITERS, eta=eta))
    rep = analysis.detect_cycle(obj, traj)
    if (rep.kind, rep.period) != ("cycle", 13):
        raise RuntimeError(f"basin reference run gives {rep.kind} period {rep.period}, not a 13-cycle")
    xmin, xmax, ymin, ymax = BASIN_BOUNDS
    cell = np.array([xmax - xmin, ymax - ymin]) / BASIN_RES
    ox, oy = np.random.default_rng(seed).uniform(-0.5, 0.5, 2) * cell
    return {"seed": seed, "obj": obj, "eta": eta, "refs": (sol.w_star, rep.orbit),
            "bounds": (xmin + ox, xmax + ox, ymin + oy, ymax + oy)}


def pass_basin(ctx):
    """Raster cells labelled by the attractor GD reaches from them."""
    tally = Tally()
    n_cells = BASIN_RES * BASIN_RES
    try:
        raster = basin_result(ctx)
        pgm = analysis.raster_to_pgm(raster)
    except Exception:
        tally.record("basin", ["raised:\n" + traceback.format_exc()], tasks=n_cells)
        return tally
    basin_check(raster, pgm, ctx["seed"], tally)
    return tally


def basin_result(ctx):
    return analysis.basin_raster(ctx["obj"], ctx["eta"], ctx["bounds"],
                                 (BASIN_RES, BASIN_RES), ctx["refs"], T=BASIN_T)


def basin_check(raster, pgm, seed, tally):
    tally.record("basin", [], tasks=raster.labels.size)
    tally.record("basin", check_basin(raster), tasks=0)
    tally.record("basin.pgm", check_outputs("basin", {"basin.pgm": pgm}, seed, tally), tasks=0)


def setup_construct(seed, loss):
    return {"seed": seed, "loss": loss, "order": _order(["eos", "hunt"], seed)}


def eos_task(loss, seed, tally):
    stacked, eta, w0 = construct.eos_demo(EOS_RECIPE, EOS_K, loss=loss, iters=EOS_BASE_ITERS)
    obj = objective.Objective(stacked, loss)
    traj = dynamics.run(obj, dynamics.GDConfig(w0=w0, max_iters=EOS_STACK_ITERS, eta=eta))
    start = max(0, len(traj.iterates) - EOS_TAIL)
    sharp = analysis.sharpness_series(obj, traj, start=start)
    tail = dataclasses.replace(traj, times=traj.times[start:], iterates=traj.iterates[start:],
                               losses=traj.losses[start:])
    csv = analysis.trajectory_to_csv(tail, sharpness=sharp, include_w=False)
    return check_eos(sharp, eta) + check_outputs(
        "construct", {"eos_sharpness.csv": csv}, seed, tally)


def hunt_task(loss):
    recipe = construct.hunt_1d(HUNT_GAMMA, x_big_range=(70.0,), b_range=(4, 15), loss=loss)
    ds, eta = construct.build_1d(recipe, loss)
    obj = objective.Objective(ds, loss)
    cfg = dynamics.GDConfig(w0=[recipe.w0], max_iters=HUNT_ITERS, eta=eta,
                            tail_window=2 * HUNT_K_MAX)
    return check_hunt(analysis.detect_cycle(obj, dynamics.run(obj, cfg), k_max=HUNT_K_MAX))


def pass_construct(ctx):
    """Constructions verified: the stacked sharpness-above-2/eta run and the
    recipe hunt_1d finds."""
    tally = Tally()
    tasks = {"eos": lambda: eos_task(ctx["loss"], ctx["seed"], tally),
             "hunt": lambda: hunt_task(ctx["loss"])}
    for name in ctx["order"]:
        tally.task(name, tasks[name])
    return tally


# name -> (set-up, pass, set-up repetitions per run)
WORKLOADS = {
    "classify": (setup_classify, pass_classify, 5),
    "sweep": (setup_sweep, pass_sweep, 5),
    "basin": (setup_basin, pass_basin, 3),
    "construct": (setup_construct, pass_construct, 5),
}
