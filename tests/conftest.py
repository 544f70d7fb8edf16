"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the library's own code paths: eigenvalues
come from Jacobi rotations, minima from golden-section search, roots from
plain bisection, and derivatives from central finite differences.  Expected
values asserted in the tests are either computed by these oracles at runtime
or were frozen from them.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import gdcycles as g
from gdcycles.cli import _load_recipe

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def jacobi_eigenvalues(m: np.ndarray, sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """All eigenvalues of a symmetric matrix via classical Jacobi rotations."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def golden_section(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Minimizer of a unimodal scalar function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def bisect_root(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Root of a scalar function with a sign change on [lo, hi]."""
    flo = f(lo)
    assert flo * f(hi) < 0.0, "bracket must straddle a sign change"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def fd_gradient(f, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        out[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return out


def fd_jacobian(vec_f, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    cols = []
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        cols.append((vec_f(w + e) - vec_f(w - e)) / (2.0 * h))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Dataset factories
# ---------------------------------------------------------------------------


def random_nonseparable(rng, d: int, n_rows: int = 5):
    """Random dataset that is provably non-separable and keeps its minimizer
    at moderate norm: every feature row appears with both labels (unequal
    counts), so each row's margin pair conflicts and curvature never
    saturates away."""
    rows = rng.normal(size=(n_rows, d))
    xs = np.vstack([rows, rows])
    ys = np.concatenate([np.ones(n_rows, dtype=int), -np.ones(n_rows, dtype=int)])
    counts = rng.integers(1, 6, size=2 * n_rows)
    return g.Dataset(xs, ys, counts)


def random_1d_groups(rng, lo: float = 0.2, hi: float = 2.0):
    """Random 1D dataset with positive and negative features, labels +1."""
    k_pos = int(rng.integers(1, 4))
    k_neg = int(rng.integers(1, 4))
    xs, cs = [], []
    for _ in range(k_pos):
        xs.append([float(rng.uniform(lo, hi))])
        cs.append(int(rng.integers(1, 30)))
    for _ in range(k_neg):
        xs.append([-float(rng.uniform(lo, hi))])
        cs.append(int(rng.integers(1, 30)))
    return g.Dataset(np.array(xs), np.ones(len(xs), dtype=int), np.array(cs))


def admissible_1d(rng, loss, require_skew: bool = True):
    """Draw random 1D objectives until one satisfies the crossing-bound
    envelope: a clear sign at 0 and curvature at the minimizer bounded away
    from the peak curvature (near-balanced data can approach the minimizer
    from outside without ever entering the invariant ray, which makes entry
    time unbounded)."""
    while True:
        ds = random_1d_groups(rng)
        obj = g.Objective(ds, loss)
        try:
            sol = g.minimize(obj)
        except g.GDCyclesError:
            continue
        if not require_skew:
            return obj, sol
        g0 = abs(obj.gradient(np.zeros(1))[0])
        h0 = obj.hessian(np.zeros(1))[0, 0]
        if g0 >= 0.05 * h0 and sol.lambda_star <= 0.9 * h0:
            return obj, sol


# ---------------------------------------------------------------------------
# Expensive shared runs (session scope)
# ---------------------------------------------------------------------------

RECIPE_P4 = g.Recipe1D(250, 200, 20.0, 6, 1.9, 10.0)
RECIPE_P7 = g.Recipe1D(250, 200, 70.0, 15, 1.5, 10.0)
RECIPE_P37 = g.Recipe1D(200, 190, 270.0, 25, 1.4, 10.0)
RECIPE_CHAOS = g.Recipe1D(250, 200, 60.0, 15, 1.5, 10.0)
RECIPE_P13 = g.Recipe2D(500, 30, 5, 1, ((45.0, -70.0), 7), ((7.5, 50.0), 10),
                        0.4, (15.0, 4.0))
RECIPE_BASIN = g.Recipe2D(160, 30, 5, 1, ((45.0, -70.0), 7), ((7.5, 50.0), 10),
                          0.95, (15.0, 4.0))


@functools.cache
def stacked_period4():
    """The 4-fold stacked period-4 objective (d = 4), its step size and
    phase-offset w0, built as ``repro --quick`` builds them.  Its run
    closes bit for bit at t = 19 with period 4."""
    ds, eta, w0 = g.eos_demo(RECIPE_P4, 4, iters=60_000)
    return g.Objective(ds, g.logistic()), eta, w0


# A 2D dataset on which a huge step size walks the iterate out to the
# divergence guard over ~400 steps.
DIVERGING_2D = "3 1 -9 -6\n1 1 -7 -4\n4 1 6 4\n"


def closure_run(name, loss="logistic", record_every=1, tail_window=4096, T=10_000):
    """Objective and run of a checked-in recipe under ``loss``, of the
    stacked period-4 objective ("stacked", 2500 iterations: it closes at
    t = 19, and a short run keeps per-row checks cheap) or of a run that
    diverges ("diverging"); "<recipe>@open" stops one step before the
    recipe's orbit closes."""
    if name == "stacked":
        obj, eta, w0 = stacked_period4()
        T = 2_500
    elif name == "diverging":
        obj = g.Objective(g.parse_compact(DIVERGING_2D), g.get_loss(loss))
        eta, w0, T = 1e11, [0.0, 0.0], 5000
    else:
        base, spec = _load_recipe(name.split("@")[0])
        obj = g.Objective(base.ds, g.get_loss(loss))
        eta = g.resolve_eta(gamma=spec["gamma"], ref=spec["ref"], solution=g.minimize(obj))
        w0 = spec["w0"]
        if name.endswith("@open"):
            T = g.run(obj, g.GDConfig(w0=w0, max_iters=T, eta=eta)).closed_at - 1
    return obj, g.run(obj, g.GDConfig(w0=w0, max_iters=T, eta=eta, record_every=record_every,
                                      tail_window=tail_window))


def slice_starts(traj):
    """Row offsets at which to cut ``traj``: the whole run, a row before
    closed_at and, for a closed run, the first row at closed_at and a row
    well after it."""
    n = len(traj.times)
    if traj.closed_at is None:
        return [0, n // 2]
    k0 = int(np.searchsorted(traj.times, traj.closed_at))
    return sorted({0, k0 // 2, k0, k0 + 1 + (n - k0) // 2})


def run_recipe_1d(recipe, iters=120_000):
    ds, eta = g.build_1d(recipe)
    obj = g.Objective(ds, g.logistic())
    sol = g.minimize(obj)
    traj = g.run(obj, g.GDConfig(w0=[recipe.w0], max_iters=iters, eta=eta))
    report = g.detect_cycle(obj, traj)
    return obj, sol, eta, traj, report


def run_recipe_2d(recipe, iters=120_000):
    ds, eta = g.build_2d(recipe)
    obj = g.Objective(ds, g.logistic())
    sol = g.minimize(obj)
    traj = g.run(obj, g.GDConfig(w0=list(recipe.w0), max_iters=iters, eta=eta))
    report = g.detect_cycle(obj, traj)
    return obj, sol, eta, traj, report


@pytest.fixture(scope="session")
def cycle4():
    return run_recipe_1d(RECIPE_P4)


@pytest.fixture(scope="session")
def cycle7():
    return run_recipe_1d(RECIPE_P7)


@pytest.fixture(scope="session")
def cycle37():
    return run_recipe_1d(RECIPE_P37)


@pytest.fixture(scope="session")
def chaotic_run():
    return run_recipe_1d(RECIPE_CHAOS)


@pytest.fixture(scope="session")
def cycle13():
    return run_recipe_2d(RECIPE_P13)


@pytest.fixture(scope="session")
def basin_cycle():
    return run_recipe_2d(RECIPE_BASIN, iters=100_000)
