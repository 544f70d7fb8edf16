"""Generators for the counterexample dataset families.

Four families live here:

* the rank-one "conflict" dataset (n-1 copies of a unit vector v against one
  copy of -v, all labels positive), whose probability-space dynamics reduce
  to a scalar map with closed-form period-2 points;
* one-dimensional kicked datasets: a base of +1/-1 copies plus a few copies
  of one large-magnitude feature whose near-ReLU loss kicks the trajectory
  back across the minimizer, closing a stable cycle below 2/lambda;
* two-dimensional two-kick datasets doing the same for step-size factors
  gamma <= 1, where a single kick cannot close a loop;
* Kronecker stacking, which embeds k copies of a base problem on k disjoint
  coordinate blocks.  Initializing each block one phase apart along a k-cycle
  yields runs whose sharpness settles to a constant strictly above 2/eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .analysis import detect_cycle
from .data import Dataset
from .dynamics import GDConfig, check_count, resolve_eta, run
from .exceptions import ConvergenceError, SeparableDataError
from .losses import ScalarLoss, logistic, sigmoid
from .objective import Objective, minimize

__all__ = [
    "ToySpec",
    "make_toy",
    "toy_minimizer",
    "toy_lambda",
    "toy_map_step",
    "iterate_toy_map",
    "period2_points",
    "Recipe1D",
    "build_1d",
    "hunt_1d",
    "Recipe2D",
    "build_2d",
    "kronecker_stack",
    "eos_demo",
]


# ---------------------------------------------------------------------------
# Rank-one conflict dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToySpec:
    """n-1 copies of a unit vector v and a single copy of -v, all labeled +1."""

    n: int
    v: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
            raise ValueError("v must be a unit vector")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


def make_toy(spec: ToySpec) -> Dataset:
    return Dataset(
        xs=np.vstack([spec.v, -spec.v]),
        ys=np.array([1, 1]),
        counts=np.array([spec.n - 1, 1]),
    )


def toy_minimizer(spec: ToySpec) -> np.ndarray:
    """A minimizer along v: sigma(v.w*) = (n-1)/n gives v.w* = log(n-1)."""
    return math.log(spec.n - 1) * spec.v


def toy_lambda(n: int) -> float:
    """Top Hessian eigenvalue at the minimizer, (n-1)/n^2."""
    return (n - 1) / (n * n)


def toy_map_step(n: int, eta: float, p: float) -> float:
    """The scalar probability map of the conflict dataset:

        p' = sigma( logit(p) - (eta/n) * (p - (n-1)(1-p)) )

    where p is the probability attached to the -v example.  Fixed point at
    p = (n-1)/n.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    u = math.log(p) - math.log1p(-p)
    return sigmoid(u - (eta / n) * (p - (n - 1) * (1.0 - p)))


def iterate_toy_map(n: int, eta: float, p0: float, iters: int) -> np.ndarray:
    """Iterate the scalar map in logit space (immune to p saturating at 0/1).
    Returns the p sequence of length iters+1 including p0."""
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie strictly inside (0, 1)")
    iters = check_count("iters", iters, least=0)
    u = math.log(p0) - math.log1p(-p0)
    out = np.empty(iters + 1)
    out[0] = p0
    for t in range(1, iters + 1):
        p = sigmoid(u)
        u = u - (eta / n) * (p - (n - 1) * (1.0 - p))
        out[t] = sigmoid(u)
    return out


def period2_points(eta: float) -> Tuple[float, float]:
    """Closed-form two-point oscillation of the n=2 conflict map.

    The points are p = (1+u)/2 and 1-p where u solves atanh(u) = (eta/8) u
    on (0, 1); the root is found by bisection since the inverse of
    atanh(u)/u is not elementary.  Defined for eta >= 8 only, ValueError
    otherwise (NaN included); at eta = 8 the two points coincide at 1/2.
    """
    if not eta >= 8.0:  # NaN fails the comparison
        raise ValueError(f"period-2 point undefined unless eta >= 8, got {eta}")
    if eta == 8.0:
        return (0.5, 0.5)
    c = eta / 8.0

    def f(u: float) -> float:
        return math.atanh(u) - c * u

    lo, hi = 1e-12, 1.0 - 1e-15
    if f(lo) >= 0.0 or f(hi) <= 0.0:
        raise ValueError(f"bisection bracket does not straddle a root for eta={eta}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < 1e-13 or hi - lo <= 4.0 * math.ulp(mid):
            break
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    p = 0.5 * (u + 1.0)
    return (p, 1.0 - p)


# ---------------------------------------------------------------------------
# One-dimensional kicked construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recipe1D:
    """m copies of x=+1, n copies of x=-1, b copies of the kick x=x_big,
    all labels +1, run at eta = gamma / L''(w*) from w0."""

    m: int
    n: int
    x_big: float
    b: int
    gamma: float
    w0: float

    def __post_init__(self):
        if not (self.m > self.n >= 1):
            raise ValueError("need m > n >= 1 so the minimizer is positive")
        if self.b < 0:
            raise ValueError("kick count must be nonnegative")
        if self.x_big <= 0:
            raise ValueError("kick magnitude must be positive")
        if not (1.0 < self.gamma <= 2.0):
            raise ValueError("gamma must lie in (1, 2]")


def _verify_built(ds: Dataset, loss: ScalarLoss, gamma: float):
    obj = Objective(ds, loss)
    sol = minimize(obj)
    if not np.all(np.isfinite(sol.w_star)):
        raise ConvergenceError("minimizer is not finite")
    eta = resolve_eta(gamma=gamma, solution=sol)
    if gamma < 2.0 and not eta < sol.eta_two_lambda:
        raise AssertionError("resolved step size must sit strictly below 2/lambda")
    return obj, sol, eta


def build_1d(recipe: Recipe1D, loss: Optional[ScalarLoss] = None) -> Tuple[Dataset, float]:
    """Materialize the dataset and resolve eta = gamma / L''(w*), with w*
    computed on the full dataset, kick included."""
    loss = loss or logistic()
    xs = [[1.0], [-1.0]]
    ys = [1, 1]
    counts = [recipe.m, recipe.n]
    if recipe.b > 0:
        xs.append([recipe.x_big])
        ys.append(1)
        counts.append(recipe.b)
    ds = Dataset(np.array(xs), np.array(ys), np.array(counts))
    _, _, eta = _verify_built(ds, loss, recipe.gamma)
    return ds, eta


# hunt_1d's verification run of each candidate
HUNT_W0_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
HUNT_ITERS = 40_000
HUNT_K_MAX = 256


def hunt_1d(
    gamma: float,
    m_range: Sequence[int] = (250,),
    n_range: Sequence[int] = (200,),
    x_big_range: Sequence[float] = (20.0, 40.0, 70.0),
    b_range: Sequence[int] = tuple(range(4, 17)),
    budget: int = 64,
    loss: Optional[ScalarLoss] = None,
) -> Recipe1D:
    """Deterministic search for a 1D recipe with a stable cycle at ``gamma``.

    Candidates are scanned in lexicographic (b, x_big, m, n) order, each run
    for HUNT_ITERS steps from every w0 in HUNT_W0_GRID; the first candidate
    whose run closes into a cycle with multiplier < 1 (``detect_cycle`` at
    k_max = HUNT_K_MAX) wins, with the witnessing w0 recorded in the
    returned recipe.  A candidate that cannot be built (out of range,
    separable, or its minimizer not found) is skipped, and the error that
    ends a fruitless search says how many were.
    """
    if not (1.0 < gamma <= 2.0):
        raise ValueError("gamma must lie in (1, 2]")
    loss = loss or logistic()
    tried = skipped = 0
    for b in sorted(b_range):
        for x_big in sorted(x_big_range):
            for m in sorted(m_range):
                for n in sorted(n_range):
                    if tried >= budget:
                        raise ConvergenceError(
                            f"no cycle found within budget={budget} "
                            f"({skipped} candidates skipped)"
                        )
                    tried += 1
                    try:
                        recipe = Recipe1D(m, n, float(x_big), b, gamma, w0=float(HUNT_W0_GRID[0]))
                        ds, eta = build_1d(recipe, loss)
                    except (ValueError, SeparableDataError, ConvergenceError):
                        skipped += 1
                        continue
                    obj = Objective(ds, loss)
                    for w0 in HUNT_W0_GRID:
                        cfg = GDConfig(w0=[float(w0)], max_iters=HUNT_ITERS, eta=eta,
                                       tail_window=2 * HUNT_K_MAX)
                        rep = detect_cycle(obj, run(obj, cfg), k_max=HUNT_K_MAX)
                        if rep.kind == "cycle" and rep.multiplier < 1.0:
                            return replace(recipe, w0=float(w0))
    raise ConvergenceError(f"no cycle found in search space (tried {tried} candidates, "
                           f"{skipped} skipped)")


# ---------------------------------------------------------------------------
# Two-dimensional two-kick construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recipe2D:
    """Axis-aligned base (m1/n1 copies of +-e1, m2/n2 of +-e2) plus two kick
    groups, all labels +1, run at eta = gamma / lambda(w*) from w0."""

    m1: int
    n1: int
    m2: int
    n2: int
    kick1: Tuple[Sequence[float], int]
    kick2: Tuple[Sequence[float], int]
    gamma: float
    w0: Tuple[float, float]

    def __post_init__(self):
        if not (self.m1 > self.n1 >= 1 and self.m2 > self.n2 >= 1):
            raise ValueError("need m1 > n1 >= 1 and m2 > n2 >= 1")
        # asymptotic slope ordering between the two axes; keeps the first
        # coordinate the dominant one the way the construction assumes
        if not (self.m1 - self.n1 > self.m2 - self.n2):
            raise ValueError("need m1 - n1 > m2 - n2")
        for vec, cnt in (self.kick1, self.kick2):
            if cnt < 0:
                raise ValueError("kick counts must be nonnegative")
            if len(vec) != 2:
                raise ValueError("kick vectors must be 2-dimensional")
        if not (0.0 < self.gamma <= 2.0):
            raise ValueError("gamma must lie in (0, 2]")


def build_2d(recipe: Recipe2D, loss: Optional[ScalarLoss] = None) -> Tuple[Dataset, float]:
    """Materialize the 2D dataset and resolve eta = gamma / lambda(w*) on the
    full dataset (kicks included)."""
    loss = loss or logistic()
    xs = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    counts = [recipe.m1, recipe.n1, recipe.m2, recipe.n2]
    for vec, cnt in (recipe.kick1, recipe.kick2):
        if cnt > 0:
            xs.append([float(vec[0]), float(vec[1])])
            counts.append(cnt)
    ds = Dataset(np.array(xs), np.ones(len(xs), dtype=int), np.array(counts))
    _, _, eta = _verify_built(ds, loss, recipe.gamma)
    return ds, eta


# ---------------------------------------------------------------------------
# Kronecker stacking
# ---------------------------------------------------------------------------

def kronecker_stack(ds: Dataset, k: int) -> Dataset:
    """k independent copies of the dataset on k disjoint coordinate blocks.

    Block j holds every original group embedded at columns [j*d, (j+1)*d);
    dimension and total count both scale by k.  The stacked Hessian is block
    diagonal with each block 1/k times the original's.
    """
    k = check_count("k", k, least=2)
    d = ds.dim
    g = ds.n_groups
    xs = np.zeros((k * g, k * d))
    ys = np.empty(k * g, dtype=np.int64)
    counts = np.empty(k * g, dtype=np.int64)
    for j in range(k):
        rows = slice(j * g, (j + 1) * g)
        xs[rows, j * d:(j + 1) * d] = ds.xs
        ys[rows] = ds.ys
        counts[rows] = ds.counts
    return Dataset(xs, ys, counts)


def eos_demo(
    recipe: Recipe1D,
    k: int,
    loss: Optional[ScalarLoss] = None,
    iters: int = 200_000,
) -> Tuple[Dataset, float, np.ndarray]:
    """Stacked example whose sharpness settles strictly above 2/eta.

    Verifies the recipe yields a period-k cycle (w_1 .. w_k), stacks the
    dataset k-fold, resolves eta on the stacked problem (which cancels the
    1/k gradient scaling, so each block follows the original dynamics), and
    returns the phase-offset initialization (w_1, ..., w_k).  Each iterate of
    the stacked run is then a cyclic permutation of the previous one, the
    loss stops decreasing, and the sharpness is pinned at the cycle's
    curvature peak.  ValueError unless k is an integer >= 2, before the
    base run.
    """
    k = check_count("k", k, least=2)
    loss = loss or logistic()
    ds, eta = build_1d(recipe, loss)
    obj = Objective(ds, loss)
    cfg = GDConfig(w0=[recipe.w0], max_iters=iters, eta=eta)
    rep = detect_cycle(obj, run(obj, cfg))
    if rep.kind != "cycle":
        raise ConvergenceError(f"recipe does not produce a cycle (got {rep.kind})")
    if rep.period != k:
        raise ConvergenceError(f"recipe produces a period-{rep.period} cycle, not {k}")

    stacked = kronecker_stack(ds, k)
    sol = minimize(Objective(stacked, loss))
    eta_stacked = resolve_eta(gamma=recipe.gamma, solution=sol)
    w0 = rep.orbit[:, 0].copy()
    return stacked, eta_stacked, w0
