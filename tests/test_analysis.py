"""Cycle detection, periodograms, sweeps, basins, and sharpness series."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdcycles as g
from gdcycles import analysis, dynamics, objective
from gdcycles.analysis import _CSV_BLOCK_ROWS, _dedup, sweep_to_csv
from gdcycles.dynamics import Trajectory
from gdcycles.losses import ScalarLoss, sigmoid
from gdcycles.objective import lambda_max
from conftest import (RECIPE_P7, RECIPE_P13, basin_attractors, closure_run,
                      random_nonseparable, slice_starts)


def toy3_objective():
    return g.Objective(g.make_toy(g.ToySpec(3, [1.0])), g.logistic())


def exponential_loss():
    """exp(z): its derivative grows without bound, so GD past the critical
    step size leaves any bound after a number of steps set by the init."""
    def d1(z, out=None, scratch=None):
        return np.exp(z, out=out)

    return ScalarLoss("exponential", np.exp, d1, np.exp)


def synthetic_trajectory(tail: np.ndarray, eta: float = 1.0) -> Trajectory:
    """Wrap an explicit dense iterate block as a Trajectory."""
    tail = np.atleast_2d(tail)
    n = len(tail)
    return Trajectory(
        times=np.arange(n), iterates=tail, losses=np.zeros(n), eta=eta,
        diverged=False, record_every=1, tail_window=n, max_iters=n - 1,
    )


class TestDetectCycle:
    def test_fixed_point_on_convergent_run(self):
        obj = toy3_objective()
        sol = g.minimize(obj)
        traj = g.run(obj, g.GDConfig(w0=[5.0], max_iters=10_000,
                                     eta=0.5 * sol.eta_two_lambda, tail_window=256))
        rep = g.detect_cycle(obj, traj, k_max=128)
        assert rep.kind == "fixed_point"
        assert rep.period == 1
        assert rep.orbit[0][0] == pytest.approx(sol.w_star[0], abs=1e-8)
        assert rep.multiplier < 1.0

    def test_smallest_period_wins(self):
        # exact period-6 pattern whose divisors 1, 2, 3 all fail
        pattern = np.array([0.0, 1.0, 0.5, 0.25, 1.5, -0.5])
        tail = np.tile(pattern, 20)[:, None]
        traj = synthetic_trajectory(tail)
        obj = toy3_objective()
        rep = g.detect_cycle(obj, traj, tol=1e-10, k_max=32)
        assert rep.kind == "cycle"
        assert rep.period == 6
        assert_same_report(rep, plain_detect_cycle(obj, traj, tol=1e-10, k_max=32))

    def test_undetermined_when_nothing_repeats(self):
        rng = np.random.default_rng(0)
        tail = rng.normal(size=(512, 1))
        traj = synthetic_trajectory(tail)
        rep = g.detect_cycle(toy3_objective(), traj, k_max=128)
        assert rep.kind == "undetermined"
        assert rep.period == 0
        assert len(rep.orbit) == 0

    def test_tail_too_short_raises(self):
        traj = synthetic_trajectory(np.zeros((100, 1)))
        with pytest.raises(ValueError):
            g.detect_cycle(toy3_objective(), traj, k_max=128)

    def test_two_cycle_on_conflict_dataset(self):
        obj = toy3_objective()
        sol = g.minimize(obj)
        eta = 1.1 * sol.eta_two_lambda
        traj = g.run(obj, g.GDConfig(w0=[2.0], max_iters=40_000, eta=eta))
        rep = g.detect_cycle(obj, traj)
        assert rep.kind == "cycle" and rep.period == 2
        assert rep.residual < 1e-8
        # closure: k applications of the map return to the start
        w = rep.orbit[0]
        for _ in range(rep.period):
            w = g.gd_step(obj, w, eta)
        assert np.max(np.abs(w - rep.orbit[0])) < 10 * 1e-8 * (1 + np.max(np.abs(w)))

    def test_cycle_points_pairwise_distinct(self):
        obj = toy3_objective()
        sol = g.minimize(obj)
        traj = g.run(obj, g.GDConfig(w0=[2.0], max_iters=40_000,
                                     eta=1.1 * sol.eta_two_lambda))
        rep = g.detect_cycle(obj, traj)
        k = rep.period
        for i in range(k):
            for j in range(i + 1, k):
                assert np.max(np.abs(rep.orbit[i] - rep.orbit[j])) > 1e-8


def plain_detect_cycle(obj, traj, tol=analysis.DEFAULT_CYCLE_TOL, k_max=analysis.DEFAULT_K_MAX):
    """detect_cycle as a plain scan that runs the full window residual for
    every k from 1 up, with the same orbit checks after it."""
    tail = traj.dense_tail()
    found, residual = 0, float("nan")
    for k in range(1, k_max + 1):
        r = analysis._window_residual(tail, k)
        if r < tol:
            found, residual = k, r
            break
    lyap = dynamics._lyapunov_from_states(obj, tail[max(0, len(tail) - traj.tail_window):],
                                          traj.eta)
    undetermined = g.CycleReport("undetermined", 0, tail[:0], float("nan"), float("nan"), lyap)
    if found == 0:
        return undetermined
    orbit = tail[-found:].copy()
    mult = g.orbit_multiplier(obj, orbit, traj.eta)
    if found == 1:
        return g.CycleReport("fixed_point", 1, orbit, residual, mult, lyap)
    scale = 1.0 + np.max(np.abs(orbit))
    for i in range(found - 1):
        if np.min(np.max(np.abs(orbit[i + 1:] - orbit[i]), axis=1)) < tol * scale:
            return undetermined
    return g.CycleReport("cycle", found, orbit, residual, mult, lyap)


def assert_same_report(got, want):
    assert (got.kind, got.period) == (want.kind, want.period)
    assert got.orbit.shape == want.orbit.shape
    assert got.orbit.tobytes() == want.orbit.tobytes()
    for name in ("residual", "multiplier", "lyapunov"):
        assert np.float64(getattr(got, name)).tobytes() == \
            np.float64(getattr(want, name)).tobytes(), name


def residual_calls(monkeypatch):
    """The k of each window residual computed from here on, in order."""
    calls, real = [], analysis._window_residual

    def counted(tail, k):
        calls.append(k)
        return real(tail, k)

    monkeypatch.setattr(analysis, "_window_residual", counted)
    return calls


def two_dim_objective():
    return g.Objective(random_nonseparable(np.random.default_rng(3), 2), g.logistic())


class TestDetectCyclePrefilter:
    """detect_cycle runs the window residual only for the k whose last row
    closes; its report is the plain k-by-k scan's, byte for byte."""

    def check(self, obj, tail, tol=analysis.DEFAULT_CYCLE_TOL, k_max=64):
        traj = synthetic_trajectory(tail)
        rep = g.detect_cycle(obj, traj, tol=tol, k_max=k_max)
        assert_same_report(rep, plain_detect_cycle(obj, traj, tol=tol, k_max=k_max))
        return rep

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("tol", [1e-8, 0.3, 1.0, 3.0])
    def test_random_tails(self, d, tol):
        obj = toy3_objective() if d == 1 else two_dim_objective()
        rng = np.random.default_rng(d)
        kinds = set()
        for _ in range(20):
            tail = rng.normal(size=(200, d)) * rng.choice([1e-3, 1.0, 1e3])
            kinds.add(self.check(obj, tail, tol=tol).kind)
        # the loose tolerances let short windows close, so every branch runs
        assert kinds >= ({"undetermined"} if tol < 1 else {"fixed_point"})

    @pytest.mark.parametrize("row", [-1, -2, -5, -64, -65, -128, 0])
    def test_tails_with_a_nan(self, row):
        obj = toy3_objective()
        tail = np.tile([[0.0], [1.0], [0.5]], (60, 1))
        tail[row] = np.nan
        rep = self.check(obj, tail)
        # a NaN inside the last 2k rows keeps that k from closing: with one
        # in the last 6, no multiple of the period 3 closes either
        assert rep.kind == ("undetermined" if -6 <= row < 0 else "cycle")
        self.check(obj, np.where(np.isnan(tail), tail, tail * 0.0 + 2.0))

    @pytest.mark.parametrize("k", [2, 3, 5, 17])
    def test_only_the_last_row_closes(self, k):
        # w_T equals w_{T-k} but the window before it does not: the prefilter
        # passes k, and the residual must still reject it (k = 1's window is
        # the last row alone)
        obj = toy3_objective()
        tail = np.random.default_rng(k).normal(size=(200, 1))
        tail[-1] = tail[-1 - k]
        assert self.check(obj, tail).kind == "undetermined"

    def test_false_candidate_before_the_period(self, monkeypatch):
        # period 5 with w_T = w_{T-2}: k = 2 passes the prefilter and fails
        # the residual, 5 closes, and the repeated point makes the report
        # undetermined (a pairwise-distinct cycle has no candidate below its
        # period: a last row within tol of w_{T-k} is a repeated point)
        obj = toy3_objective()
        tail = np.tile([[0.0], [1.0], [0.25], [-2.0], [0.25]], (30, 1))
        calls = residual_calls(monkeypatch)
        rep = self.check(obj, tail)
        assert calls[:2] == [2, 5]      # the plain scan's calls follow
        assert (rep.kind, rep.period) == ("undetermined", 0)

    @pytest.mark.parametrize("run_name,kind,period", [
        ("cycle4", "cycle", 4), ("cycle7", "cycle", 7), ("cycle37", "cycle", 37),
        ("chaotic_run", "undetermined", 0), ("cycle13", "cycle", 13),
    ])
    def test_classify_recipes(self, request, monkeypatch, run_name, kind, period):
        obj, _, _, traj, _ = request.getfixturevalue(run_name)
        calls = residual_calls(monkeypatch)
        rep = g.detect_cycle(obj, traj, k_max=2048)
        assert (rep.kind, rep.period) == (kind, period)
        # the chaotic orbit runs no residual, each cycle only its period's
        assert calls == ([period] if period else [])
        assert_same_report(rep, plain_detect_cycle(obj, traj, k_max=2048))

    @pytest.mark.parametrize("kwargs", [
        {"k_max": 0}, {"k_max": -3}, {"tol": 0.0}, {"tol": -1e-8}, {"tol": np.nan},
        {"tol": np.inf},
    ], ids=["k_max-0", "k_max-negative", "tol-0", "tol-negative", "tol-nan", "tol-inf"])
    def test_meaningless_arguments_raise(self, kwargs):
        traj = synthetic_trajectory(np.tile([[0.0], [1.0]], (100, 1)))
        with pytest.raises(ValueError, match="k_max|tol"):
            g.detect_cycle(toy3_objective(), traj, **kwargs)


class TestDetectCycleRecordingInvariance:
    """The report depends on the orbit, not on how the run was recorded:
    every recording policy keeps the same last tail_window states, and the
    Lyapunov estimate reads only those."""

    T = 10_000
    K_MAX = g.analysis.DEFAULT_K_MAX

    def report(self, recipe, build, record_every=1, tail_window=2 * K_MAX):
        ds, eta = build(recipe)
        obj = g.Objective(ds, g.logistic())
        traj = g.run(obj, g.GDConfig(w0=np.atleast_1d(recipe.w0), max_iters=self.T, eta=eta,
                                     record_every=record_every, tail_window=tail_window))
        return g.detect_cycle(obj, traj, k_max=self.K_MAX)

    @pytest.mark.parametrize("recipe,build,period", [
        (RECIPE_P7, g.build_1d, 7),
        (RECIPE_P13, g.build_2d, 13),
    ], ids=["period7-1d", "period13-2d"])
    def test_same_report_for_every_recording_policy(self, recipe, build, period):
        dense = self.report(recipe, build)
        assert (dense.kind, dense.period) == ("cycle", period)
        for every in (7, 100):
            rep = self.report(recipe, build, record_every=every)
            assert (rep.kind, rep.period) == (dense.kind, dense.period)
            np.testing.assert_array_equal(rep.orbit, dense.orbit)
            assert rep.residual == dense.residual
            assert rep.multiplier == dense.multiplier
            assert rep.lyapunov == dense.lyapunov

        wider = self.report(recipe, build, tail_window=2 * self.K_MAX + 1000)
        assert (wider.kind, wider.period) == (dense.kind, dense.period)
        assert wider.lyapunov == pytest.approx(dense.lyapunov, abs=1e-3)


class TestPsd:
    def test_two_point_alternation_concentrates_at_half(self):
        losses = np.tile([1.0, 3.0], 512)
        res = g.psd(losses, window=1024)
        assert res.freqs[-1] == 0.5
        assert res.power[-1] == pytest.approx(1.0, rel=1e-12)  # variance of +-1
        assert np.all(res.power[:-1] < 1e-20)

    def test_constant_sequence_all_zero(self):
        res = g.psd(np.full(2048, 7.3), window=1024)
        assert np.all(res.power < 1e-25)

    def test_eight_periodic_peaks_at_multiples(self):
        t = np.arange(4096)
        losses = np.sin(2 * np.pi * t / 8) + 0.3 * np.sin(2 * np.pi * t / 4)
        res = g.psd(losses, window=1024)
        nz = res.power > 1e-12 * res.power.max()
        k = np.round(res.freqs[nz] * 8)
        np.testing.assert_allclose(res.freqs[nz] * 8, k, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4096)
        res = g.psd(x, window=2048)
        win = x[-2048:]
        win = win - win.mean()
        assert np.sum(res.power) == pytest.approx(np.mean(win**2), rel=1e-6)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            g.psd(np.zeros(100), window=100)  # not a power of two
        with pytest.raises(ValueError):
            g.psd(np.zeros(100), window=128)  # longer than the sequence

    def test_shapes(self):
        res = g.psd(np.zeros(1024), window=1024)
        assert len(res.freqs) == 513 and len(res.power) == 513


def _dedup_reference(values, rtol=1e-9):
    """The numpy-scalar loop _dedup replaced, kept as its oracle."""
    vals = np.sort(np.asarray(values, dtype=float))
    vals = vals[np.isfinite(vals)]
    if len(vals) == 0:
        return vals
    out = [vals[0]]
    for v in vals[1:]:
        if abs(v - out[-1]) > rtol * max(1.0, abs(v), abs(out[-1])):
            out.append(v)
    return np.array(out)


# values a sweep tail produces: exact and near repeats of a few anchors
# (0 of both signs, tiny, large, negative, non-finite), plus arbitrary floats
_ANCHORS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-12, 7e8, -3e12,
                            math.nan, math.inf, -math.inf])
_NUDGES = st.sampled_from([0.0, 1e-16, -1e-16, 4e-10, -6e-10, 1e-9, 2e-9, 1e-6])
_TAIL_VALUES = st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    _ANCHORS,
    st.builds(lambda a, e: a + e * max(1.0, abs(a)), _ANCHORS, _NUDGES),
), max_size=80)


class TestDedup:
    @settings(max_examples=400, deadline=None)
    @given(_TAIL_VALUES, st.sampled_from([1e-9, 0.0, 1e-3]))
    def test_matches_reference_loop_bit_for_bit(self, values, rtol):
        got = _dedup(np.array(values, dtype=float), rtol=rtol)
        want = _dedup_reference(np.array(values, dtype=float), rtol=rtol)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_collapses_near_equal(self):
        vals = np.array([1.0, 1.0 + 1e-12, 2.0, 2.0 - 1e-12, 5.0])
        out = _dedup(vals, rtol=1e-9)
        np.testing.assert_allclose(out, [1.0, 2.0 - 1e-12, 5.0])

    def test_keeps_separated(self):
        out = _dedup(np.array([1.0, 1.001, 0.999]), rtol=1e-9)
        assert len(out) == 3


def plain_sweep_cells(obj, grid, n_inits, T, tail, seed, pn_group=None, bound=1e12):
    """A sweep's cells as bytes, from a plain loop: each step size's
    (n_inits, d) layer stepped T times on its own, a cell frozen at zero
    once its sup-norm passes ``bound`` (or is NaN), and the tail losses and
    probes recorded at every one of the last min(tail, T) steps."""
    A, wts, scales = obj._A, obj._wts, analysis.DEFAULT_SCALES
    inits = np.random.default_rng(seed).standard_normal((n_inits, obj.dim)) * \
        np.array([scales[i % len(scales)] for i in range(n_inits)])[:, None]
    cells = []
    for eta in grid:
        W, dead = inits.copy(), np.zeros(n_inits, dtype=bool)
        losses, probes = [], []
        for t in range(1, T + 1):
            W = W - eta * ((obj.loss.d1(W @ A.T) * wts) @ A)
            dead |= ~(np.abs(W).max(axis=1) <= bound)
            W[dead] = 0.0
            if t > T - tail:
                losses.append(obj.loss.f(W @ A.T) @ wts)
                if pn_group is not None:
                    probes.append(sigmoid(W @ A[pn_group]))
        losses, probes = np.array(losses), np.array(probes)
        for i in range(n_inits):
            if dead[i]:
                cells.append((True, None, None, None))
                continue
            sharp = eta * lambda_max(obj.hessian(W[i])) / 2.0
            cells.append((False, _dedup(losses[:, i]).tobytes(), np.float64(sharp).tobytes(),
                          None if pn_group is None else _dedup(probes[:, i]).tobytes()))
    return cells


def sweep_cell_bytes(sweep):
    """The cells of ``sweep`` in the form ``plain_sweep_cells`` gives."""
    return [(True, None, None, None) if c.diverged else
            (False, c.final_losses.tobytes(), np.float64(c.scaled_sharpness).tobytes(),
             None if c.final_pn is None else c.final_pn.tobytes()) for c in sweep.cells]


class TestBifurcationSweep:
    def test_determinism(self):
        obj = toy3_objective()
        grid = np.array([1.0, 4.0, 9.5])
        a = g.bifurcation_sweep(obj, grid, n_inits=6, T=2000, seed=3)
        b = g.bifurcation_sweep(obj, grid, n_inits=6, T=2000, seed=3)
        assert sweep_to_csv(a) == sweep_to_csv(b)
        for ca, cb in zip(a.cells, b.cells):
            np.testing.assert_array_equal(ca.final_losses, cb.final_losses)
            assert ca.scaled_sharpness == cb.scaled_sharpness

    def test_seed_changes_inits(self):
        obj = toy3_objective()
        grid = np.array([9.5])
        a = g.bifurcation_sweep(obj, grid, n_inits=4, T=500, seed=0)
        b = g.bifurcation_sweep(obj, grid, n_inits=4, T=500, seed=1)
        assert sweep_to_csv(a) != sweep_to_csv(b)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            g.bifurcation_sweep(toy3_objective(), [1.0, 1.0], n_inits=2, T=100)

    def test_below_critical_single_loss(self):
        obj = toy3_objective()
        sol = g.minimize(obj)
        grid = np.linspace(0.3, 0.9, 4) * sol.eta_two_lambda
        sweep = g.bifurcation_sweep(obj, grid, n_inits=8, T=4000, seed=0)
        for cell in sweep.cells:
            assert not cell.diverged
            assert len(cell.final_losses) == 1
            assert cell.scaled_sharpness <= 1.0 + 1e-6

    def test_above_critical_two_probe_values(self):
        # n=2 conflict data: the two-point oscillation is invisible in the
        # loss (symmetric) but shows up in the probe probability
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
        sweep = g.bifurcation_sweep(obj, [10.0], n_inits=6, T=20_000, seed=0,
                                    pn_group=1)
        hi, lo = g.period2_points(10.0)
        for cell in sweep.cells:
            assert len(cell.final_losses) == 1  # equal loss at both points
            assert len(cell.final_pn) == 2
            np.testing.assert_allclose(np.sort(cell.final_pn), [lo, hi], atol=1e-7)

    @pytest.mark.parametrize("kwargs", [
        {"pn_group": 2}, {"pn_group": -1}, {"n_inits": 0}, {"T": 0},
    ], ids=["pn-group-past-end", "pn-group-negative", "no-inits", "no-steps"])
    def test_out_of_range_arguments_rejected(self, kwargs):
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
        args = {"n_inits": 2, "T": 10, **kwargs}
        with pytest.raises(ValueError):
            g.bifurcation_sweep(obj, [1.0, 9.0], **args)

    @pytest.mark.parametrize("grid,scales", [
        ([], analysis.DEFAULT_SCALES), ([[7.0, 9.0]], analysis.DEFAULT_SCALES),
        (7.0, analysis.DEFAULT_SCALES), ([7.0, 9.0], ()), ([7.0, 9.0], (1.0, np.nan)),
        ([7.0, 9.0], (np.inf,)),
    ], ids=["empty-grid", "2d-grid", "scalar-grid", "no-scales", "nan-scale", "inf-scale"])
    def test_grid_and_scales_must_be_usable(self, grid, scales):
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
        with pytest.raises(ValueError, match="eta_grid|scales"):
            g.bifurcation_sweep(obj, grid, n_inits=2, T=10, scales=scales)

    @pytest.mark.parametrize("grid", [[np.nan], [-1.0, 9.0], [0.0, 9.0], [1.0, np.inf],
                                      [-np.inf, 1.0], [1.0, np.nan, 9.0]],
                             ids=["nan", "negative", "zero", "inf", "-inf", "nan-inside"])
    def test_step_sizes_must_be_positive_and_finite(self, grid):
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
        with pytest.raises(ValueError, match="positive and finite"):
            g.bifurcation_sweep(obj, grid, n_inits=2, T=10)

    @pytest.mark.parametrize("case", [
        "diverging-1d", "nine-inits-2d", "no-transient", "tail-1", "d3", "several-stacks",
        "diverging-in-both-phases",
    ])
    def test_blocks_match_one_step_size_sweeps(self, case, monkeypatch):
        # each cell must equal, bit for bit, the cell of a sweep over its
        # step size alone.  Nine inits is not a multiple of BLAS's row
        # unrolling, so a flat (rows, d) batch would round some rows
        # differently from a nine-row one.
        if case == "diverging-1d":
            obj = g.Objective(g.parse_compact("1 1 1\n"), g.logistic())
            grid, kw = np.geomspace(1.0, 1e13, 30), {"n_inits": 5, "T": 2000}
        elif case == "d3":
            obj = g.Objective(random_nonseparable(np.random.default_rng(6), 3), g.logistic())
            grid = np.linspace(0.5, 1.6, 12) * g.minimize(obj).eta_two_lambda
            kw = {"n_inits": 7, "T": 700, "tail": 300, "pn_group": 2}
        elif case == "diverging-in-both-phases":
            # the exponential loss on toy n=2 is cosh(w): past eta = 2 the
            # origin repels and the iterate overflows, later the smaller the
            # init, so the scales split the cells between the two phases
            obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), exponential_loss())
            grid, kw = np.linspace(2.2, 4.0, 10), {"n_inits": 7, "T": 40, "tail": 20}
        else:
            obj = g.Objective(random_nonseparable(np.random.default_rng(4), 2), g.logistic())
            grid = np.linspace(0.5, 1.6, 8) * g.minimize(obj).eta_two_lambda
            kw = {"n_inits": 9, "T": 1200, "pn_group": 1, **{
                "nine-inits-2d": {},
                "no-transient": {"T": 700, "tail": 700},   # T <= tail: all tail
                "tail-1": {"tail": 1},
                "several-stacks": {"tail": 50},
            }[case]}
        if case == "several-stacks":
            # a stack of 2**9 floats per workspace buffer fits five step
            # sizes of nine inits and ten groups: eight step sizes, two stacks
            monkeypatch.setattr(analysis, "_SWEEP_BLOCK_FLOATS", 2**9)
        with np.errstate(over="ignore", invalid="ignore"):
            sweep = g.bifurcation_sweep(obj, grid, seed=5, **kw)
            singles = [c for eta in grid
                       for c in g.bifurcation_sweep(obj, [eta], seed=5, **kw).cells]
        assert len(singles) == len(sweep.cells) == len(grid) * kw["n_inits"]
        for got, want in zip(sweep.cells, singles):
            assert (got.eta, got.init_index, got.diverged) == \
                (want.eta, want.init_index, want.diverged)
            assert got.final_losses.tobytes() == want.final_losses.tobytes()
            assert np.float64(got.scaled_sharpness).tobytes() == \
                np.float64(want.scaled_sharpness).tobytes()
            if want.final_pn is None:
                assert got.final_pn is None
            else:
                assert got.final_pn.tobytes() == want.final_pn.tobytes()
        if case == "diverging-1d":
            assert 0 < sum(c.diverged for c in sweep.cells) < len(sweep.cells)
        if case == "diverging-in-both-phases":
            # a cell diverged in the transient iff it has by step T - tail
            with np.errstate(over="ignore", invalid="ignore"):
                early = g.bifurcation_sweep(obj, grid, seed=5, n_inits=7, T=20, tail=20)
            in_transient = [c.diverged for c in early.cells]
            in_tail = [c.diverged and not e for c, e in zip(sweep.cells, in_transient)]
            assert any(in_transient) and any(in_tail)
            assert not all(c.diverged for c in sweep.cells)

    # toy n=2 repeats with float period 2 by step 257 at the step sizes
    # below but for 8, which never repeats; "3 1 1 / 1 1 -1" (critical step size 32/3) with
    # periods 1, 2, 4 and 8 by step 1031, the cycle points of unequal
    # sharpness; under the exponential loss, toy n=2's large inits diverge by
    # step 8 and the rest repeat with period 1 or 2 by step 65.  A transient
    # layer leaves once all its cells are known, two at a time when only two
    # are left, so row_steps sums each layer's transient steps, then each
    # tail block's (n_inits cells per layer)
    PLAIN_LOOP_CASES = [
        ("toy-n2-closed", 5 * (4 * 66 + 3 * 64 + 2 * 128) + 20 * 2),
        ("never-closing-8", 5 * 1500),
        ("closed-and-open-blocks",
         4 * (5 * 66 + 4 * 64 + 2 * 1114) + 8 * 2 + 8 * 256 + 4 * 2),
        ("period-2-tail-1", 5 * (3 * 65 + 2 * 64) + 15 * 1),
        ("periods-1-to-8", 5 * (6 * 68 + 5 * 60 + 4 * 4 + 3 * 126 + 2 * 778) + 30 * 8),
        ("diverging-in-transient", 14 * 66 + 14 * 2),
        ("no-transient", 15 * 700),
        ("stack-ends-before-its-transient", 3 * (3 * 66 + 2 * 64) + 9 * 2),
        # exponential-loss toy n=2 past eta = 2: every cell but one diverges,
        # the larger inits first; a diverged cell leaves the transient at
        # once, so a layer leaves when its last cell diverges (stepping
        # diverged cells on through inf to NaN would take 7 * (16 * 10 + 4 * 4))
        ("diverged-cells-leave-the-transient",
         7 * (10 * 10 + 8 + 7 + 6 + 5 + 4 + 4 + 3 + 3 + 3 + 2) + 70 * 20),
    ]

    @pytest.mark.parametrize("case,row_steps", PLAIN_LOOP_CASES,
                             ids=[case for case, _ in PLAIN_LOOP_CASES])
    def test_cells_match_a_plain_stepping_loop(self, case, row_steps, monkeypatch):
        # each cell must equal, bit for bit, the cell of a loop that steps
        # its layer T times and records every tail step; a block whose alive
        # cells all repeated in the transient, with periods of at most the
        # tail, steps only their largest period (row_steps tells which did)
        toy = g.make_toy(g.ToySpec(2, [1.0]))
        obj = g.Objective(toy, g.logistic())
        kw = {"n_inits": 5, "T": 1500, "tail": 256, "pn_group": 1}
        if case == "toy-n2-closed":
            grid = [7.0, 7.5, 9.0, 10.0]
        elif case == "never-closing-8":
            grid = [8.0]
        elif case == "closed-and-open-blocks":
            # 2**11 floats hold the tails of two step sizes of four inits:
            # blocks [7, 7.5] and [10] close, [8, 9] holds the open layer 8
            monkeypatch.setattr(analysis, "_SWEEP_BLOCK_FLOATS", 2**11)
            grid, kw["n_inits"] = [7.0, 7.5, 8.0, 9.0, 10.0], 4
        elif case == "period-2-tail-1":
            # every cell repeats with period 2 > tail: the block steps its tail
            grid, kw["tail"] = [7.0, 9.0, 10.0], 1
        elif case == "periods-1-to-8":
            obj = g.Objective(g.parse_compact("3 1 1\n1 1 -1\n"), g.logistic())
            grid = np.array([0.8, 0.9, 1.1, 1.2, 1.3, 1.4]) * g.minimize(obj).eta_two_lambda
            kw.update(T=2100, tail=1000, pn_group=0)   # (tail - 1) % p = p - 1
        elif case == "diverging-in-transient":
            obj = g.Objective(toy, exponential_loss())
            grid, kw = [1.0, 1.5], {"n_inits": 7, "T": 200, "tail": 100}
        elif case == "diverged-cells-leave-the-transient":
            obj = g.Objective(toy, exponential_loss())
            grid, kw = np.linspace(2.2, 4.0, 10), {"n_inits": 7, "T": 40, "tail": 20}
        elif case == "stack-ends-before-its-transient":
            # gdcycles bifurcate --eta-min 6 --eta-max 7 --steps 3 --inits 3
            # --iters 2000: every cell repeats with period 2, and the stack
            # steps 130 of its 976 transient steps
            grid, kw = [6.0, 6.5, 7.0], {"n_inits": 3, "T": 2000, "tail": 1024}
        else:
            grid, kw["T"], kw["tail"] = [7.0, 8.0, 9.0], 700, 1024   # T <= tail
        with np.errstate(over="ignore", invalid="ignore"):
            sweep = g.bifurcation_sweep(obj, grid, seed=5, **kw)
            want = plain_sweep_cells(obj, grid, seed=5, **kw)
        assert sweep_cell_bytes(sweep) == want
        assert sweep.row_steps == row_steps
        if case == "diverging-in-transient":
            assert 0 < sum(c.diverged for c in sweep.cells) < len(sweep.cells)

    def test_guard_tripped_only_in_the_transient(self, monkeypatch):
        # with the guard lowered to 100, the init near -553 trips it at
        # step 1, then walks back (at most eta / 2 a step) to the fixed
        # point 0 long before the tail, whose guard never trips: the cell
        # must still be reported diverged
        monkeypatch.setattr(objective, "DIVERGENCE_NORM", 100.0)
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
        kw = {"n_inits": 7, "T": 2000, "tail": 64}
        sweep = g.bifurcation_sweep(obj, [2.0, 4.0], seed=5, **kw)
        assert sweep_cell_bytes(sweep) == plain_sweep_cells(obj, [2.0, 4.0], seed=5, bound=100.0,
                                                            **kw)
        assert [c.diverged for c in sweep.cells] == 2 * ([False] * 6 + [True])

    @pytest.mark.parametrize("seed,last_layers,row_steps", [
        (0, 2, 170_560), (1, 2, 170_560), (7, 3, 189_368),
    ], ids=["0", "1", "7"])
    def test_step_many_calls_with_closed_blocks(self, monkeypatch, seed, last_layers, row_steps):
        # the benchmark's 61x4 toy sweep: one transient stack of 2976 steps,
        # whose layers leave as their cells repeat until only those of 7.95
        # and 8.0 (and 8.05 at seed 7), which never repeat, are left; then
        # four tail blocks of 16, 16, 16 and 13 step sizes, of which only
        # the one holding those layers steps its whole tail, and the others
        # one period, 2
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return g.step_many(*args, **kwargs)

        for module in (analysis, dynamics):
            monkeypatch.setattr(module, "step_many", counting)
        grid = np.round(np.arange(7.0, 10.0001, 0.05), 10)
        sweep = g.bifurcation_sweep(obj, grid, n_inits=4, T=4000, seed=seed, pn_group=1)
        assert len(calls) == 2976 + 1024 + 3 * 2 == 4006
        assert calls[0] == (61, 4, 1) and calls[2975] == (last_layers, 4, 1)
        assert sweep.row_steps == sum(s * n for s, n, _ in calls) == row_steps

    @pytest.mark.parametrize("T,tail,stacks,blocks,widest", [
        (50, 8, 3, 3, 8),     # stacks of 8 step sizes, each one tail block
        (50, 40, 3, 10, 8),   # stacks of 8, tail blocks of 2
        (30, 40, 3, 10, 2),   # T <= tail: no transient
    ])
    def test_step_many_calls(self, monkeypatch, T, tail, stacks, blocks, widest):
        # (T - tail) steps per transient stack, as no cell repeats in its
        # transient, then tail steps per block.  2**8 floats: 8 step sizes
        # of 3 inits and 10 groups per stack, and 256 // (tail * 3) per block
        obj = g.Objective(random_nonseparable(np.random.default_rng(4), 2), g.logistic())
        monkeypatch.setattr(analysis, "_SWEEP_BLOCK_FLOATS", 2**8)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return g.step_many(*args, **kwargs)

        for module in (analysis, dynamics):
            monkeypatch.setattr(module, "step_many", counting)
        grid = np.linspace(0.5, 1.5, 20) * g.minimize(obj).eta_two_lambda
        g.bifurcation_sweep(obj, grid, n_inits=3, T=T, tail=tail)
        assert len(calls) == max(0, T - tail) * stacks + min(T, tail) * blocks
        assert max(shape[0] for shape in calls) == widest

    def test_memory_does_not_grow_with_the_grid(self, monkeypatch):
        # the working memory (the peak less what the result holds) of a
        # 1024-step-size sweep stays that of a 64-step-size one, but for the
        # grid's output bookkeeping: 2**12 floats per workspace buffer fit
        # 16 step sizes of 8 inits and 32 groups, so both grids fill whole
        # stacks; one uncapped stack of 1024 would take about 1 KiB per cell
        monkeypatch.setattr(analysis, "_SWEEP_BLOCK_FLOATS", 2**12)
        obj = g.Objective(random_nonseparable(np.random.default_rng(4), 2, n_rows=16),
                          g.logistic())

        def working_bytes(n_etas):
            grid = np.linspace(0.1, 1.0, n_etas)
            tracemalloc.start()
            try:
                sweep = g.bifurcation_sweep(obj, grid, n_inits=8, T=4, tail=2)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - current, len(sweep.cells)

        small, small_cells = working_bytes(64)
        big, big_cells = working_bytes(1024)
        assert big < small + 64 * (big_cells - small_cells)

    def test_divergence_recorded_per_cell(self):
        ds = g.parse_compact("1 1 1\n")  # separable: huge eta walks away
        obj = g.Objective(ds, g.logistic())
        sweep = g.bifurcation_sweep(obj, [1e13], n_inits=3, T=50, seed=0)
        assert all(c.diverged for c in sweep.cells)
        assert "nan" in sweep_to_csv(sweep)


class TestBasinRaster:
    def test_needs_2d(self):
        with pytest.raises(ValueError):
            g.basin_raster(toy3_objective(), 1.0, (-1, 1, -1, 1), (4, 4),
                           (np.zeros(1), np.zeros((1, 1))), T=10)

    @pytest.mark.parametrize("bounds,resolution,T", [
        ((-1, 1, -1, 1), (0, 4), 10),
        ((-1, 1, -1, 1), (4, 0), 10),
        ((-1, 1, -1, 1), (4, 4), 0),
        ((-1, 1, -1, 1), (4, 4), -5),
        ((float("nan"), 1, -1, 1), (4, 4), 10),
        ((-1, float("inf"), -1, 1), (4, 4), 10),
        ((5, 5, -1, 1), (4, 4), 10),
        ((-1, 1, 2, -2), (4, 4), 10),
    ], ids=["nx-0", "ny-0", "T-0", "T-negative", "xmin-nan", "xmax-inf", "empty-x",
            "y-reversed"])
    def test_out_of_range_arguments_rejected(self, bounds, resolution, T):
        obj = g.Objective(g.parse_compact("2 1 1 0\n1 1 -1 0\n1 1 0 1\n1 1 0 -1\n"),
                          g.logistic())
        with pytest.raises(ValueError):
            g.basin_raster(obj, 1.0, bounds, resolution, (np.zeros(2), np.zeros((1, 2))), T=T)

    @pytest.mark.parametrize("w_star,orbit", [
        ([np.nan, 0.0], [[1.0, 1.0]]),
        ([np.inf, 0.0], [[1.0, 1.0]]),
        ([0.0, 0.0, 0.0], [[1.0, 1.0]]),
        ([0.0], [[1.0, 1.0]]),
        ([0.0, 0.0], [[1.0, np.inf]]),
        ([0.0, 0.0], [[1.0, 1.0], [np.nan, 2.0]]),
        ([0.0, 0.0], np.zeros((0, 2))),
        ([0.0, 0.0], []),
        ([0.0, 0.0], [[1.0, 1.0, 1.0]]),
        ([0.0, 0.0], np.zeros((2, 2, 2))),
    ], ids=["w-star-nan", "w-star-inf", "w-star-3d", "w-star-1d", "orbit-inf", "orbit-nan",
            "orbit-empty", "orbit-empty-list", "orbit-3d-points", "orbit-3-axes"])
    def test_refs_must_be_usable(self, w_star, orbit):
        # unchecked, a NaN w* or an inf orbit labels every cell other, and
        # an empty orbit fails inside numpy's reduction
        obj = g.Objective(g.parse_compact("2 1 1 0\n1 1 -1 0\n1 1 0 1\n1 1 0 -1\n"),
                          g.logistic())
        with pytest.raises(ValueError, match="w_star|orbit"):
            g.basin_raster(obj, 1.0, (-1, 1, -1, 1), (4, 4), (w_star, orbit), T=10)

    def test_row_steps_counts_retired_cells(self, basin_cycle):
        # a cell stepped to T in full costs T row-steps; cells that reach w*
        # retire early, so the raster takes fewer than nx * ny * T
        obj, sol, eta, traj, rep = basin_cycle
        raster = g.basin_raster(obj, eta, (-10, 30, -10, 30), (8, 8),
                                (sol.w_star, rep.orbit), T=1500)
        assert np.any(raster.labels == g.analysis.LABEL_TO_FIXED_POINT)
        assert 0 < raster.row_steps < 8 * 8 * 1500
        single = g.basin_raster(obj, eta, (-10, 30, -10, 30), (1, 1),
                                (sol.w_star, rep.orbit), T=7)
        assert single.row_steps <= 7

    def test_cell_at_fixed_point_and_orbit(self, basin_cycle):
        obj, sol, eta, traj, rep = basin_cycle
        assert rep.kind == "cycle"
        # single cells centered exactly on the references
        wx, wy = sol.w_star
        r = g.basin_raster(obj, eta, (wx - 0.5, wx + 0.5, wy - 0.5, wy + 0.5),
                           (1, 1), (sol.w_star, rep.orbit), T=200)
        assert r.labels[0, 0] == g.analysis.LABEL_TO_FIXED_POINT
        ox, oy = rep.orbit[0]
        r = g.basin_raster(obj, eta, (ox - 0.5, ox + 0.5, oy - 0.5, oy + 0.5),
                           (1, 1), (sol.w_star, rep.orbit), T=13 * 200)
        assert r.labels[0, 0] == g.analysis.LABEL_TO_CYCLE

    def test_pgm_emission(self, basin_cycle):
        obj, sol, eta, traj, rep = basin_cycle
        raster = g.basin_raster(obj, eta, (-10, 30, -10, 30), (16, 16),
                                (sol.w_star, rep.orbit), T=1500)
        pgm = g.analysis.raster_to_pgm(raster)
        lines = pgm.strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == "16 16"
        assert lines[2] == "255"
        vals = {int(v) for row in lines[3:] for v in row.split()}
        assert vals <= {0, 128, 255}
        header = g.analysis.raster_header(raster, gamma=0.95)
        assert "eta" in header and "gamma" in header


def _plain_labels(obj, sol, eta, orbit, bounds, n, horizons):
    """The labels of an n x n raster after each of ``horizons`` steps of
    stepping every cell, none retired, and each cell's state at each."""
    xmin, xmax, ymin, ymax = bounds
    X, Y = np.meshgrid(xmin + (np.arange(n) + 0.5) * (xmax - xmin) / n,
                       ymin + (np.arange(n) + 0.5) * (ymax - ymin) / n)
    W = np.column_stack([X.ravel(), Y.ravel()])
    tol = 1e-6 * (1.0 + np.linalg.norm(sol.w_star))
    out = {}
    for t in range(1, max(horizons) + 1):
        W = g.step_many(obj, W, eta)
        if t in horizons:
            labels = np.full(len(W), analysis.LABEL_OTHER, dtype=np.int8)
            d_orbit = np.min(np.linalg.norm(W[:, None, :] - orbit[None], axis=2), axis=1)
            labels[d_orbit < tol] = analysis.LABEL_TO_CYCLE
            labels[np.linalg.norm(W - sol.w_star, axis=1) < tol] = analysis.LABEL_TO_FIXED_POINT
            out[t] = labels.reshape(n, n), W.copy()
    return out


TRAP_HORIZONS = (200, 800, 1500, 3000, 4000)


@functools.cache
def _plain_basin(loss, shifted=False):
    obj, sol, eta, orbit = basin_attractors(loss)
    if shifted:
        orbit = orbit.copy()
        orbit[5] += [1e-3, 0.0]
    return _plain_labels(obj, sol, eta, orbit, (-10, 30, -10, 30), 24, TRAP_HORIZONS)


class TestBasinTraps:
    """basin_raster labels a cell once a certified trap ball holds it; every
    label must be the one stepping every cell T times gives."""

    @pytest.mark.parametrize("T", TRAP_HORIZONS)
    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    def test_labels_equal_plain_stepping(self, loss, T):
        obj, sol, eta, orbit = basin_attractors(loss)
        raster = g.basin_raster(obj, eta, (-10, 30, -10, 30), (24, 24), (sol.w_star, orbit), T=T)
        want, W_T = _plain_basin(loss)[T]
        np.testing.assert_array_equal(raster.labels, want)
        assert sum(raster.stops.values()) == 24 * 24
        assert raster.stops["trapped"] > 0 and raster.row_steps < 24 * 24 * T
        if T == 800:
            # the waiting rule bites: cells inside the orbit's largest
            # certified ball at T are still further than tol from it, so a
            # cell that enters a ball must wait out the ball's steps
            tol = 1e-6 * (1.0 + np.linalg.norm(sol.w_star))
            ladder = analysis._trap_ladder(obj, eta, orbit, tol, T)
            d_orbit = np.min(np.linalg.norm(W_T[:, None, :] - orbit[None], axis=2), axis=1)
            late = (d_orbit <= ladder[-1][0]) & (d_orbit >= tol)
            assert np.any(late & (want.ravel() == analysis.LABEL_OTHER))

    def test_refused_cycle_balls_step_as_before(self, monkeypatch):
        # with one orbit point moved by 1e-3 the orbit is not an orbit: its
        # balls are refused, and the raster is the one with no cycle balls
        obj, sol, eta, orbit = basin_attractors("logistic")
        shifted = orbit.copy()
        shifted[5] += [1e-3, 0.0]
        raster = g.basin_raster(obj, eta, (-10, 30, -10, 30), (24, 24), (sol.w_star, shifted),
                                T=1500)
        np.testing.assert_array_equal(raster.labels, _plain_basin("logistic", True)[1500][0])
        real = analysis.trap_balls
        monkeypatch.setattr(analysis, "trap_balls", lambda obj, eta, pts, radii, eps: (
            real(obj, eta, pts, radii, eps) if len(pts) == 1 else [None] * len(radii)))
        untrapped = g.basin_raster(obj, eta, (-10, 30, -10, 30), (24, 24),
                                   (sol.w_star, shifted), T=1500)
        assert (raster.row_steps, raster.stops) == (untrapped.row_steps, untrapped.stops)
        np.testing.assert_array_equal(raster.labels, untrapped.labels)
        assert raster.stops["trapped"] == np.count_nonzero(
            raster.labels == analysis.LABEL_TO_FIXED_POINT) > 0

    def test_refused_fixed_point_balls_step_as_before(self, monkeypatch):
        # past 2/lambda w* repels, and the orbit of gamma 0.95 is no orbit:
        # every ball is refused and the raster is the untrapped one
        obj, sol, _, orbit = basin_attractors("logistic")
        eta = 1.02 * sol.eta_two_lambda
        args = (obj, eta, (-10, 30, -10, 30), (12, 12), (sol.w_star, orbit))
        with np.errstate(over="ignore", invalid="ignore"):
            raster = g.basin_raster(*args, T=300)
            monkeypatch.setattr(analysis, "trap_balls",
                                lambda obj, eta, pts, radii, eps: [None] * len(radii))
            untrapped = g.basin_raster(*args, T=300)
        assert raster.stops["trapped"] == 0
        assert (raster.row_steps, raster.stops) == (untrapped.row_steps, untrapped.stops)
        np.testing.assert_array_equal(raster.labels, untrapped.labels)

    def test_pgm_matches_per_cell_formatting(self, basin_cycle):
        obj, sol, eta, traj, rep = basin_cycle
        raster = g.basin_raster(obj, eta, (-10, 30, -10, 30), (5, 3),
                                (sol.w_star, rep.orbit), T=10)
        labels = np.random.default_rng(3).integers(0, 3, (7, 11)).astype(np.int8)
        raster = dataclasses.replace(raster, labels=labels, resolution=(11, 7))
        values = {analysis.LABEL_OTHER: 0, analysis.LABEL_TO_CYCLE: 128,
                  analysis.LABEL_TO_FIXED_POINT: 255}
        rows = [" ".join(str(values[int(v)]) for v in labels[j]) for j in range(6, -1, -1)]
        assert analysis.raster_to_pgm(raster) == "\n".join(["P2", "11 7", "255"] + rows) + "\n"


class TestSharpnessSeries:
    def test_1d_equals_second_derivative(self):
        obj = toy3_objective()
        traj = g.run(obj, g.GDConfig(w0=[1.0], max_iters=200, eta=2.0))
        series = g.sharpness_series(obj, traj)
        for i in (0, 50, 200):
            want = obj.hessian(traj.iterates[i])[0, 0]
            assert series[i] == pytest.approx(want, rel=1e-12)

    def test_convergent_run_tends_to_lambda_star(self):
        rng = np.random.default_rng(2)
        obj = g.Objective(random_nonseparable(rng, 2), g.logistic())
        sol = g.minimize(obj)
        traj = g.run(obj, g.GDConfig(w0=[2.0, 2.0], max_iters=5000,
                                     eta=0.8 * sol.eta_two_L))
        series = g.sharpness_series(obj, traj, start=len(traj.iterates) - 5)
        np.testing.assert_allclose(series, sol.lambda_star, rtol=1e-9)


def _trajectory_csv_by_value(traj, sharpness=None, include_w=True):
    """trajectory_to_csv as first written: one format() call per value."""
    cols = ["t", "loss"]
    if include_w:
        cols += [f"w_{j + 1}" for j in range(traj.dim)]
    if sharpness is not None:
        cols.append("sharpness")
    lines = [",".join(cols)]
    for i, t in enumerate(traj.times):
        row = [str(int(t)), format(float(traj.losses[i]), ".17g")]
        if include_w:
            row += [format(float(v), ".17g") for v in traj.iterates[i]]
        if sharpness is not None:
            row.append(format(float(sharpness[i]), ".17g"))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestCsvEmission:
    def test_trajectory_csv_columns(self):
        obj = toy3_objective()
        traj = g.run(obj, g.GDConfig(w0=[1.0], max_iters=50, eta=1.0))
        sharp = g.sharpness_series(obj, traj)
        text = g.analysis.trajectory_to_csv(traj, sharpness=sharp)
        lines = text.strip().split("\n")
        assert lines[0] == "t,loss,w_1,sharpness"
        assert len(lines) == 52
        text2 = g.analysis.trajectory_to_csv(traj, include_w=False)
        assert text2.splitlines()[0] == "t,loss"

    @pytest.mark.parametrize("d,rows,with_sharpness,include_w", [
        (1, 2 * _CSV_BLOCK_ROWS + 17, True, True),
        (2, _CSV_BLOCK_ROWS, False, True),
        (3, _CSV_BLOCK_ROWS + 1, True, False),
        (1, 1, False, True),
    ])
    def test_trajectory_csv_matches_per_value_formatting(self, d, rows, with_sharpness,
                                                         include_w):
        # block formatting with one % per block writes the same bytes as
        # format(x, ".17g") per value, signed zeros and non-finite values too
        rng = np.random.default_rng(d * rows)
        special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.7976931348623157e308,
                   1.0 / 3.0, -1e-300]

        def column(shape):
            vals = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            flat = vals.reshape(-1)
            k = min(len(flat), len(special))
            flat[rng.permutation(len(flat))[:k]] = special[:k]
            return vals

        traj = Trajectory(times=np.arange(rows) * 37 + 10**12, iterates=column((rows, d)),
                          losses=column(rows), eta=1.0, diverged=False, record_every=37,
                          tail_window=1, max_iters=rows * 37 + 10**12)
        sharp = column(rows) if with_sharpness else None
        got = g.analysis.trajectory_to_csv(traj, sharpness=sharp, include_w=include_w)
        assert got == _trajectory_csv_by_value(traj, sharpness=sharp, include_w=include_w)

    def test_psd_csv(self):
        res = g.psd(np.tile([1.0, 2.0], 64), window=128)
        text = g.analysis.psd_to_csv(res)
        assert text.splitlines()[0] == "freq,power"
        assert len(text.splitlines()) == 66


# ---------------------------------------------------------------------------
# Consumers of a closed orbit, against the per-row computations
# ---------------------------------------------------------------------------

def _sharpness_by_row(obj, traj, start=0):
    """sharpness_series in d >= 2 as first written: one lambda_max per row."""
    return np.array([lambda_max(obj.hessian(w)) for w in traj.iterates[start:]])


def _slices(traj):
    """``traj`` cut with dataclasses.replace, as _write_eos cuts it, at each
    of ``slice_starts``."""
    for start in slice_starts(traj):
        yield start, dataclasses.replace(traj, times=traj.times[start:],
                                         iterates=traj.iterates[start:],
                                         losses=traj.losses[start:])


def _distinct_states(traj, start=0):
    """Rows before closed_at plus the phases present from closed_at on."""
    times = traj.times[start:]
    if traj.closed_at is None:
        return len(times)
    orbit = times >= traj.closed_at
    return int(np.sum(~orbit)) + len(np.unique(
        (times[orbit] - traj.closed_at) % traj.closed_period))


# (name, record_every, tail_window) of runs in d >= 2: closed densely, every
# 37th and every 1000th row, where most phases first appear in the dense
# tail; one stopped before it closes, and one that diverges
SHARPNESS_CASES = [
    ("stacked", 1, 4096),
    ("stacked", 37, 64),
    ("stacked", 1000, 64),
    ("period13_2d", 1, 4096),
    ("period13_2d", 37, 64),
    ("period13_2d", 1000, 64),
    ("period13_2d@open", 1, 4096),
    ("diverging", 7, 64),
]


class TestClosureAwareConsumers:
    """sharpness_series and trajectory_to_csv work once per distinct state
    of a closed orbit; every result must be the per-row one, byte for byte."""

    @pytest.mark.parametrize("name,record_every,tail_window", SHARPNESS_CASES)
    def test_sharpness_matches_per_row(self, name, record_every, tail_window, monkeypatch):
        obj, traj = closure_run(name, "logistic", record_every, tail_window)
        assert obj.dim >= 2
        calls = []

        def counted(m):
            calls.append(1)
            return lambda_max(m)

        by_row = _sharpness_by_row(obj, traj)
        for start, part in _slices(traj):
            want = by_row[start:]
            # on the slice, and through ``start`` on the whole run
            for args in ((part,), (traj, start)):
                calls.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(g.analysis, "lambda_max", counted)
                    got = g.sharpness_series(obj, *args)
                assert got.tobytes() == want.tobytes()
                assert len(calls) == _distinct_states(part)

    @pytest.mark.parametrize("name,record_every,tail_window", SHARPNESS_CASES + [
        ("period4_1d", 1, 4096),
        ("period4_1d", 1000, 64),
        ("chaotic_1d", 1, 4096),
    ])
    def test_csv_matches_per_value_formatting(self, name, record_every, tail_window):
        obj, traj = closure_run(name, "logistic", record_every, tail_window)
        for _, part in _slices(traj):
            sharp = g.sharpness_series(obj, part)
            for kwargs in ({}, {"sharpness": sharp, "include_w": False}):
                got = g.analysis.trajectory_to_csv(part, **kwargs)
                assert got == _trajectory_csv_by_value(part, **kwargs)

    def test_csv_with_a_sharpness_that_is_not_periodic(self):
        # the caller's column is compared by bytes with its phase's first row
        # before that row's text is reused
        obj, traj = closure_run("stacked")
        k0 = int(np.searchsorted(traj.times, traj.closed_at))
        periodic = g.sharpness_series(obj, traj)
        nan1, nan2 = np.array([0x7FF8000000000001, 0x7FF8000000000002]).view(float)
        broken = periodic.copy()
        broken[k0::4] = 0.0
        broken[k0 + 1::4] = nan1
        broken[[k0 + 40, k0 + 81, k0 + 502]] = -0.0, nan2, np.nextafter(broken[k0 + 502], 1.0)
        rng = np.random.default_rng(0)
        for sharp in (periodic, broken, rng.normal(size=len(traj.times)),
                      list(periodic.astype(np.float32))):
            for include_w in (True, False):
                got = g.analysis.trajectory_to_csv(traj, sharpness=sharp, include_w=include_w)
                assert got == _trajectory_csv_by_value(traj, sharpness=np.asarray(sharp),
                                                       include_w=include_w)

    def test_claimed_closure_that_does_not_hold(self):
        # a Trajectory built by hand may claim a closure its rows break
        rng = np.random.default_rng(1)
        obj = g.Objective(random_nonseparable(rng, 2), g.logistic())
        n = 500
        iterates = np.tile(rng.normal(size=(3, 2)), (n // 3 + 1, 1))[:n]
        iterates[[100, 250, 251]] += 1e-9
        traj = Trajectory(times=np.arange(n), iterates=iterates,
                          losses=np.array([obj.value(w) for w in iterates]), eta=1.0,
                          diverged=False, record_every=1, tail_window=n, max_iters=n - 1,
                          closed_at=3, closed_period=3)
        sharp = g.sharpness_series(obj, traj)
        assert sharp.tobytes() == _sharpness_by_row(obj, traj).tobytes()
        got = g.analysis.trajectory_to_csv(traj, sharpness=sharp)
        assert got == _trajectory_csv_by_value(traj, sharpness=sharp)
