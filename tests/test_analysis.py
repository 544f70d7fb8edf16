"""Cycle detection, periodograms, sweeps, basins, and sharpness series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdcycles as g
from gdcycles.analysis import _dedup, sweep_to_csv
from gdcycles.dynamics import Trajectory
from conftest import RECIPE_P7, RECIPE_P13, random_nonseparable


def toy3_objective():
    return g.Objective(g.make_toy(g.ToySpec(3, [1.0])), g.logistic())


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

    @pytest.mark.parametrize("case", ["diverging-1d", "nine-inits-2d"])
    def test_blocks_match_one_step_size_sweeps(self, case):
        # the grids span several row blocks; each cell must equal, bit for
        # bit, the cell of a sweep over its step size alone.  Nine inits is
        # not a multiple of BLAS's row unrolling, so a flat (rows, d) batch
        # would round some rows differently from a nine-row one.
        if case == "diverging-1d":
            obj = g.Objective(g.parse_compact("1 1 1\n"), g.logistic())
            grid, kw = np.geomspace(1.0, 1e13, 30), {"n_inits": 5, "T": 2000}
        else:
            obj = g.Objective(random_nonseparable(np.random.default_rng(4), 2), g.logistic())
            grid = np.linspace(0.5, 1.6, 8) * g.minimize(obj).eta_two_lambda
            kw = {"n_inits": 9, "T": 1200, "pn_group": 1}
        sweep = g.bifurcation_sweep(obj, grid, seed=5, **kw)
        assert len(sweep.cells) > 64
        singles = [c for eta in grid
                   for c in g.bifurcation_sweep(obj, [eta], seed=5, **kw).cells]
        assert len(singles) == len(sweep.cells)
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

    def test_psd_csv(self):
        res = g.psd(np.tile([1.0, 2.0], 64), window=128)
        text = g.analysis.psd_to_csv(res)
        assert text.splitlines()[0] == "freq,power"
        assert len(text.splitlines()) == 66
