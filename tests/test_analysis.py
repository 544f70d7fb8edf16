"""Cycle detection, periodograms, sweeps, basins, and sharpness series."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdcycles as g
from gdcycles.analysis import _CSV_BLOCK_ROWS, _dedup, sweep_to_csv
from gdcycles.dynamics import Trajectory
from gdcycles.objective import lambda_max
from conftest import RECIPE_P7, RECIPE_P13, closure_run, random_nonseparable, slice_starts


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
