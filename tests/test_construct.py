"""Counterexample generators: conflict datasets, kicked cycles, stacking."""

import math

import numpy as np
import pytest

import gdcycles as g
from conftest import RECIPE_P4, RECIPE_P7, bisect_root


class TestConflictDataset:
    def test_groups_and_counts(self):
        ds = g.make_toy(g.ToySpec(5, [0.6, 0.8]))
        assert ds.n_groups == 2
        np.testing.assert_array_equal(ds.counts, [4, 1])
        np.testing.assert_array_equal(ds.ys, [1, 1])
        np.testing.assert_allclose(ds.xs[0], -ds.xs[1])

    def test_curvature_and_smoothness_gap(self):
        # lambda = (n-1)/n^2 while L stays 1/4: the ratio grows with n
        for n, d in ((2, 1), (5, 2), (10, 2), (100, 2)):
            v = [1.0] if d == 1 else [0.6, 0.8]
            spec = g.ToySpec(n, v)
            obj = g.Objective(g.make_toy(spec), g.logistic())
            lam = g.lambda_max(obj.hessian(g.toy_minimizer(spec)))
            assert lam == pytest.approx(g.toy_lambda(n), abs=1e-12)
            assert obj.global_smoothness == pytest.approx(0.25, abs=1e-12)
        assert (2 / g.toy_lambda(10)) / (2 / 0.25) == pytest.approx(100 / 36, rel=1e-12)

    def test_never_separable(self):
        for n in (2, 7, 50):
            for v in ([1.0], [0.6, 0.8]):
                ds = g.make_toy(g.ToySpec(n, v))
                assert g.check_separable(ds).verdict == "non_separable"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            g.ToySpec(1, [1.0])
        with pytest.raises(ValueError):
            g.ToySpec(3, [0.6, 0.9])  # not unit


class TestScalarMap:
    def test_fixed_point(self):
        for n in (2, 3, 10):
            p = (n - 1) / n
            assert g.toy_map_step(n, 6.0, p) == pytest.approx(p, abs=1e-14)

    def test_iterate_matches_stepwise(self):
        seq = g.iterate_toy_map(3, 5.0, 0.3, 50)
        p = 0.3
        for t in range(1, 51):
            p = g.toy_map_step(3, 5.0, p)
            assert seq[t] == pytest.approx(p, abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            g.toy_map_step(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            g.iterate_toy_map(2, 1.0, 1.0, 5)

    @pytest.mark.parametrize("iters", [-1, True, 2.5], ids=repr)
    def test_iters_must_be_a_count(self, iters):
        # -1 once raised IndexError, True ran one step, 2.5 raised TypeError
        with pytest.raises(ValueError, match="iters must be an integer >= 0"):
            g.iterate_toy_map(3, 5.0, 0.3, iters)

    def test_zero_iters_gives_the_start(self):
        np.testing.assert_array_equal(g.iterate_toy_map(3, 5.0, 0.3, 0), [0.3])


class TestPeriod2Points:
    def test_at_threshold(self):
        assert g.period2_points(8.0) == (0.5, 0.5)

    def test_below_threshold_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            g.period2_points(7.9)

    def test_nan_undefined(self):
        # NaN fails eta < 8 as well as eta >= 8; unchecked, it returned a
        # made-up pair near (0.5, 0.5)
        with pytest.raises(ValueError, match="undefined"):
            g.period2_points(float("nan"))

    def test_solves_defining_equation(self):
        # check u = tanh((eta/8) u): this form stays well-conditioned as the
        # root approaches 1, where atanh amplifies one ulp of u enormously
        for eta in (8.5, 10.0, 16.0, 100.0):
            hi, lo = g.period2_points(eta)
            u = 2.0 * hi - 1.0
            assert u == pytest.approx(math.tanh((eta / 8.0) * u), abs=1e-12)
            assert hi + lo == pytest.approx(1.0, abs=1e-12)

    def test_independent_bisection_oracle(self):
        for eta in (8.5, 10.0, 16.0):
            u = bisect_root(lambda x: math.atanh(x) - (eta / 8.0) * x,
                            1e-6, 1.0 - 1e-12)
            hi, _ = g.period2_points(eta)
            assert hi == pytest.approx(0.5 * (1.0 + u), abs=1e-11)

    def test_points_are_period_2_of_scalar_map(self):
        for eta in (8.5, 10.0, 16.0):
            hi, lo = g.period2_points(eta)
            assert g.toy_map_step(2, eta, hi) == pytest.approx(lo, abs=1e-10)
            assert g.toy_map_step(2, eta, lo) == pytest.approx(hi, abs=1e-10)

    def test_frozen_value_eta_10(self):
        # frozen from the defining equation atanh(u) = 1.25 u
        hi, lo = g.period2_points(10.0)
        assert hi == pytest.approx(0.8552058917435871, abs=1e-12)
        assert lo == pytest.approx(1.0 - 0.8552058917435871, abs=1e-12)


class TestBuild1D:
    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            g.Recipe1D(200, 200, 20.0, 6, 1.9, 10.0)   # m must exceed n
        with pytest.raises(ValueError):
            g.Recipe1D(250, 200, 20.0, -1, 1.9, 10.0)
        with pytest.raises(ValueError):
            g.Recipe1D(250, 200, -5.0, 6, 1.9, 10.0)
        with pytest.raises(ValueError):
            g.Recipe1D(250, 200, 20.0, 6, 1.0, 10.0)   # gamma in (1, 2]

    def test_dataset_layout(self):
        ds, eta = g.build_1d(RECIPE_P4)
        assert ds.total_count == 456
        np.testing.assert_array_equal(ds.counts, [250, 200, 6])
        assert eta > 0

    def test_no_kick_when_b_zero(self):
        ds, _ = g.build_1d(g.Recipe1D(250, 200, 20.0, 0, 1.5, 10.0))
        assert ds.n_groups == 2

    def test_output_reverifies(self, cycle4):
        obj, sol, eta, traj, rep = cycle4
        assert g.check_separable(obj.ds).verdict == "non_separable"
        assert np.all(np.isfinite(sol.w_star))
        assert eta < sol.eta_two_lambda  # strictly below critical

    def test_resolved_eta_uses_full_dataset(self, cycle4):
        obj, sol, eta, traj, rep = cycle4
        assert eta == pytest.approx(1.9 / sol.lambda_star, rel=1e-14)
        # the kick shifts the curvature, so the base-only value differs
        base = g.Objective(g.parse_compact("250 1 1\n200 1 -1\n"), g.logistic())
        lam_base = g.minimize(base).lambda_star
        assert abs(sol.lambda_star - lam_base) > 1e-4


class TestHunt1D:
    def test_pinned_ranges_return_known_recipe(self):
        rec = g.hunt_1d(1.9, m_range=(250,), n_range=(200,),
                        x_big_range=(20.0,), b_range=(6,))
        assert (rec.m, rec.n, rec.x_big, rec.b) == (250, 200, 20.0, 6)
        assert rec.w0 in g.construct.HUNT_W0_GRID

    def test_found_recipe_self_verifies(self):
        rec = g.hunt_1d(1.5, x_big_range=(70.0,), b_range=(4, 15))
        ds, eta = g.build_1d(rec)
        obj = g.Objective(ds, g.logistic())
        traj = g.run(obj, g.GDConfig(w0=[rec.w0], max_iters=60_000, eta=eta))
        rep = g.detect_cycle(obj, traj, k_max=256)
        assert rep.kind == "cycle"
        assert rep.multiplier < 1.0

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError):
            g.hunt_1d(1.0)

    def test_candidate_whose_minimizer_fails_is_skipped(self, monkeypatch):
        # minimize fails for the b = 5 candidate only; the search goes on
        # to b = 6, the recipe the pinned search above returns
        real = g.construct.minimize

        def failing_for_b5(obj, *args, **kwargs):
            if obj.ds.counts[-1] == 5:
                raise g.ConvergenceError("Newton did not converge")
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(g.construct, "minimize", failing_for_b5)
        rec = g.hunt_1d(1.9, m_range=(250,), n_range=(200,),
                        x_big_range=(20.0,), b_range=(5, 6))
        assert (rec.m, rec.n, rec.x_big, rec.b) == (250, 200, 20.0, 6)

    def test_skipped_candidates_are_counted(self, monkeypatch):
        def failing(obj, *args, **kwargs):
            raise g.ConvergenceError("Newton did not converge")

        monkeypatch.setattr(g.construct, "minimize", failing)
        with pytest.raises(g.ConvergenceError,
                           match=r"no cycle found in search space \(tried 3 candidates, "
                                 r"3 skipped\)"):
            g.hunt_1d(1.9, x_big_range=(20.0,), b_range=(4, 5, 6))
        with pytest.raises(g.ConvergenceError,
                           match=r"within budget=2 \(2 candidates skipped\)"):
            g.hunt_1d(1.9, x_big_range=(20.0,), b_range=(4, 5, 6), budget=2)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(g.construct, "HUNT_ITERS", 20_000)
        monkeypatch.setattr(g.construct, "HUNT_W0_GRID", (1.0,))
        monkeypatch.setattr(g.construct, "HUNT_K_MAX", 64)
        with pytest.raises(g.ConvergenceError, match="no cycle found"):
            g.hunt_1d(1.5, x_big_range=(2.0,), b_range=(1,), budget=1)


class TestBuild2D:
    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            g.Recipe2D(30, 500, 5, 1, ((1.0, 1.0), 1), ((1.0, -1.0), 1), 0.4, (1.0, 1.0))
        with pytest.raises(ValueError):
            # slope ordering: first axis must dominate
            g.Recipe2D(10, 9, 500, 1, ((1.0, 1.0), 1), ((1.0, -1.0), 1), 0.4, (1.0, 1.0))
        with pytest.raises(ValueError):
            g.Recipe2D(500, 30, 5, 1, ((1.0, 1.0), -2), ((1.0, -1.0), 1), 0.4, (1.0, 1.0))
        with pytest.raises(ValueError):
            g.Recipe2D(500, 30, 5, 1, ((1.0, 1.0), 1), ((1.0, -1.0), 1), 2.4, (1.0, 1.0))

    def test_output_reverifies(self, cycle13):
        obj, sol, eta, traj, rep = cycle13
        assert g.check_separable(obj.ds).verdict == "non_separable"
        assert eta < sol.eta_two_lambda
        assert eta == pytest.approx(0.4 / sol.lambda_star, rel=1e-14)

    def test_kicks_removed_converges_from_same_start(self):
        recipe = g.Recipe2D(500, 30, 5, 1, ((45.0, -70.0), 0), ((7.5, 50.0), 0),
                            0.4, (15.0, 4.0))
        ds, eta = g.build_2d(recipe)
        assert ds.n_groups == 4
        obj = g.Objective(ds, g.logistic())
        traj = g.run(obj, g.GDConfig(w0=[15.0, 4.0], max_iters=20_000, eta=eta,
                                     tail_window=256))
        rep = g.detect_cycle(obj, traj, k_max=64)
        assert rep.kind == "fixed_point"


class TestCoStability:
    def test_fixed_point_attracts_near_w_star(self, cycle4, cycle13):
        for obj, sol, eta, traj, rep in (cycle4, cycle13):
            w0 = sol.w_star + 1e-6 * np.ones_like(sol.w_star)
            t2 = g.run(obj, g.GDConfig(w0=w0, max_iters=5000, eta=eta,
                                       tail_window=256))
            r2 = g.detect_cycle(obj, t2, k_max=64)
            assert r2.kind == "fixed_point"
            assert np.max(np.abs(r2.orbit[0] - sol.w_star)) < 1e-6


class TestKroneckerStack:
    def test_layout(self):
        ds = g.parse_compact("3 1 1\n2 1 -1\n")
        st = g.kronecker_stack(ds, 3)
        assert st.dim == 3 and st.n_groups == 6
        assert st.total_count == 3 * ds.total_count
        np.testing.assert_array_equal(st.xs[2], [0.0, 1.0, 0.0])

    def test_k_validation(self):
        ds = g.parse_compact("3 1 1\n2 1 -1\n")
        with pytest.raises(ValueError):
            g.kronecker_stack(ds, 1)

    @pytest.mark.parametrize("k", [2.5, 3.0, True], ids=repr)
    def test_k_must_be_a_count(self, k):
        # 2.5 and 3.0 once raised TypeError from np.zeros
        ds = g.parse_compact("3 1 1\n2 1 -1\n")
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            g.kronecker_stack(ds, k)

    def test_hessian_block_diagonal_exact(self):
        ds = g.parse_compact("3 1 1\n2 1 -1\n")
        st = g.kronecker_stack(ds, 3)
        obj = g.Objective(st, g.logistic())
        h = obj.hessian(np.array([0.3, -1.2, 0.7]))
        off = h - np.diag(np.diag(h))
        assert np.all(off == 0.0)

    def test_lambda_scales_down_by_k(self):
        ds = g.parse_compact("5 1 1\n3 1 -1\n")
        base = g.Objective(ds, g.logistic())
        sol = g.minimize(base)
        for k in (2, 4):
            st = g.Objective(g.kronecker_stack(ds, k), g.logistic())
            w_rep = np.repeat(sol.w_star, k)
            lam = g.lambda_max(st.hessian(w_rep))
            assert lam == pytest.approx(sol.lambda_star / k, rel=1e-12)
        # minimize's own lambda* on the recipes' stacks past d = 4
        for recipe in (RECIPE_P4, RECIPE_P7):
            ds = g.build_1d(recipe)[0]
            sol = g.minimize(g.Objective(ds, g.logistic()))
            for k in (5, 7, 8):
                sol_st = g.minimize(g.Objective(g.kronecker_stack(ds, k), g.logistic()))
                assert sol_st.lambda_star * k == pytest.approx(sol.lambda_star, rel=1e-12)

    def test_minimizer_is_base_repeated(self):
        ds = g.parse_compact("5 1 1\n3 1 -1\n")
        sol = g.minimize(g.Objective(ds, g.logistic()))
        st = g.Objective(g.kronecker_stack(ds, 3), g.logistic())
        sol_st = g.minimize(st)
        np.testing.assert_allclose(sol_st.w_star, np.repeat(sol.w_star, 3),
                                   atol=1e-10)
        # the recipes' stacks past d = 4, to rounding: Newton ends at gradient
        # norms far below tol, so w* does not depend on where the stop fell
        for recipe in (RECIPE_P4, RECIPE_P7):
            ds = g.build_1d(recipe)[0]
            sol = g.minimize(g.Objective(ds, g.logistic()))
            for k in (5, 7, 8):
                sol_st = g.minimize(g.Objective(g.kronecker_stack(ds, k), g.logistic()))
                np.testing.assert_allclose(sol_st.w_star, np.repeat(sol.w_star, k),
                                           rtol=0, atol=1e-12)

    def test_gradient_scales_and_step_cancels(self):
        rng = np.random.default_rng(3)
        ds = g.parse_compact("5 1 1\n3 1 -1\n")
        base = g.Objective(ds, g.logistic())
        k = 3
        st = g.Objective(g.kronecker_stack(ds, k), g.logistic())
        for _ in range(10):
            blocks = rng.normal(size=k)
            W = blocks.copy()
            grad_st = st.gradient(W)
            for j in range(k):
                want = base.gradient(np.array([blocks[j]]))[0] / k
                assert grad_st[j] == pytest.approx(want, abs=1e-15)
            # one stacked step at k*eta equals per-block steps at eta
            eta = 0.7
            stepped = g.gd_step(st, W, k * eta)
            for j in range(k):
                want = g.gd_step(base, np.array([blocks[j]]), eta)[0]
                assert stepped[j] == pytest.approx(want, abs=1e-12)


class TestEosDemo:
    @pytest.mark.parametrize("k", [2.5, 1, True], ids=repr)
    def test_k_checked_before_the_base_run(self, monkeypatch, k):
        # k = 2.5 once ran the whole base run, then raised ConvergenceError
        def no_run(*args, **kwargs):
            raise AssertionError("eos_demo ran GD before checking k")

        monkeypatch.setattr(g.construct, "run", no_run)
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            g.eos_demo(RECIPE_P4, k, iters=60_000)

    def test_wrong_period_rejected(self):
        with pytest.raises(g.ConvergenceError, match="period"):
            g.eos_demo(RECIPE_P4, 5, iters=60_000)

    def test_phase_offset_initialization(self):
        stacked, eta, w0 = g.eos_demo(RECIPE_P4, 4, iters=60_000)
        assert stacked.dim == 4
        assert len(w0) == 4
        # blocks advance one phase per step: the state vector rotates
        obj = g.Objective(stacked, g.logistic())
        w1 = g.gd_step(obj, w0, eta)
        np.testing.assert_allclose(w1, np.roll(w0, -1), atol=1e-6)
