"""GD map iteration, trajectories, the probability-space recurrence, and
orbit stability estimates."""

import math

import numpy as np
import pytest

import gdcycles as g
from conftest import admissible_1d, random_nonseparable


def toy3_objective():
    """Full-rank 1D conflict dataset with an asymmetric 2-cycle past 2/lambda
    (= 9 for n=3): the two orbit points carry different losses."""
    return g.Objective(g.make_toy(g.ToySpec(3, [1.0])), g.logistic())


class TestGdStep:
    def test_fixed_point_at_all_critical_etas(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            obj = g.Objective(random_nonseparable(rng, 2), g.logistic())
            sol = g.minimize(obj)
            for eta in (sol.eta_two_L, sol.eta_one_lambda, sol.eta_two_lambda):
                out = g.gd_step(obj, sol.w_star, eta)
                assert np.max(np.abs(out - sol.w_star)) < 1e-10

    def test_saturated_region_moves_exactly_eta_c(self):
        # single positive example: at w = -50 the slope has saturated to
        # exactly -1.0 in float64, so the step is exactly eta
        ds = g.parse_compact("1 1 1\n")
        obj = g.Objective(ds, g.logistic())
        w = np.array([-50.0])
        out = g.gd_step(obj, w, eta=3.5)
        assert out[0] == -50.0 + 3.5

    def test_eta_must_be_positive(self):
        obj = toy3_objective()
        with pytest.raises(ValueError):
            g.gd_step(obj, np.zeros(1), 0.0)

    def test_step_many_matches_gd_step(self):
        rng = np.random.default_rng(1)
        obj = g.Objective(random_nonseparable(rng, 3), g.logistic())
        W = rng.normal(size=(8, 3))
        batch = g.step_many(obj, W, 0.7)
        for i in range(8):
            np.testing.assert_allclose(batch[i], g.gd_step(obj, W[i], 0.7),
                                       rtol=1e-14, atol=1e-15)

    def test_step_many_per_row_and_per_layer_eta(self):
        # an eta column steps each row as a scalar eta steps that row of the
        # same batch; an (s, 1, 1) eta steps each layer of a stack as its
        # own batch, bit for bit
        rng = np.random.default_rng(2)
        obj = g.Objective(random_nonseparable(rng, 3), g.logistic())
        W = rng.normal(size=(5, 3))
        etas = np.array([0.1, 0.7, 1.3, 2.0, 4.5])
        batch = g.step_many(obj, W, etas[:, None])
        for i, eta in enumerate(etas):
            np.testing.assert_array_equal(batch[i], g.step_many(obj, W, eta)[i])
        stack = rng.normal(size=(4, 5, 3))
        layers = g.step_many(obj, stack, etas[:4, None, None])
        for j in range(4):
            np.testing.assert_array_equal(layers[j], g.step_many(obj, stack[j], etas[j]))


class TestRun:
    def test_converges_below_two_over_L(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            obj = g.Objective(random_nonseparable(rng, 2), g.logistic())
            sol = g.minimize(obj)
            cfg = g.GDConfig(w0=rng.normal(size=2) * 10, max_iters=20_000,
                             eta=0.9 * sol.eta_two_L)
            traj = g.run(obj, cfg)
            assert not traj.diverged
            assert np.linalg.norm(obj.gradient(traj.iterates[-1])) < 1e-8

    def test_divergence_sets_flag_not_raise(self):
        # separable single-example data with an absurd step size walks the
        # iterate past the norm guard immediately
        ds = g.parse_compact("1 1 1\n")
        obj = g.Objective(ds, g.logistic())
        traj = g.run(obj, g.GDConfig(w0=[0.0], max_iters=100, eta=1e13))
        assert traj.diverged
        assert len(traj.iterates) < 101

    def test_recording_subsample_plus_dense_tail(self):
        obj = toy3_objective()
        cfg = g.GDConfig(w0=[2.0], max_iters=5000, eta=1.0,
                         record_every=100, tail_window=512)
        traj = g.run(obj, cfg)
        tail = traj.dense_tail()
        assert len(tail) >= 512
        assert np.all(np.diff(traj.times) >= 1)
        # early region is subsampled, late region dense
        assert traj.times[1] - traj.times[0] == 100
        assert traj.times[-1] == 5000 and traj.times[-2] == 4999

    def test_losses_match_value(self):
        obj = toy3_objective()
        traj = g.run(obj, g.GDConfig(w0=[1.5], max_iters=100, eta=2.0))
        for i in range(0, 101, 10):
            assert traj.losses[i] == pytest.approx(obj.value(traj.iterates[i]), abs=1e-12)

    def test_gamma_resolution_needs_solution(self):
        obj = toy3_objective()
        cfg = g.GDConfig(w0=[1.0], max_iters=10, gamma=0.5)
        with pytest.raises(ValueError):
            g.run(obj, cfg)
        sol = g.minimize(obj)
        traj = g.run(obj, cfg, solution=sol)
        assert traj.eta == pytest.approx(0.5 / sol.lambda_star)

    def test_eta_xor_gamma(self):
        with pytest.raises(ValueError):
            g.resolve_eta(eta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            g.resolve_eta()

    @pytest.mark.parametrize("w0", [[math.nan], [1.0, math.inf]])
    def test_non_finite_w0_rejected(self, w0):
        with pytest.raises(ValueError, match="w0 must be finite"):
            g.GDConfig(w0=w0, max_iters=10, eta=1.0)


class TestInvariantRayProperties:
    """w* > 0, eta <= 1/L''(w*): the ray [w*, inf) maps into itself and
    contracts at the strongly-convex rate on bounded segments."""

    def test_invariant_set(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 1000:
            obj, sol = admissible_1d(rng, g.logistic(), require_skew=False)
            ws = sol.w_star[0]
            s = 1.0 if ws >= 0 else -1.0
            eta = 1.0 / sol.lambda_star
            for _ in range(10):
                w = ws + s * float(rng.uniform(0.0, 50.0))
                out = g.gd_step(obj, np.array([w]), eta)[0]
                assert s * out >= s * ws - 1e-12
                assert s * out <= s * w + 1e-12
                checked += 1

    def test_linear_rate_inside_segment(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            obj, sol = admissible_1d(rng, g.squareplus(), require_skew=False)
            ws = sol.w_star[0]
            s = 1.0 if ws >= 0 else -1.0
            eta = 1.0 / sol.lambda_star
            w0 = ws + s * float(rng.uniform(0.1, 10.0))
            rate = 1.0 - eta * obj.hessian(np.array([w0]))[0, 0]
            w = w0
            for _ in range(50):
                nxt = g.gd_step(obj, np.array([w]), eta)[0]
                if s * ws <= s * w <= s * w0:
                    assert (nxt - ws) ** 2 <= rate * (w - ws) ** 2 + 1e-18
                w = nxt


class TestProbabilityRecurrence:
    def test_requires_logistic(self):
        obj = g.Objective(g.make_toy(g.ToySpec(3, [1.0])), g.squareplus())
        with pytest.raises(TypeError):
            g.prob_step(obj, np.array([0.5, 0.5]), 1.0)

    def test_rejects_saturated_probabilities(self):
        obj = toy3_objective()
        with pytest.raises(ValueError):
            g.prob_step(obj, np.array([0.5, 1.0]), 1.0)
        with pytest.raises(ValueError):
            g.prob_step(obj, np.array([0.0, 0.5]), 1.0)

    def test_reduces_to_scalar_map_on_conflict_dataset(self):
        obj = g.Objective(g.make_toy(g.ToySpec(10, [1.0])), g.logistic())
        for p_n in (0.1, 0.37, 0.9, 0.99):
            got = g.prob_step(obj, np.array([1.0 - p_n, p_n]), 5.0)
            want = g.toy_map_step(10, 5.0, p_n)
            assert got[1] == pytest.approx(want, abs=1e-14)
            assert got[0] == pytest.approx(1.0 - want, abs=1e-14)

    def test_fixed_point_is_n_minus_1_over_n(self):
        for n in (2, 5, 10):
            obj = g.Objective(g.make_toy(g.ToySpec(n, [1.0])), g.logistic())
            p_star = np.array([1.0 / n, (n - 1) / n])
            out = g.prob_step(obj, p_star, eta=4.0)
            np.testing.assert_allclose(out, p_star, atol=1e-14)
            # same point expressed through the weights
            np.testing.assert_allclose(
                g.probs_from_weights(obj, g.toy_minimizer(g.ToySpec(n, [1.0]))),
                p_star, atol=1e-12)

    def test_two_example_cycle_matches_closed_form(self):
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
        p0 = np.array([0.4, 0.6])
        seq = g.run_prob(obj, p0, eta=10.0, iters=10_000)
        tail = np.sort(seq[-2:, 1])
        hi, lo = g.period2_points(10.0)
        assert tail[0] == pytest.approx(lo, abs=1e-9)
        assert tail[1] == pytest.approx(hi, abs=1e-9)

    def test_rank_one_dataset_cross_representation(self):
        # the rank-1 conflict dataset has no unique weight-space minimizer,
        # but a weight trajectory started along v still maps onto the
        # probability recurrence exactly
        v = np.array([0.6, 0.8])
        obj = g.Objective(g.make_toy(g.ToySpec(5, v)), g.logistic())
        eta, w0 = 12.0, 2.0 * v
        traj = g.run(obj, g.GDConfig(w0=w0, max_iters=500, eta=eta))
        probs = g.run_prob(obj, g.probs_from_weights(obj, w0), eta, 500)
        mapped = np.array([g.probs_from_weights(obj, w) for w in traj.iterates])
        assert np.max(np.abs(probs - mapped)) < 1e-8

    def test_weight_space_consistency(self):
        # mapping a weight trajectory through sigma(-y_i w.x_i) reproduces
        # the probability recurrence over 1000 steps
        rng = np.random.default_rng(5)
        for _ in range(3):
            obj = g.Objective(random_nonseparable(rng, 2), g.logistic())
            sol = g.minimize(obj)
            eta = 0.8 * sol.eta_two_L
            w0 = rng.normal(size=2)
            traj = g.run(obj, g.GDConfig(w0=w0, max_iters=1000, eta=eta))
            probs = g.run_prob(obj, g.probs_from_weights(obj, w0), eta, 1000)
            mapped = np.array([g.probs_from_weights(obj, w) for w in traj.iterates])
            assert np.max(np.abs(probs - mapped)) < 1e-8


class TestOrbitDiagnostics:
    def test_single_point_multiplier_1d(self):
        obj = toy3_objective()
        sol = g.minimize(obj)
        for eta in (0.3 * sol.eta_two_lambda, 0.9 * sol.eta_two_lambda):
            got = g.orbit_multiplier(obj, [sol.w_star], eta)
            assert got == pytest.approx(abs(1.0 - eta * sol.lambda_star), abs=1e-10)
            assert got < 1.0
        at_boundary = g.orbit_multiplier(obj, [sol.w_star], sol.eta_two_lambda)
        assert at_boundary == pytest.approx(1.0, abs=1e-12)

    def test_single_point_multiplier_2d(self):
        # spectral radius of I - eta H: the small eigenvalue can dominate
        rng = np.random.default_rng(6)
        obj = g.Objective(random_nonseparable(rng, 2), g.logistic())
        sol = g.minimize(obj)
        eigs = np.linalg.eigvalsh(obj.hessian(sol.w_star))
        for eta in (0.3 * sol.eta_two_lambda, 0.9 * sol.eta_two_lambda):
            got = g.orbit_multiplier(obj, [sol.w_star], eta)
            assert got == pytest.approx(np.max(np.abs(1.0 - eta * eigs)), abs=1e-10)
            assert got < 1.0
        at_boundary = g.orbit_multiplier(obj, [sol.w_star], sol.eta_two_lambda)
        assert at_boundary == pytest.approx(1.0, abs=1e-12)

    def test_empty_orbit_rejected(self):
        obj = toy3_objective()
        with pytest.raises(ValueError):
            g.orbit_multiplier(obj, np.empty((0, 1)), 1.0)

    def test_detected_cycle_multiplier_and_lyapunov_consistent(self):
        # asymmetric two-point oscillation: lyapunov ~ log(multiplier)/k
        obj = toy3_objective()
        sol = g.minimize(obj)
        eta = 1.08 * sol.eta_two_lambda
        traj = g.run(obj, g.GDConfig(w0=[1.3], max_iters=30_000, eta=eta))
        rep = g.detect_cycle(obj, traj)
        assert rep.kind == "cycle" and rep.period == 2
        assert rep.multiplier < 1.0
        assert rep.lyapunov == pytest.approx(math.log(rep.multiplier) / 2.0, abs=1e-3)

    def test_convergent_run_negative_lyapunov(self):
        rng = np.random.default_rng(7)
        obj = g.Objective(random_nonseparable(rng, 2), g.logistic())
        sol = g.minimize(obj)
        traj = g.run(obj, g.GDConfig(w0=[3.0, -1.0], max_iters=3000,
                                     eta=0.9 * sol.eta_two_L))
        lyap = g.lyapunov(obj, traj, traj.eta, burn_in=500)
        assert lyap < 0.0

    def test_lyapunov_needs_dense_recording(self):
        obj = toy3_objective()
        traj = g.run(obj, g.GDConfig(w0=[1.0], max_iters=5000, eta=1.0,
                                     record_every=2))
        with pytest.raises(ValueError):
            g.lyapunov(obj, traj, 1.0, burn_in=10)

    def test_lyapunov_needs_enough_samples(self):
        obj = toy3_objective()
        traj = g.run(obj, g.GDConfig(w0=[1.0], max_iters=500, eta=1.0))
        with pytest.raises(ValueError):
            g.lyapunov(obj, traj, 1.0, burn_in=100)
