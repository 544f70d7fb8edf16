"""Objective evaluation against independent oracles, eigenvalue and
minimizer machinery."""

import math

import numpy as np
import pytest

import gdcycles as g
from gdcycles.objective import _GUARD_LOOP_MAX, DIVERGENCE_NORM, diverged
from conftest import (
    bisect_root,
    fd_gradient,
    fd_jacobian,
    golden_section,
    jacobi_eigenvalues,
    random_nonseparable,
)


def base_1d():
    """250 copies of +1 against 200 copies of -1, labels +1."""
    return g.parse_compact("250 1 1\n200 1 -1\n")


class TestValue:
    def test_any_dataset_at_zero_is_log2(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            ds = random_nonseparable(rng, d)
            obj = g.Objective(ds, g.logistic())
            assert obj.value(np.zeros(d)) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_matches_golden_section_minimum(self):
        # independent scalar minimization of (250 l(-w) + 200 l(w)) / 450
        lo = g.logistic()
        obj = g.Objective(base_1d(), lo)

        def f(w):
            return (250.0 * lo.f(-w) + 200.0 * lo.f(w)) / 450.0

        # value-based search localizes the flat bottom to ~sqrt(eps) only
        w_oracle = golden_section(f, -2.0, 2.0)
        sol = g.minimize(obj)
        assert sol.w_star[0] == pytest.approx(w_oracle, abs=1e-7)
        assert obj.value(sol.w_star) == pytest.approx(f(w_oracle), rel=1e-12)

    def test_conflict_dataset_orthogonal_direction(self):
        spec = g.ToySpec(4, [0.6, 0.8])
        obj = g.Objective(g.make_toy(spec), g.logistic())
        w_perp = np.array([-0.8, 0.6]) * 3.7
        assert obj.value(w_perp) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_nonfinite_value_raises(self):
        bad = g.ScalarLoss("inf", lambda z: np.full_like(np.asarray(z, float), np.inf),
                           g.logistic().d1, g.logistic().d2)
        obj = g.Objective(base_1d(), bad)
        with pytest.raises(FloatingPointError):
            obj.value(np.array([1.0]))


class TestGradientHessianOracles:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for i in range(50):
            d = int(rng.integers(1, 5))
            loss = g.logistic() if i % 2 == 0 else g.squareplus()
            obj = g.Objective(random_nonseparable(rng, d), loss)
            w = rng.uniform(-2.0, 2.0, size=d)
            grad = obj.gradient(w)
            fd = fd_gradient(obj.value, w, h=1e-6)
            denom = 1e-9 + np.linalg.norm(grad)
            assert np.linalg.norm(fd - grad) / denom < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for i in range(50):
            d = int(rng.integers(1, 5))
            loss = g.logistic() if i % 2 == 0 else g.squareplus()
            obj = g.Objective(random_nonseparable(rng, d), loss)
            w = rng.uniform(-2.0, 2.0, size=d)
            hess = obj.hessian(w)
            fd = fd_jacobian(obj.gradient, w, h=1e-6)
            denom = 1e-9 + np.linalg.norm(hess)
            assert np.linalg.norm(fd - hess) / denom < 1e-5

    def test_conflict_dataset_gradient_identity(self):
        # (1/n) (n sigma(v.w) - (n-1)) v, for 100 random w
        rng = np.random.default_rng(3)
        n = 7
        v = np.array([0.6, 0.8])
        obj = g.Objective(g.make_toy(g.ToySpec(n, v)), g.logistic())
        for _ in range(100):
            w = rng.normal(scale=3.0, size=2)
            s = 1.0 / (1.0 + math.exp(-float(v @ w)))
            want = (n * s - (n - 1)) / n * v
            np.testing.assert_allclose(obj.gradient(w), want, atol=1e-14)

    def test_conflict_dataset_hessian_identity(self):
        rng = np.random.default_rng(4)
        v = np.array([0.6, 0.8])
        obj = g.Objective(g.make_toy(g.ToySpec(5, v)), g.logistic())
        for _ in range(20):
            w = rng.normal(size=2)
            s = 1.0 / (1.0 + math.exp(-float(v @ w)))
            want = s * (1.0 - s) * np.outer(v, v)
            np.testing.assert_allclose(obj.hessian(w), want, atol=1e-15)

    def test_axis_aligned_hessian_offdiagonal_exactly_zero(self):
        ds = g.parse_compact("5 1 1 0\n3 1 -1 0\n4 1 0 1\n2 1 0 -1\n")
        obj = g.Objective(ds, g.logistic())
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = obj.hessian(rng.normal(size=2))
            assert h[0, 1] == 0.0 and h[1, 0] == 0.0

    def test_scale_covariance(self):
        rng = np.random.default_rng(6)
        ds = random_nonseparable(rng, 3)
        scaled = g.Dataset(ds.xs, ds.ys, ds.counts * 7)
        a = g.Objective(ds, g.logistic())
        b = g.Objective(scaled, g.logistic())
        for _ in range(10):
            w = rng.normal(size=3)
            assert a.value(w) == pytest.approx(b.value(w), rel=1e-14)
            np.testing.assert_allclose(a.gradient(w), b.gradient(w), rtol=1e-13, atol=1e-16)
            np.testing.assert_allclose(a.hessian(w), b.hessian(w), rtol=1e-13, atol=1e-16)


class TestDiverged:
    @pytest.mark.parametrize("value,want", [
        (np.nan, True), (np.inf, True), (-np.inf, True),
        (1e12, False), (-1e12, False),
        (np.nextafter(1e12, np.inf), True), (-np.nextafter(1e12, np.inf), True),
        (-0.0, False), (0.0, False),
    ], ids=["nan", "inf", "-inf", "bound", "-bound", "past-bound", "-past-bound",
            "-0", "0"])
    def test_values(self, value, want):
        assert DIVERGENCE_NORM == 1e12
        w = np.array([value])
        assert diverged(w) is want
        # one coordinate beyond the bound is enough, wherever it sits
        assert diverged(np.array([0.5, value, -3.0])) is want

    def test_one_dimensional_state_gives_one_bool(self):
        assert diverged(np.array([1.0, -2.0])) is False
        assert diverged(np.array([1.0, np.nan])) is True

    def test_stack_mask_per_state(self):
        W = np.zeros((3, 4, 2))
        W[0, 1, 0] = np.nan
        W[2, 3, 1] = -np.inf
        W[1, 2, 0] = np.nextafter(1e12, np.inf)
        W[2, 0, 1] = 1e12
        mask = diverged(W, axis=-1)
        assert mask.shape == (3, 4) and mask.dtype == bool
        want = np.zeros((3, 4), dtype=bool)
        want[0, 1] = want[2, 3] = want[1, 2] = True
        np.testing.assert_array_equal(mask, want)
        assert diverged(W)
        assert not diverged(np.where(np.isfinite(W) & (np.abs(W) <= 1e12), W, 0.0))


# ±0.0, subnormals, the bound and the next floats past it, ±inf and NaN
_EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e12, -1e12, np.nextafter(1e12, np.inf),
         -np.nextafter(1e12, np.inf), np.nextafter(1e12, 0.0), np.inf, -np.inf, np.nan, 3.5]


def _guard_on_arrays(w):
    """The guard's array path, the only one before states of one axis were
    answered from Python floats: one ``np.abs`` and one reduction."""
    return not np.maximum.reduce(np.abs(w)) <= DIVERGENCE_NORM


class TestDivergedOneState:
    """A 1-D state of up to _GUARD_LOOP_MAX coordinates is answered from
    Python floats; the answer is the array path's for every value."""

    def check(self, w):
        want = _guard_on_arrays(w)
        assert diverged(w) is want
        assert bool(diverged(w[None], axis=-1)[0]) is want
        return want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, _GUARD_LOOP_MAX,
                                   _GUARD_LOOP_MAX + 1, 1000])
    def test_edge_values_at_every_length(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            self.check(rng.choice(_EDGE, size=n))
        for value in _EDGE:
            w = rng.uniform(-1e12, 1e12, n)
            for i in range(n):
                v = w.copy()
                v[i] = value
                self.check(v)

    def test_nan_at_every_position(self):
        for n in (1, 2, 3, 8, _GUARD_LOOP_MAX, _GUARD_LOOP_MAX + 1, 1000):
            for i in range(n):
                w = np.zeros(n)
                w[i] = np.nan
                assert self.check(w) is True

    def test_views_and_dtypes(self):
        base = np.array([[1.0, np.nextafter(1e12, np.inf)], [2.0, 1e12], [-3.0, -0.0]])
        assert self.check(base[:, 1]) is True                # a strided column
        assert self.check(base[1:, 1]) is False
        assert self.check(base[::-1, 0]) is False
        assert self.check(np.arange(10.0)[::3]) is False
        ints = np.array([0, -7, 10**12, -10**12])
        assert self.check(ints) is False
        assert self.check(np.append(ints, 10**12 + 1)) is True
        assert self.check(np.append(ints, -10**12 - 1)) is True
        f32 = np.array([1e12, -1e12, 0.0], dtype=np.float32)
        assert self.check(f32) is False
        assert self.check(np.append(f32, np.nextafter(np.float32(1e12), np.float32(np.inf))))
        for value in (np.inf, -np.inf, np.nan):
            assert self.check(np.append(f32, np.float32(value))) is True

    @pytest.mark.parametrize("dtype", [float, np.float32, np.int64])
    def test_empty_state_raises(self, dtype):
        with pytest.raises(ValueError):
            diverged(np.zeros(0, dtype=dtype))
        with pytest.raises(ValueError):
            _guard_on_arrays(np.zeros(0, dtype=dtype))


class TestLambdaMax:
    def test_conflict_dataset_values(self):
        for n in (2, 10):
            spec = g.ToySpec(n, [1.0])
            obj = g.Objective(g.make_toy(spec), g.logistic())
            lam = g.lambda_max(obj.hessian(g.toy_minimizer(spec)))
            assert lam == pytest.approx((n - 1) / n**2, abs=1e-12)

    def test_identity(self):
        assert g.lambda_max(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.normal(size=(5, 5))
            m = 0.5 * (m + m.T)
            want = jacobi_eigenvalues(m)[-1]
            assert g.lambda_max(m) == pytest.approx(want, abs=1e-9)

    def test_negative_dominant_eigenvalue(self):
        # largest algebraic eigenvalue, not largest magnitude
        m = np.diag([-10.0, 3.0, 1.0])
        assert g.lambda_max(m) == pytest.approx(3.0, abs=1e-9)

    def test_zero_matrix(self):
        assert g.lambda_max(np.zeros((4, 4))) == 0.0

    def test_cap_raises_with_last_estimate(self):
        m = np.diag([1.0, 1.0 - 1e-9, 0.5])
        with pytest.raises(g.PowerIterationError) as exc:
            g.lambda_max(m, max_iters=3)
        assert hasattr(exc.value, "last_estimate")


class TestMinimize:
    def test_base_1d_closed_form(self):
        # stationarity 200 l'(w) = 250 l'(-w) gives w* = log(250/200)
        obj = g.Objective(base_1d(), g.logistic())
        sol = g.minimize(obj)
        assert sol.w_star[0] == pytest.approx(math.log(1.25), abs=1e-12)

        lo = g.logistic()

        def dL(w):
            return (-250.0 * lo.d1(-w) + 200.0 * lo.d1(w)) / 450.0

        w_oracle = bisect_root(dL, -2.0, 2.0)
        assert sol.w_star[0] == pytest.approx(w_oracle, abs=1e-10)

    def test_symmetric_dataset_exact_zero(self):
        ds = g.parse_compact("250 1 1\n250 1 -1\n")
        obj = g.Objective(ds, g.logistic())
        sol = g.minimize(obj)
        assert sol.w_star[0] == 0.0
        assert np.all(obj.gradient(np.zeros(1)) == 0.0)

    def test_conflict_direction(self):
        # full-rank in d=1: sigma(v.w*) = (n-1)/n along v
        for n in (3, 8):
            spec = g.ToySpec(n, [1.0])
            obj = g.Objective(g.make_toy(spec), g.logistic())
            sol = g.minimize(obj)
            s = 1.0 / (1.0 + math.exp(-sol.w_star[0]))
            assert s == pytest.approx((n - 1) / n, abs=1e-12)

    def test_rank_deficient_rejected(self):
        obj = g.Objective(g.make_toy(g.ToySpec(5, [0.6, 0.8])), g.logistic())
        with pytest.raises(g.DegenerateDataError):
            g.minimize(obj)

    def test_separable_data_hits_divergence_guard(self):
        # squareplus tails decay polynomially, so Newton steps on separable
        # data grow geometrically; with a tolerance the gradient never meets,
        # the iterate-norm guard is what stops the run
        ds = g.parse_compact("3 1 1\n")
        obj = g.Objective(ds, g.squareplus())
        with pytest.raises(g.SeparableDataError, match="separable"):
            g.minimize(obj, tol=1e-30, method="newton")

    def test_separable_data_gd_hits_cap(self):
        ds = g.parse_compact("3 1 1\n")
        obj = g.Objective(ds, g.squareplus())
        with pytest.raises(g.ConvergenceError):
            g.minimize(obj, method="gd", max_iters=50_000)

    def test_newton_and_gd_agree(self):
        rng = np.random.default_rng(8)
        tol = 1e-12
        done = 0
        while done < 20:
            d = int(rng.integers(1, 5))
            obj = g.Objective(random_nonseparable(rng, d), g.logistic())
            vals = np.linalg.eigvalsh(obj.second_moment)
            if vals[0] < 1e-2 * vals[-1]:
                continue  # ill-conditioned draw; GD at 1/L would crawl
            done += 1
            a = g.minimize(obj, tol=tol, method="newton")
            b = g.minimize(obj, tol=tol, method="gd")
            # both stop on gradient norm; that bounds the parameter distance
            # only through the smallest curvature at the optimum
            lam_min = np.linalg.eigvalsh(obj.hessian(a.w_star))[0]
            bound = 10 * tol * (1 + np.linalg.norm(a.w_star)) / min(1.0, lam_min)
            assert np.linalg.norm(a.w_star - b.w_star) <= bound

    def test_solution_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            obj = g.Objective(random_nonseparable(rng, d), g.logistic())
            sol = g.minimize(obj)
            assert sol.grad_norm < 1e-12
            assert sol.eta_two_lambda >= sol.eta_two_L * (1.0 - 1e-12)
            assert sol.eta_one_lambda == sol.eta_two_lambda / 2.0

    def test_L_global_grouped_matches_expanded_rows(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            # d=2 uses the closed-form eigenvalue: the grouped/expanded
            # identity holds to accumulation noise
            ds = random_nonseparable(rng, 2)
            obj = g.Objective(ds, g.logistic())
            X = ds.expanded()
            second = X.T @ X / (4.0 * ds.total_count)
            want = g.lambda_max(0.5 * (second + second.T))
            assert obj.global_smoothness == pytest.approx(want, rel=1e-12)
        for _ in range(5):
            # d=3 goes through power iteration, which stops at 1e-12
            # relative on each side of the comparison
            ds = random_nonseparable(rng, 3)
            obj = g.Objective(ds, g.logistic())
            X = ds.expanded()
            second = X.T @ X / (4.0 * ds.total_count)
            want = g.lambda_max(0.5 * (second + second.T))
            assert obj.global_smoothness == pytest.approx(want, rel=5e-12)

    def test_to_dict_round_trips_fields(self):
        sol = g.minimize(g.Objective(base_1d(), g.logistic()))
        rec = sol.to_dict()
        assert set(rec) == {"w_star", "grad_norm", "lambda_star", "L_global",
                            "eta_two_L", "eta_one_lambda", "eta_two_lambda"}
