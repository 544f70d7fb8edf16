"""Loss values, derivative consistency, and the structural-property audit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdcycles as g
from gdcycles.losses import _CUBE_MAX, ScalarLoss


LOSSES = [g.logistic(), g.squareplus()]


class TestExactValues:
    def test_logistic_at_zero(self):
        lo = g.logistic()
        assert lo.f(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert lo.d1(0.0) == 0.5
        assert lo.d2(0.0) == 0.25

    def test_logistic_no_overflow(self):
        lo = g.logistic()
        assert lo.f(1000.0) == 1000.0
        assert np.isfinite(lo.f(1e8))
        assert lo.f(-1000.0) == 0.0  # underflow to the asymptote is fine

    def test_squareplus_at_zero(self):
        sq = g.squareplus()
        assert sq.f(0.0) == 1.0
        assert sq.d2(0.0) == 0.25

    @pytest.mark.filterwarnings("error")
    def test_squareplus_large_margins_without_warnings(self):
        # np.where evaluates both branches; the discarded 2/(r - z) divided by
        # zero once r == z, past z ~ 1e8.  Written 2/(r + |z|), the kept branch
        # has the same bits as 2/(r - z).
        sq = g.squareplus()
        big = np.geomspace(1e-300, 1e100, 2001)
        z = np.concatenate([-big[::-1], [-0.0, 0.0], big])
        with np.errstate(divide="ignore"):
            r = np.sqrt(4.0 + z * z)
            value = np.where(z < 0.0, 2.0 / (r - z), 0.5 * (r + z))
        assert sq.f(z).tobytes() == value.tobytes()
        assert sq.d1(z).tobytes() == (value / r).tobytes()
        assert np.all(np.isfinite(sq.d2(z)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [1e103, -1e103, 2e154, -2e154, 1e200, -1e200, 1.7e308,
                                   -1.7e308, np.nextafter(_CUBE_MAX, np.inf)])
    def test_squareplus_correct_at_huge_margins(self, z):
        # past |z| ~ 5.6e102 r*r*r overflows, past ~1.3e154 z*z does; f is
        # then z or 1/|z|, d1 is 1 or 1/z^2 and d2 is 2/|z|^3 (the 4 under
        # the root moves them by 1e-205 relative at most), each within two
        # ulps of the exact quotient, subnormal and zero results included
        sq = g.squareplus()
        a = Fraction(abs(z))
        want = {"f": float(1 / a) if z < 0 else z,
                "d1": float(1 / a**2) if z < 0 else 1.0,
                "d2": float(2 / a**3)}
        for name, fn in (("f", sq.f), ("d1", sq.d1), ("d2", sq.d2)):
            for got in (fn(z), fn(np.array([z, 1.0]))[0]):
                assert abs(got - want[name]) <= 2 * math.ulp(want[name]), (name, got)

    @pytest.mark.filterwarnings("error")
    def test_squareplus_bits_unchanged_where_nothing_overflowed(self):
        # the formulas as first written are the oracle: wherever they raised
        # no warning (z*z finite for f and d1, r*r*r finite for d2), the
        # overflow-safe ones give the same bits
        def root(z):
            return np.sqrt(4.0 + z * z)

        def value(z):
            return np.where(z < 0.0, 2.0 / (root(z) + np.abs(z)), 0.5 * (root(z) + z))

        oracles = {"f": value,
                   "d1": lambda z: value(z) / root(z),
                   "d2": lambda z: 2.0 / (root(z) * root(z) * root(z))}
        sq = g.squareplus()
        rng = np.random.default_rng(0)
        for names, top in ((("f", "d1"), math.sqrt(np.finfo(float).max)), (("d2",), _CUBE_MAX)):
            z = rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-324, math.log10(top),
                                                                    10**6)
            z = np.clip(z, -top, top)
            z[:9] = [0.0, -0.0, 5e-324, -5e-324, 2.0**28, -2.0**28, np.nextafter(2.0**28, 0.0),
                     top, -top]
            for name in names:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    want = oracles[name](z)
                assert getattr(sq, name)(z).tobytes() == want.tobytes(), name

    def test_squareplus_left_tail(self):
        sq = g.squareplus()
        # monotone to 0: l'(z) -> 0 and l(z) ~ 1/|z| without cancellation
        assert 0.0 < sq.d1(-1000.0) < 1e-5
        assert sq.f(-1e8) == pytest.approx(1e-8, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        zs = np.linspace(-40.0, 40.0, 17)
        for loss in LOSSES:
            for fn in (loss.f, loss.d1, loss.d2):
                arr = fn(zs)
                assert arr.shape == zs.shape
                for z, v in zip(zs, arr):
                    assert fn(float(z)) == v


# margins at the edges of both losses: signed zeros, the subnormal tails of
# exp (|z| ~ 745), squareplus's switch to r = |z| at 2**28, infinities, NaN
_EDGE_MARGINS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 0.5, -0.5, 30.0, -30.0,
                          708.0, -708.0, 745.0, -745.0, 746.0, -746.0,
                          np.nextafter(2.0**28, 0.0), 2.0**28, -2.0**28, 2.0**29, -2.0**29,
                          1e200, -1e200, np.inf, -np.inf, np.nan])


class TestD1Out:
    """``d1(z, out=..., scratch=...)`` writes into ``out`` and returns it,
    with the bits of the allocating call."""

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda lo: lo.name)
    @pytest.mark.parametrize("shape", [(26,), (13, 2), (2, 13, 1)], ids=str)
    def test_out_holds_the_bits_of_the_allocating_call(self, loss, shape):
        z = _EDGE_MARGINS.reshape(shape)
        kept = z.copy()
        want = loss.d1(z)
        out = np.full(shape, 7.0)
        assert loss.d1(z, out=out) is out
        assert out.tobytes() == want.tobytes()
        out = np.full(shape, 7.0)
        assert loss.d1(z, out=out, scratch=np.full(shape, 3.0)) is out
        assert out.tobytes() == want.tobytes()
        assert z.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda lo: lo.name)
    def test_scalar_input_returns_a_float(self, loss):
        for z in _EDGE_MARGINS.tolist():
            got = loss.d1(z)
            assert type(got) is float
            assert np.float64(got).tobytes() == loss.d1(np.array([z]))[:1].tobytes()

    def test_sigmoid_is_the_formula_from_the_small_side(self):
        # the numerator as max(e, sign(z)) gives the bits of picking it
        # with np.where, and -|z| as copysign(z, -1), on a few margins,
        # those of negating np.abs: NaN payloads and signed zeros included
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64)
        nans = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | np.uint64(0x7FF0000000000001)
        z = np.concatenate([_EDGE_MARGINS, rng.normal(0.0, 40.0, 10**5),
                            rng.choice([-1.0, 1.0], 10**5) * 10.0 ** rng.uniform(-320, 308, 10**5),
                            bits.view(np.float64), nans.view(np.float64)])
        rng.shuffle(z)
        with np.errstate(invalid="ignore", over="ignore"):
            e = np.exp(-np.abs(z))
            want = np.where(z >= 0.0, 1.0, e) / (1.0 + e)
            assert g.losses.sigmoid(z).tobytes() == want.tobytes()
            out = np.empty_like(z)
            assert g.losses.sigmoid(z, out=out).tobytes() == want.tobytes()
            # both sides of the copysign cut, through out and scratch
            cut = g.losses._COPYSIGN_MAX
            for n in (1, 3, 6, cut, cut + 1, 4096):
                for lo in range(0, len(z) - n, 40 * n + 997):
                    got = g.losses.sigmoid(z[lo:lo + n], out=np.empty(n), scratch=np.empty(n))
                    assert got.tobytes() == want[lo:lo + n].tobytes(), (n, lo)
            # the one-state step's form: -|z| and exp by numpy, the rest on
            # Python floats, times the weights as sigmoid(z) * wts is
            wts = np.concatenate([rng.uniform(0.0, 1.0, len(z) - 3), [1.0, 1.0 / 3.0, 5e-324]])
            got = g.losses.weighted_sigmoid(z, wts.tolist(), np.empty_like(z))
            assert got.tobytes() == (want * wts).tobytes()
            for n in (1, 3, 6):
                for lo in range(0, len(z) - n, 997):
                    got = g.losses.weighted_sigmoid(z[lo:lo + n], wts[lo:lo + n].tolist(),
                                                    np.empty(n))
                    assert got.tobytes() == (want[lo:lo + n] * wts[lo:lo + n]).tobytes(), (n, lo)


class TestDerivativeConsistency:
    """d1 and d2 agree with central differences of f and d1.

    The comparison carries a small absolute floor: at saturation (logistic
    near z=20 the second derivative is ~2e-9) the finite difference of two
    O(1) values cannot resolve below ~eps/h, so a bare relative threshold is
    unattainable in float64 there.
    """

    H = 1e-5
    REL = 1e-6
    FLOOR = 5e-11

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.name)
    def test_d1_matches_fd_of_f(self, loss):
        zs = np.linspace(-20.0, 20.0, 801)
        fd = (loss.f(zs + self.H) - loss.f(zs - self.H)) / (2.0 * self.H)
        want = loss.d1(zs)
        assert np.all(np.abs(fd - want) <= self.REL * np.abs(want) + self.FLOOR)

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.name)
    def test_d2_matches_fd_of_d1(self, loss):
        zs = np.linspace(-20.0, 20.0, 801)
        fd = (loss.d1(zs + self.H) - loss.d1(zs - self.H)) / (2.0 * self.H)
        want = loss.d2(zs)
        assert np.all(np.abs(fd - want) <= self.REL * np.abs(want) + self.FLOOR)

    @settings(max_examples=60, deadline=None)
    @given(z=st.floats(-15.0, 15.0), name=st.sampled_from(["logistic", "squareplus"]))
    def test_fd_pointwise(self, z, name):
        loss = g.get_loss(name)
        fd1 = (loss.f(z + self.H) - loss.f(z - self.H)) / (2.0 * self.H)
        fd2 = (loss.d1(z + self.H) - loss.d1(z - self.H)) / (2.0 * self.H)
        assert abs(fd1 - loss.d1(z)) <= self.REL * abs(loss.d1(z)) + self.FLOOR
        assert abs(fd2 - loss.d2(z)) <= self.REL * abs(loss.d2(z)) + self.FLOOR


class TestStructuralAudit:
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.name)
    def test_shipped_losses_pass(self, loss):
        report = g.verify_assumption1(loss)
        assert report.all_passed, [c for c in report.checks if not c.passed]

    def test_check_names_unique_and_complete(self):
        report = g.verify_assumption1(g.logistic())
        names = [c.name for c in report.checks]
        assert names == ["positivity", "derivative_bounds", "left_tail",
                         "unimodality", "decay"]
        assert len(set(names)) == len(names)

    def test_quadratic_fails_derivative_bounds(self):
        quad = ScalarLoss("quadratic", lambda z: np.asarray(z, float) ** 2,
                          lambda z: 2.0 * np.asarray(z, float),
                          lambda z: np.full_like(np.asarray(z, float), 2.0))
        report = g.verify_assumption1(quad)
        assert not report.check("derivative_bounds").passed
        assert not report.all_passed

    def test_nonfinite_eval_reports_offending_z(self):
        def bad_f(z):
            z = np.asarray(z, float)
            out = np.log1p(np.exp(np.minimum(z, 30.0)))
            return np.where(z > 40.0, np.inf, out)

        lo = g.logistic()
        bad = ScalarLoss("bad", bad_f, lo.d1, lo.d2)
        report = g.verify_assumption1(bad)
        pos = report.check("positivity")
        assert not pos.passed
        assert pos.offending_z is not None and pos.offending_z > 40.0

    def test_logistic_left_tail_is_tiny(self):
        # the generic audit only certifies decay toward 0; the exponential
        # tail is specific to this loss
        assert g.logistic().f(-50.0) < 1e-9


class TestReluLimit:
    def test_negative_side_vanishes(self):
        assert g.relu_limit_gap(g.logistic(), -1.0, 0.05) < 1e-9

    def test_at_zero_exact(self):
        # eps^2 * l(0) with nothing to cancel
        want = 0.01 * math.log(2.0)
        assert g.relu_limit_gap(g.logistic(), 0.0, 0.1) == pytest.approx(want, rel=1e-12)

    def test_positive_side_decreases_as_eps_halves(self):
        # the gap is eps^2 * log1p(exp(-z/eps^2)); by eps = 0.1 it has shrunk
        # below one ulp of z and evaluates to exactly 0
        gaps = [g.relu_limit_gap(g.logistic(), 1.0, e) for e in (0.5, 0.25, 0.125)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert g.relu_limit_gap(g.logistic(), 1.0, 0.05) == 0.0

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.name)
    def test_gap_vanishes_on_grid(self, loss):
        zs = np.linspace(-5.0, 5.0, 21)
        for z in zs:
            gaps = [g.relu_limit_gap(loss, float(z), e) for e in (0.5, 0.25, 0.1, 0.05)]
            assert gaps[-1] <= gaps[0] + 1e-15
            assert gaps[-1] < 0.02

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            g.relu_limit_gap(g.logistic(), 1.0, 0.0)


def test_get_loss_registry():
    assert g.get_loss("logistic").name == "logistic"
    assert g.get_loss("squareplus").name == "squareplus"
    with pytest.raises(ValueError):
        g.get_loss("hinge")
