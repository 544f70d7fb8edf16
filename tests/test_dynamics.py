"""GD map iteration, trajectories, the probability-space recurrence, and
orbit stability estimates."""

import functools
import itertools
import math

import numpy as np
import pytest

import gdcycles as g
from gdcycles.cli import _load_recipe
from gdcycles.dynamics import (
    _LOSS_BLOCK_FLOATS,
    _PHASE_BLOCK_ROWS,
    _losses_from_margins,
    _lyapunov_from_states,
    _state_blocks,
)
from gdcycles.losses import ScalarLoss
from gdcycles.objective import DIVERGENCE_NORM
from conftest import admissible_1d, closure_run, random_nonseparable, slice_starts


def toy3_objective():
    """Full-rank 1D conflict dataset with an asymmetric 2-cycle past 2/lambda
    (= 9 for n=3): the two orbit points carry different losses."""
    return g.Objective(g.make_toy(g.ToySpec(3, [1.0])), g.logistic())


# "blocks" runs record more margins than one loss block holds (8 groups:
# random_nonseparable(rng, d, n_rows=4)).
_BLOCK_ITERS = _LOSS_BLOCK_FLOATS // 8 + 500


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

    @pytest.mark.parametrize("loss,d,record_every,iters,gamma", [
        ("logistic", 1, 1, 3000, 1.05),
        ("logistic", 2, 37, 3000, 0.9),
        ("logistic", 4, 1, 3000, 1.2),
        ("squareplus", 1, 37, 3000, 1.1),
        ("squareplus", 2, 1, 3000, 0.95),
        ("squareplus", 4, 37, 3000, 1.3),
        ("logistic", 2, 1, _BLOCK_ITERS, 1.1),
        ("squareplus", 4, 1, _BLOCK_ITERS, 0.9),
    ], ids=["logistic-1d", "logistic-2d-every37", "logistic-4d", "squareplus-1d-every37",
            "squareplus-2d", "squareplus-4d-every37", "logistic-2d-blocks", "squareplus-4d-blocks"])
    def test_losses_are_objective_values_bit_for_bit(self, loss, d, record_every, iters, gamma):
        # run evaluates the recorded losses after the loop, in blocks; every row
        # must still equal the objective at its iterate exactly
        rng = np.random.default_rng(d * 10 + record_every)
        obj = g.Objective(random_nonseparable(rng, d, n_rows=4), g.get_loss(loss))
        eta = gamma * 2.0 / obj.global_smoothness
        traj = g.run(obj, g.GDConfig(w0=3.0 * rng.normal(size=d), max_iters=iters, eta=eta,
                                     record_every=record_every))
        assert not traj.diverged
        if iters == _BLOCK_ITERS:
            assert traj.losses.size * len(obj.ds.counts) > _LOSS_BLOCK_FLOATS
        values = np.array([obj.value(w) for w in traj.iterates])
        np.testing.assert_array_equal(traj.losses, values)

    def test_losses_bit_for_bit_when_diverging_midway(self):
        # a huge step size on this data walks the iterate out over ~400 steps,
        # stopping partway through the first loss block; the diverged state
        # is not recorded, and every recorded one keeps its loss
        obj = g.Objective(g.parse_compact("3 1 -9 -6\n1 1 -7 -4\n4 1 6 4\n"), g.logistic())
        traj = g.run(obj, g.GDConfig(w0=[0.0, 0.0], max_iters=5000, eta=1e11))
        assert traj.diverged
        assert 100 < len(traj.times) < 5000
        assert np.all(np.abs(traj.iterates) <= 1e12)
        np.testing.assert_array_equal(traj.times, np.arange(len(traj.times)))
        values = np.array([obj.value(w) for w in traj.iterates])
        np.testing.assert_array_equal(traj.losses, values)


def _run_by_stepping(obj, cfg):
    """(times, iterates, losses, diverged) of ``run`` as it was before it
    copied periodic orbits: the loop steps every iteration to the horizon."""
    T = cfg.max_iters
    dense_from_t = max(0, T - cfg.tail_window + 1)
    t_all = np.arange(T + 1)
    rec_mask = (t_all % cfg.record_every == 0) | (t_all >= dense_from_t)
    rec_times = t_all[rec_mask]
    A, At, wts, d1 = obj._A, obj._A.T, obj._wts, obj.loss.d1
    w = cfg.w0.astype(float).copy()
    iterates = np.empty((len(rec_times), obj.dim))
    margins = np.empty((len(rec_times), len(A)))
    rec = rec_mask.tolist()
    n = 0
    diverged = False
    for t in range(T):
        z = A @ w
        if rec[t]:
            iterates[n] = w
            margins[n] = z
            n += 1
        w = w - cfg.eta * (At @ (wts * d1(z)))
        if np.abs(w).max() > DIVERGENCE_NORM:
            diverged = True
            break
    else:
        iterates[n] = w
        margins[n] = A @ w
        n += 1
    return rec_times[:n], iterates[:n], _losses_from_margins(obj, margins[:n]), diverged


def _assert_run_is_stepping(obj, cfg, stepping_obj=None):
    """run(obj, cfg) equals the stepping loop bit for bit (bytes, so -0.0
    is not 0.0); ``stepping_obj`` gives the loop its own objective."""
    traj = g.run(obj, cfg)
    times, iterates, losses, diverged = _run_by_stepping(stepping_obj or obj, cfg)
    np.testing.assert_array_equal(traj.times, times)
    assert traj.iterates.shape == iterates.shape
    assert traj.iterates.tobytes() == iterates.tobytes()
    assert traj.losses.tobytes() == losses.tobytes()
    assert traj.diverged == diverged
    return traj


@functools.cache
def _recipe(name, loss):
    """Objective, step size and w0 of a checked-in recipe under ``loss``."""
    obj, spec = _load_recipe(name)
    obj = g.Objective(obj.ds, g.get_loss(loss))
    eta = g.resolve_eta(gamma=spec["gamma"], ref=spec["ref"], solution=g.minimize(obj))
    return obj, eta, spec["w0"]


def _perturbed_logistic(call):
    """The logistic loss with its derivative scaled by 1 + 1e-9 on the
    ``call``-th evaluation only (counting from 0): an impure map."""
    base, calls = g.logistic(), itertools.count()

    def d1(z):
        out = base.d1(z)
        return out * (1.0 + 1e-9) if next(calls) == call else out

    return ScalarLoss("logistic", base.f, d1, base.d2)


class TestPeriodicFill:
    """run copies the orbit once an iterate repeats bit for bit; every case
    must equal the loop that steps to the horizon."""

    # (record_every, tail_window): dense; sparse with a tail shorter than
    # every closure time; every 37th row; sparser than any float period
    POLICIES = [(1, 4096), (7, 64), (37, 4096), (1000, 64)]

    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    @pytest.mark.parametrize("name", ["period4_1d", "period7_1d", "period37_1d",
                                      "period13_2d", "chaotic_1d"])
    def test_matches_stepping_around_closure(self, name, loss):
        obj, eta, w0 = _recipe(name, loss)
        first = g.run(obj, g.GDConfig(w0=w0, max_iters=5000, eta=eta))
        c, p = first.closed_at, first.closed_period
        if c is None:
            assert (name, loss) == ("chaotic_1d", "logistic")
            horizons = [3000]
        else:
            horizons = [c - 1, c, c + 1, c + p, c + 2000 + p // 2]
        for T in horizons:
            for record_every, tail_window in self.POLICIES:
                traj = _assert_run_is_stepping(obj, g.GDConfig(
                    w0=w0, max_iters=T, eta=eta, record_every=record_every,
                    tail_window=tail_window))
                closed = (None, None) if c is None or T < c else (c, p)
                assert (traj.closed_at, traj.closed_period) == closed

    def test_fixed_point_closes_with_period_one(self):
        obj = toy3_objective()
        eta = 0.3 * g.minimize(obj).eta_two_lambda
        for T in (64, 65, 66, 3000):
            for record_every, tail_window in self.POLICIES:
                traj = _assert_run_is_stepping(obj, g.GDConfig(
                    w0=[5.0], max_iters=T, eta=eta, record_every=record_every,
                    tail_window=tail_window))
                assert (traj.closed_at, traj.closed_period) == (64, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    def test_matches_stepping_when_diverging_midway(self, loss):
        # diverges after ~400 of 5000 steps; squareplus margins pass 1e8 on
        # the way, where its derivative once divided by zero in the branch
        # np.where discards
        obj = g.Objective(g.parse_compact("3 1 -9 -6\n1 1 -7 -4\n4 1 6 4\n"),
                          g.get_loss(loss))
        for record_every in (1, 7):
            traj = _assert_run_is_stepping(obj, g.GDConfig(
                w0=[0.0, 0.0], max_iters=5000, eta=1e11, record_every=record_every))
            assert traj.diverged and traj.closed_at is None

    @pytest.mark.parametrize("call", [259, 261, 262])
    def test_replay_that_leaves_the_orbit_is_not_copied(self, call):
        # period4_1d closes at t = 259 with period 4, so the replay steps
        # t = 259..262; perturbing one of those steps makes it miss the
        # repeated bytes, and run must step on rather than copy
        obj, eta, w0 = _recipe("period4_1d", "logistic")
        cfg = g.GDConfig(w0=w0, max_iters=3000, eta=eta, record_every=7, tail_window=64)
        assert g.run(obj, cfg).closed_at == 259
        traj = _assert_run_is_stepping(
            g.Objective(obj.ds, _perturbed_logistic(call)), cfg,
            stepping_obj=g.Objective(obj.ds, _perturbed_logistic(call)))
        assert traj.closed_at > 263


def _sources_by_scan(times, closed_at, period, columns):
    """The row _state_blocks links each row to, found by walking the rows:
    from closed_at on, the first row of the row's phase when every column
    has the same bytes there, and otherwise the row itself."""
    first, out = {}, []
    for i, t in enumerate(times.tolist()):
        j = i
        if closed_at is not None and t >= closed_at:
            j = first.setdefault((t - closed_at) % period, i)
            if any(np.asarray(c[i]).tobytes() != np.asarray(c[j]).tobytes() for c in columns):
                j = i
        out.append(j)
    return np.array(out)


def _sources(times, closed_at, period, columns, **kw):
    """The row each row is linked to, gathered from _state_blocks."""
    src = np.empty(len(times), dtype=int)
    for lo, hi, block in _state_blocks(times, closed_at, period, columns, **kw):
        if block is None:
            assert closed_at is None or times[hi - 1] < closed_at
            block = np.arange(lo, hi)
        src[lo:hi] = block
    return src


# (name, loss, record_every, tail_window): closed runs recorded densely, every
# 37th row, and every 1000th row, where most phases first appear in the dense
# tail; runs that never close and one that diverges
CLOSURE_CASES = [
    ("period4_1d", "logistic", 1, 4096),
    ("period4_1d", "logistic", 37, 4096),
    ("period4_1d", "logistic", 1000, 64),
    ("period13_2d", "squareplus", 37, 64),
    ("period13_2d", "logistic", 1000, 64),
    ("stacked", "logistic", 1, 4096),
    ("stacked", "logistic", 1000, 64),
    ("chaotic_1d", "logistic", 1, 4096),
    ("chaotic_1d", "squareplus", 37, 64),
    ("diverging", "logistic", 7, 64),
]


class TestStateBlocks:
    """Consumers of a closed orbit work once per distinct state by way of
    _state_blocks; every case is checked against a walk over the rows."""

    @pytest.mark.parametrize("rows", [100, _PHASE_BLOCK_ROWS])
    @pytest.mark.parametrize("name,loss,record_every,tail_window", CLOSURE_CASES)
    def test_links_each_row_to_its_phase(self, name, loss, record_every, tail_window, rows):
        obj, traj = closure_run(name, loss, record_every, tail_window)
        c, p = traj.closed_at, traj.closed_period
        assert (c is None) == (name in ("chaotic_1d", "diverging") and loss == "logistic")
        for start in slice_starts(traj):
            times = traj.times[start:]
            columns = [traj.losses[start:], traj.iterates[start:]]
            src = _sources(times, c, p, columns, rows=rows)
            np.testing.assert_array_equal(src, _sources_by_scan(times, c, p, columns))
            for col in columns:
                assert col[src].tobytes() == col.tobytes()
            if c is not None:
                # the copies of a run match, so one row per phase present is
                # linked to itself
                orbit = times >= c
                own = src == np.arange(len(times))
                assert np.sum(own & orbit) == len(np.unique((times[orbit] - c) % p))

    def test_phases_first_seen_in_the_dense_tail(self):
        # period4_1d closes at t = 259 with period 4, and 1000 = 0 mod 4: every
        # sparse row after 259 has the one phase 1, and the other three first
        # appear in the dense tail
        _, traj = closure_run("period4_1d", "logistic", 1000, 64)
        assert (traj.closed_at, traj.closed_period) == (259, 4)
        src = _sources(traj.times, 259, 4, [traj.iterates])
        firsts = np.unique(src[traj.times >= 259])
        assert len(firsts) == 4
        assert np.sum(firsts >= traj._dense_from()) == 3

    def test_rows_that_break_the_period_are_their_own(self):
        # the claimed closure is checked against the bytes: from t = 5 the
        # column repeats (nan, 0.0, 2.0), and a row that differs from its
        # phase's first row by a NaN payload, a sign of zero or one ulp is
        # linked to itself
        nan1, nan2 = np.array([0x7FF8000000000001, 0x7FF8000000000002]).view(float)
        times = np.arange(20)
        col = np.array([9.0] * 5 + [nan1, 0.0, 2.0] * 5)
        col[[11, 12, 16]] = nan2, -0.0, np.nextafter(2.0, 3.0)
        src = _sources(times, 5, 3, [col], rows=4)
        np.testing.assert_array_equal(src, _sources_by_scan(times, 5, 3, [col]))
        np.testing.assert_array_equal(np.flatnonzero(src != times), [8, 9, 10, 13, 14, 15,
                                                                      17, 18, 19])
        assert col[src].tobytes() == col.tobytes()

    @pytest.mark.parametrize("name,loss,record_every,tail_window", [
        ("period4_1d", "logistic", 1, 4096),
        ("period4_1d", "squareplus", 37, 4096),
        ("period13_2d", "logistic", 1000, 64),
        ("stacked", "logistic", 1, 4096),
        ("stacked", "logistic", 37, 64),
    ])
    def test_filled_losses_are_objective_values(self, name, loss, record_every, tail_window):
        # run evaluates the loss of each cycle state once and copies it by
        # phase; each row must still be the objective at its iterate
        obj, traj = closure_run(name, loss, record_every, tail_window)
        assert traj.closed_at is not None
        values = np.array([obj.value(w) for w in traj.iterates])
        assert traj.losses.tobytes() == values.tobytes()


def _dense_from_by_scan(times):
    """The dense tail's first row found by walking back over the steps."""
    steps = np.diff(times)
    idx = len(steps)
    while idx > 0 and steps[idx - 1] == 1:
        idx -= 1
    return idx


class TestDenseTail:
    @pytest.mark.parametrize("record_every,tail_window,first_dense_t", [
        (1, 100, 0),        # everything is recorded, so the whole run is dense
        (7, 100, 901),      # 896 is the last multiple of 7 before 901
        (100, 100, 900),    # 900 is recorded anyway and adjoins the window
        (7, 1000, 0),       # the window covers the whole run
        (100, 5000, 0),
    ])
    def test_dense_tail_start(self, record_every, tail_window, first_dense_t):
        obj = toy3_objective()
        traj = g.run(obj, g.GDConfig(w0=[1.0], max_iters=1000, eta=1.0,
                                     record_every=record_every, tail_window=tail_window))
        start = traj._dense_from()
        assert start == _dense_from_by_scan(traj.times)
        assert traj.times[start] == first_dense_t
        np.testing.assert_array_equal(traj.times[start:], np.arange(first_dense_t, 1001))
        np.testing.assert_array_equal(traj.dense_tail(), traj.iterates[start:])
        np.testing.assert_array_equal(traj.dense_tail_losses(), traj.losses[start:])

    def test_single_row(self):
        traj = g.Trajectory(times=np.array([0]), iterates=np.zeros((1, 1)),
                            losses=np.zeros(1), eta=1.0, diverged=True, record_every=1,
                            tail_window=10, max_iters=10)
        assert traj._dense_from() == 0


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


def _lyapunov_by_hessian_loop(obj, states, eta):
    """The Lyapunov estimate one obj.hessian call per state, as first written."""
    if obj.dim == 1:
        d2 = np.array([obj.hessian(w)[0, 0] for w in states])
        return float(np.mean(np.log(np.maximum(np.abs(1.0 - eta * d2), 1e-300))))
    v = np.ones(obj.dim) / np.sqrt(obj.dim)
    acc = 0.0
    for w in states:
        v = v - eta * (obj.hessian(w) @ v)
        s = float(np.linalg.norm(v))
        acc += np.log(s)
        v /= s
    return acc / len(states)


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lyapunov_matches_per_state_loop(self, d):
        # the batched estimate against the per-state Hessian loop it replaced
        rng = np.random.default_rng(20 + d)
        obj = g.Objective(random_nonseparable(rng, d), g.logistic())
        sol = g.minimize(obj)
        eta = 1.3 * sol.eta_two_lambda
        traj = g.run(obj, g.GDConfig(w0=sol.w_star + rng.normal(size=d), max_iters=1500,
                                     eta=eta))
        for states in (traj.iterates, sol.w_star + 3.0 * rng.normal(size=(700, d))):
            want = _lyapunov_by_hessian_loop(obj, states, eta)
            assert abs(want) > 1e-3
            assert _lyapunov_from_states(obj, states, eta) == pytest.approx(want, rel=1e-12)

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
