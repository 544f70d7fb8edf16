"""GD map iteration, trajectories, the probability-space recurrence, and
orbit stability estimates."""

import dataclasses
import functools
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import gdcycles as g
from gdcycles.cli import _load_recipe
from gdcycles.dynamics import (
    _PHASE_BLOCK_ROWS,
    _RepeatCheck,
    _final_states,
    _lyapunov_from_states,
    _row_bits,
    _state_blocks,
)
from gdcycles.losses import ScalarLoss
from gdcycles.objective import _LOSS_BLOCK_FLOATS, DIVERGENCE_NORM
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

    @pytest.mark.parametrize("eta", [-1.0, np.nan, np.inf, -np.inf])
    def test_eta_must_be_positive_and_finite(self, eta):
        # checked before stepping, as resolve_eta checks it, not found out
        # from a non-finite step afterwards
        obj = toy3_objective()
        with pytest.raises(ValueError, match="positive finite"):
            g.gd_step(obj, np.zeros(1), eta)

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


def _step_written_out(obj, W, eta):
    """The GD map as one expression over the allocating loss derivative."""
    A = obj._A
    return W - eta * ((obj.loss.d1(W @ A.T) * obj._wts) @ A)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.int64),
                                  np.ascontiguousarray(want).view(np.int64))


@functools.cache
def _basin_objective(loss):
    """basin_2d (6 groups, d = 2) under ``loss`` and its eta at gamma 0.95."""
    base, _ = _load_recipe("basin_2d")
    obj = g.Objective(base.ds, g.get_loss(loss))
    return obj, g.resolve_eta(gamma=0.95, solution=g.minimize(obj))


# 1D states whose margins (w, -w and -2w on _EDGE_DATA) land on zero, on
# exp's subnormal tail (|z| ~ 745) and past squareplus's switch at 2**28
_EDGE_DATA = "3 1 -1\n2 1 1\n1 1 2\n"
_EDGE_STATES = [0.0, -0.0, 5e-324, 372.5, -372.5, 745.0, -745.0, 2.0**27, 2.0**28, -2.0**28,
                2.0**30, -1e200, 0.5, -3.0]


class TestStepWork:
    """step_many through a workspace is bit for bit the map written out."""

    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    @pytest.mark.parametrize("shape, eta_kind", [
        ((), "scalar"), ((2,), "scalar"), ((2,), "per-row"), ((4096,), "scalar"),
        ((4096,), "per-row"), ((3, 5), "scalar"), ((3, 5), "per-layer"),
        ((1, 4096), "per-layer")], ids=str)
    def test_matches_the_written_out_map(self, loss, shape, eta_kind):
        obj, eta = _basin_objective(loss)
        rng = np.random.default_rng(len(shape) + sum(shape))
        W = rng.uniform(-10.0, 30.0, shape + (2,))
        if eta_kind == "per-row":                   # an (m, 1) column
            eta = eta * rng.uniform(0.5, 1.5, (shape[0], 1))
        elif eta_kind == "per-layer":               # (s, 1, 1) layers
            eta = eta * rng.uniform(0.5, 1.5, (shape[0], 1, 1))
        want = _step_written_out(obj, W, eta)
        work = g.StepWork(obj, max(1, math.prod(shape)))
        _assert_same_bits(g.step_many(obj, W, eta, work=work), want)
        out = np.full_like(W, np.nan)
        assert g.step_many(obj, W, eta, work=work, out=out) is out
        _assert_same_bits(out, want)
        _assert_same_bits(g.step_many(obj, W, eta), want)       # a fresh workspace
        g.step_many(obj, W, eta, work=work, out=W)              # in place
        _assert_same_bits(W, want)

    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    def test_one_workspace_over_shrinking_batches(self, loss):
        obj, eta = _basin_objective(loss)
        W = np.random.default_rng(5).uniform(-10.0, 30.0, (4096, 2))
        work = g.StepWork(obj, len(W))
        for n in (4096, 4000, 1000, 63, 2, 1, 4096, 7):
            _assert_same_bits(g.step_many(obj, W[:n], eta, work=work),
                              _step_written_out(obj, W[:n], eta))
        # a single 1-D state, and a (2, 3) stack, in the same buffers
        _assert_same_bits(g.step_many(obj, W[9], eta, work=work),
                          _step_written_out(obj, W[9], eta))
        stack = W[:6].reshape(2, 3, 2)
        _assert_same_bits(g.step_many(obj, stack, eta, work=work),
                          _step_written_out(obj, stack, eta))

    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    def test_edge_margins(self, loss):
        obj = g.Objective(g.parse_compact(_EDGE_DATA), g.get_loss(loss))
        states = np.array(_EDGE_STATES)[:, None]
        Z = states @ obj._A.T
        # the -0.0 state gives +0.0 margins: BLAS sums from +0.0, so a step
        # never sees a -0.0 margin (tests/test_losses.py covers d1 there)
        assert {0.0, 745.0, -745.0, 2.0**28, -2.0**28} <= set(Z.ravel().tolist())
        work = g.StepWork(obj, len(states))
        for W in (states, states[:2], states[5]):
            for eta in (0.25, 3.0):
                _assert_same_bits(g.step_many(obj, W, eta, work=work),
                                  _step_written_out(obj, W, eta))
                _assert_same_bits(work.margins, W @ obj._A.T)

    def test_workspace_checks(self):
        obj, eta = _basin_objective("logistic")
        other = g.Objective(obj.ds, g.logistic())
        W = np.zeros((4, 2))
        with pytest.raises(ValueError, match="another objective"):
            g.step_many(other, W, eta, work=g.StepWork(obj, 4))
        with pytest.raises(ValueError, match="exceeds"):
            g.step_many(obj, W, eta, work=g.StepWork(obj, 3))

    def test_a_workspace_step_allocates_nothing(self):
        # numpy reports its data buffers to tracemalloc: 50 steps of a
        # 4096-row basin_2d batch peak at about 1 MiB without a workspace,
        # and at a few hundred bytes of Python objects with one
        obj, eta = _basin_objective("logistic")
        W = np.random.default_rng(6).uniform(-10.0, 30.0, (4096, 2))
        work = g.StepWork(obj, len(W))

        def peak(step):
            step()                                              # cut the views once
            tracemalloc.start()
            try:
                for _ in range(50):
                    step()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: g.step_many(obj, W, eta)) > 512 * 1024
        assert peak(lambda: g.step_many(obj, W, eta, work=work, out=W)) < 64 * 1024


def _random_objective(rng, G, d):
    """Logistic loss on G random groups in d dimensions."""
    ds = g.Dataset(rng.normal(size=(G, d)), rng.choice([-1, 1], G), rng.integers(1, 6, G))
    return g.Objective(ds, g.logistic())


def _random_states(rng, shape):
    """States at a random scale, so that margins range from small to
    saturated."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-2.0, 2.0)


class TestMarginOperand:
    """StepWork multiplies products of two rows or more by a C-contiguous
    copy of Aᵀ and one-row products by the view obj._A.T; every step has
    the bits of the map written out over the view."""

    def test_operand_by_shape(self):
        obj, _ = _basin_objective("logistic")
        view = obj._A.T
        assert not view.flags.c_contiguous
        work = g.StepWork(obj, 64)
        for shape in ((64,), (2,), (3, 4), (32, 2)):
            work._fit(shape)
            assert work.At.flags.c_contiguous and not work.At.flags.writeable, shape
            assert not np.shares_memory(work.At, obj._A)
            _assert_same_bits(work.At, view)
        for shape in ((), (1,), (3, 1)):
            work._fit(shape)
            assert work.At.base is obj._A and work.At.strides == view.strides, shape

    @pytest.mark.parametrize("G", [1, 2, 6, 13, 64])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_batches_and_stacks_match_the_view(self, d, G):
        rng = np.random.default_rng(100 * d + G)
        obj = _random_objective(rng, G, d)
        work = g.StepWork(obj, 16384)
        for n in (2, 3, 17, 4096, 16384):
            W, eta = _random_states(rng, (n, d)), rng.uniform(0.1, 10.0)
            _assert_same_bits(g.step_many(obj, W, eta, work=work),
                              _step_written_out(obj, W, eta))
            _assert_same_bits(work.margins, W @ obj._A.T)
        for s, n in ((2, 2), (3, 17), (4, 256)):
            W, eta = _random_states(rng, (s, n, d)), rng.uniform(0.1, 10.0, (s, 1, 1))
            _assert_same_bits(g.step_many(obj, W, eta, work=work),
                              _step_written_out(obj, W, eta))

    @pytest.mark.parametrize("G", [2, 6, 12, 39])
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_one_row_products_keep_the_view(self, d, G):
        # one-row products round differently over a copy of Aᵀ: on random
        # data about half of (2,) @ (2, 6) margins move, so these stay on
        # the view
        rng = np.random.default_rng(7 * d + G)
        obj = _random_objective(rng, G, d)
        work = g.StepWork(obj, 8)
        for _ in range(20):
            for shape, eta in (((d,), 0.7), ((1, d), 0.7), ((1, d), np.array([[0.3]])),
                               ((5, 1, d), rng.uniform(0.1, 10.0, (5, 1, 1)))):
                W = _random_states(rng, shape)
                _assert_same_bits(g.step_many(obj, W, eta, work=work),
                                  _step_written_out(obj, W, eta))
                _assert_same_bits(work.margins, W @ obj._A.T)


def _step_by_matmul(obj, W, eta):
    """The GD map with both products by np.matmul over the view obj._A.T:
    the bits that the np.dot products of a 1-D state must keep."""
    A = obj._A
    P = obj.loss.d1(np.matmul(W, A.T))
    return W - eta * np.matmul(P * obj._wts, A)


def _assert_same_margins(work, W):
    """The workspace holds the margins W @ Aᵀ bit for bit, but at d = 1 for
    the sign of a zero: there each margin is one product, which np.dot
    rounds to zero with its sign (5e-324 times a negative entry gives -0.0)
    and np.matmul then adds to +0.0.  Adding +0.0 to both sides makes every
    zero +0.0 and leaves all else as it is."""
    got, want = work.margins, W @ work.obj._A.T
    if work.obj.dim == 1:
        got, want = got + 0.0, want + 0.0
    _assert_same_bits(got, want)


# coordinates of the special 1-D states: signed zeros, infinities, NaN,
# and magnitudes whose margins pass exp's range (|z| > 745) or squareplus's
# switch at 2**28
_SPECIAL_COORDS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e3, -1e3, 2.0**30, 5e-324]


class TestOneStateBits:
    """A 1-D state is stepped by np.dot, batches and stacks by np.matmul;
    every step keeps the bits of the np.matmul form.  That np.dot and
    np.matmul round a one-row product alike is OpenBLAS's behaviour, not
    numpy's promise, so this guards it."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")      # inf and NaN states
    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_matmul_form(self, d, loss):
        for G in (1, 2, 3, 5, 6, 13, 30, 64):
            rng = np.random.default_rng(100 * d + G)
            X = rng.normal(size=(G, d))
            X[1:][rng.random((G - 1, d)) < 0.2] = rng.choice([0.0, -0.0])
            obj = g.Objective(g.Dataset(X, rng.choice([-1, 1], G), rng.integers(1, 6, G)),
                              g.get_loss(loss))
            work = g.StepWork(obj, 64)
            scales = 10.0 ** rng.uniform(-2.0, 4.0, (40, 1))
            states = np.vstack([rng.choice(_SPECIAL_COORDS, (24, d)),
                                rng.normal(size=(40, d)) * scales])
            states[24:][rng.random((40, d)) < 0.2] = -0.0
            assert np.abs(states[24:] @ obj._A.T).max() > 745.0
            for w in states:
                eta = rng.uniform(0.1, 100.0)
                want = _step_by_matmul(obj, w, eta)
                # a float, as run and gd_step pass it, a numpy float and a
                # 0-d array; the margins of the state stay in the workspace
                for step_eta in (eta, np.float64(eta), np.array(eta)):
                    _assert_same_bits(g.step_many(obj, w, step_eta, work=work), want)
                    _assert_same_margins(work, w)
                    _assert_same_bits(g.step_many(obj, w, step_eta), want)
                # a (d,) array gives each coordinate its own step size
                etas = rng.uniform(0.1, 100.0, d)
                _assert_same_bits(g.step_many(obj, w, etas, work=work),
                                  _step_by_matmul(obj, w, etas))
                _assert_same_margins(work, w)
            # batches and stacks, specials included, keep np.matmul
            etas = rng.uniform(0.1, 100.0, (4, 1, 1))
            for W, eta in ((states, 3.5), (states[:1], 3.5), (states[:2], etas[0]),
                           (states.reshape(4, 16, d), etas), (states[:4].reshape(4, 1, d), etas)):
                _assert_same_bits(g.step_many(obj, W, eta, work=work),
                                  _step_by_matmul(obj, W, eta))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")      # inf and NaN states
    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_one_workspace_alternates_states_and_batches(self, d, loss):
        # a 1-D state, an (n, d) batch and a 1-D state again through one
        # StepWork: each step, and the margins it leaves, keep their bits
        rng = np.random.default_rng(d)
        obj = _random_objective(rng, 6, d)
        obj = g.Objective(obj.ds, g.get_loss(loss))
        work = g.StepWork(obj, 16)
        states = np.vstack([rng.choice(_SPECIAL_COORDS, (8, d)), _random_states(rng, (24, d))])
        for lo in range(0, len(states), 16):
            for W in (states[lo], states[lo + 1:lo + 16], states[lo + 15]):
                eta = rng.uniform(0.1, 100.0)
                _assert_same_bits(g.step_many(obj, W, eta, work=work),
                                  _step_by_matmul(obj, W, eta))
                _assert_same_margins(work, W)

    def test_branch_selected_by_the_derivative_itself(self):
        # the logistic d1 is losses.sigmoid, by identity; squareplus, and a
        # wrapped sigmoid (as the benchmark's tracer builds), step by numpy
        obj = _random_objective(np.random.default_rng(3), 6, 2)
        assert g.StepWork(obj, 1).one_state_wts == obj._wts.tolist()
        wrapped = ScalarLoss("logistic", obj.loss.f,
                             lambda z, out=None, scratch=None: obj.loss.d1(z, out, scratch),
                             obj.loss.d2)
        for loss in (g.squareplus(), wrapped):
            assert g.StepWork(g.Objective(obj.ds, loss), 1).one_state_wts is None

    def test_a_workspace_dies_with_its_last_reference(self):
        # the branch's bound state holds no reference back to the workspace,
        # so reference counting frees it without the cycle collector (a
        # sweep builds one per stack and would otherwise hold them all)
        obj = _random_objective(np.random.default_rng(4), 6, 2)
        enabled = gc.isenabled()
        gc.disable()
        try:
            work = g.StepWork(obj, 4)
            g.step_many(obj, np.ones(2), 0.5, work=work)
            g.step_many(obj, np.ones((4, 2)), 0.5, work=work)
            g.step_many(obj, np.ones(2), 0.5, work=work)
            ref = weakref.ref(work)
            del work
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


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
        with pytest.raises(ValueError, match="need a Solution"):
            g.resolve_eta(gamma=0.5)
        sol = g.minimize(toy3_objective())
        assert g.resolve_eta(gamma=0.5, solution=sol) == 0.5 / sol.lambda_star
        assert g.resolve_eta(gamma=0.5, ref="two-L", solution=sol) == 0.5 * sol.eta_two_L
        with pytest.raises(ValueError, match="ref must be"):
            g.resolve_eta(gamma=0.5, ref="L", solution=sol)

    def test_step_size_is_required(self):
        with pytest.raises(TypeError):
            g.GDConfig(w0=[1.0], max_iters=10)
        with pytest.raises(ValueError, match="positive finite"):
            g.run(toy3_objective(), g.GDConfig(w0=[1.0], max_iters=10, eta=-1.0))

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

    def test_diverging_run_stops_where_the_sup_norm_guard_stopped(self):
        # the guard counts NaN as diverged, which a run from a finite w0 at a
        # finite eta cannot reach before passing the bound: the run stops
        # at the step, and with the bytes, of a plain sup-norm comparison
        obj = g.Objective(g.parse_compact("3 1 -9 -6\n1 1 -7 -4\n4 1 6 4\n"), g.logistic())
        traj = _assert_run_is_stepping(
            obj, g.GDConfig(w0=[0.0, 0.0], max_iters=5000, eta=1e11))
        assert traj.diverged
        assert traj.times[-1] == 397


def _mask_times(T, record_every, tail_window):
    """The times a run to T records, by the mask over 0..T: every
    record_every-th t, and every t of the last tail_window."""
    t = np.arange(T + 1)
    return t[(t % record_every == 0) | (t >= max(0, T - tail_window + 1))]


def _run_by_stepping(obj, cfg):
    """(times, iterates, losses, diverged) of ``run`` as it was before it
    copied periodic orbits: the loop steps every iteration to the horizon."""
    T = cfg.max_iters
    rec_times = _mask_times(T, cfg.record_every, cfg.tail_window)
    A, At, wts, d1 = obj._A, obj._A.T, obj._wts, obj.loss.d1
    w = cfg.w0.astype(float).copy()
    iterates = np.empty((len(rec_times), obj.dim))
    margins = np.empty((len(rec_times), len(A)))
    rec = set(rec_times.tolist())
    n = 0
    diverged = False
    for t in range(T):
        z = A @ w
        if t in rec:
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
    return rec_times[:n], iterates[:n], obj._loss_sum(margins[:n]), diverged


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


class TestGDConfig:
    """The iteration counts are integers >= 1: a count of 0 or below, a
    float or a bool is refused.  A tail_window of 0 would leave the final
    state unrecorded, and a float max_iters would fail inside range()."""

    @pytest.mark.parametrize("field", ["max_iters", "record_every", "tail_window"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, 10.0, np.float64(4.0), True, False,
                                       np.True_, "5", None], ids=repr)
    def test_counts_must_be_integers_of_at_least_one(self, field, value):
        kwargs = dict(w0=[1.0], max_iters=20, eta=1.0, record_every=7, tail_window=5)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            g.GDConfig(**kwargs)

    @pytest.mark.parametrize("field", ["max_iters", "record_every", "tail_window"])
    @pytest.mark.parametrize("value", [np.int64(7), np.int32(7), np.uint8(7), 7], ids=repr)
    def test_numpy_integers_are_counts(self, field, value):
        kwargs = dict(w0=[1.0], max_iters=20, eta=1.0, record_every=3, tail_window=5)
        kwargs[field] = value
        cfg = g.GDConfig(**kwargs)
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 7
        want = g.run(toy3_objective(), g.GDConfig(**{**kwargs, field: 7}))
        traj = g.run(toy3_objective(), cfg)
        np.testing.assert_array_equal(traj.times, want.times)
        assert traj.iterates.tobytes() == want.iterates.tobytes()


def _run_kind(kind):
    """Objective, eta, w0 and horizons of a run that closes (toy3's fixed
    point, found at t = 64), stays open (chaotic_1d) or diverges (w_398
    passes the guard); each horizon set brackets the event."""
    if kind == "closed":
        obj = toy3_objective()
        return obj, 0.3 * g.minimize(obj).eta_two_lambda, [5.0], (1, 2, 7, 63, 64, 65, 300)
    if kind == "open":
        return (*_recipe("chaotic_1d", "logistic"), (1, 2, 7, 300))
    obj = g.Objective(g.parse_compact("3 1 -9 -6\n1 1 -7 -4\n4 1 6 4\n"), g.logistic())
    return obj, 1e11, [0.0, 0.0], (7, 397, 398, 500)


class TestRunRecording:
    """run records the times of the mask formula and steps through
    dynamics.step_many once per step taken."""

    @pytest.mark.parametrize("kind", ["closed", "open", "diverging"])
    def test_record_times_follow_the_mask(self, kind):
        obj, eta, w0, horizons = _run_kind(kind)
        for T in horizons:
            # tail windows past T + 1, at T + 1 and T, and of one state;
            # record_every past T
            for record_every, tail_window in itertools.product(
                    (1, 3, 7, T + 1), (1, 5, T, T + 1, T + 2, g.dynamics.DEFAULT_TAIL_WINDOW)):
                cfg = g.GDConfig(w0=w0, max_iters=T, eta=eta, record_every=record_every,
                                 tail_window=tail_window)
                traj = _assert_run_is_stepping(obj, cfg)
                want = _mask_times(T, record_every, tail_window)
                assert traj.diverged == (kind == "diverging" and T >= 398)
                if traj.diverged:
                    want = want[want <= 397]
                np.testing.assert_array_equal(traj.times, want)
                assert traj.times.dtype == np.int64
                if kind == "closed":
                    assert traj.closed_at == (64 if T >= 64 else None)

    @pytest.mark.parametrize("kind, T, steps", [
        ("closed", 10, 10), ("closed", 64, 64), ("closed", 3000, 65),
        ("open", 3000, 3000), ("diverging", 300, 300), ("diverging", 5000, 398)])
    def test_one_step_many_call_per_step(self, kind, T, steps, monkeypatch):
        obj, eta, w0, _ = _run_kind(kind)
        calls = itertools.count()
        step_many = g.dynamics.step_many

        def counted(*args, **kwargs):
            next(calls)
            return step_many(*args, **kwargs)

        monkeypatch.setattr(g.dynamics, "step_many", counted)
        traj = g.run(obj, g.GDConfig(w0=w0, max_iters=T, eta=eta))
        # a closed run steps one period past closed_at; a diverging one
        # stops at the step that passes the guard
        if traj.closed_at is not None:
            taken = min(T, traj.closed_at + traj.closed_period)
        else:
            taken = int(traj.times[-1]) + traj.diverged
        assert next(calls) == taken == steps

    def test_memory_does_not_grow_with_the_horizon(self):
        # chaotic_1d never closes, so all 60,000 steps run; the recorded
        # rows are 124.  A (T + 1)-element mask of record times, its arange
        # and its list would take about 1 MB
        obj, eta, w0 = _recipe("chaotic_1d", "logistic")
        cfg = g.GDConfig(w0=w0, max_iters=60_000, eta=eta, record_every=1000, tail_window=64)
        g.run(obj, cfg)
        tracemalloc.start()
        try:
            traj = g.run(obj, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.closed_at is None and len(traj.times) == 124
        assert peak < 64 * 1024, peak


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

    def d1(z, out=None, scratch=None):
        out = base.d1(z, out=out, scratch=scratch)
        if next(calls) == call:
            out *= 1.0 + 1e-9
        return out

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

    def test_chaotic_orbit_matches_stepping_to_the_benchmark_horizon(self):
        # the orbit never closes, so every one of the 60,000 steps is taken,
        # and a chaotic orbit amplifies any last-bit slip of a step
        obj, eta, w0 = _recipe("chaotic_1d", "logistic")
        traj = _assert_run_is_stepping(obj, g.GDConfig(w0=w0, max_iters=60_000, eta=eta,
                                                       record_every=1))
        assert traj.closed_at is None and len(traj.times) == 60_001

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


def _stepped_batch(obj, W, eta, T):
    """W after T steps of the whole batch or stack, the loop _final_states
    replaces, and each state's period from Brent's check on that loop."""
    repeats = _RepeatCheck(W.view(np.int64))
    for u in range(1, T + 1):
        W = g.step_many(obj, W, eta)
        repeats(W.view(np.int64), u)
    return W, repeats.period


def _assert_final_states_are_stepping(obj, W, eta, T, each_step=None):
    """_final_states equals stepping the whole batch T times, by int64 bit
    patterns (so -0.0 is not 0.0 and a NaN must keep its bytes), and finds
    the same periods; returns the state-steps it took."""
    W = np.array(W, dtype=float)
    out, period, row_steps = _final_states(obj, W, eta, T, each_step)
    want, want_period = _stepped_batch(obj, W, eta, T)
    np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(period, want_period)
    assert row_steps <= W.size // W.shape[-1] * T
    return row_steps


@functools.cache
def _closed_orbit(name):
    """The closed_period states of a recipe's float orbit from closed_at on."""
    obj, eta, w0 = _recipe(name, "logistic")
    traj = g.run(obj, g.GDConfig(w0=w0, max_iters=5000, eta=eta))
    k = int(np.searchsorted(traj.times, traj.closed_at))
    return traj.iterates[k:k + traj.closed_period]


class TestFinalStates:
    """_final_states stops stepping a row once its state at T is known; every
    case must equal stepping the whole batch T times, bit for bit."""

    @pytest.mark.parametrize("T", [1, 63, 64, 65, 1500])
    def test_basin_grid(self, T):
        # cells reaching w* repeat with period 1 and retire; the others head
        # for the period-13 cycle and do not repeat within 1500 steps
        obj, eta, _ = _recipe("basin_2d", "logistic")
        X, Y = np.meshgrid(np.linspace(-9, 29, 12), np.linspace(-9, 29, 12))
        W = np.column_stack([X.ravel(), Y.ravel()])
        steps = _assert_final_states_are_stepping(obj, W, eta, T)
        if T == 1500:
            assert steps < len(W) * T

    @pytest.mark.parametrize("T", [56, 57, 58, 70, 82, 83, 84, 1000, 1013])
    def test_orbit_rows_stop_on_the_phase_of_the_horizon(self, T):
        # the float orbit of period13_2d has period p = 26; stepped as a
        # batch its rows repeat Brent's reference of t = 31 at u = 31 + p
        # and are written at u + (T - u) % p
        obj, eta, _ = _recipe("period13_2d", "logistic")
        orbit = _closed_orbit("period13_2d")
        u, p = 31 + len(orbit), len(orbit)
        steps = _assert_final_states_are_stepping(obj, orbit, eta, T)
        assert steps == len(orbit) * (T if T < u else u + (T - u) % p)

    @pytest.mark.parametrize("T", [1, 2, 5, 30])
    def test_horizon_before_any_closure(self, T):
        obj, eta, _ = _recipe("period13_2d", "logistic")
        orbit = _closed_orbit("period13_2d")
        assert _assert_final_states_are_stepping(obj, orbit, eta, T) == len(orbit) * T

    def test_no_row_closes(self):
        # chaotic_1d from within 1e-8 of its w0 (starts further apart can
        # land on a closed float orbit)
        obj, eta, w0 = _recipe("chaotic_1d", "logistic")
        W = (w0[0] + 1e-9 * np.arange(8))[:, None]
        T = 2000
        assert _assert_final_states_are_stepping(obj, W, eta, T) == len(W) * T

    def test_last_open_row_is_never_stepped_alone(self):
        # rows started at w* of period13_2d reach a byte-exact fixed point
        # and retire long before T, while the row from near the recipe's w0
        # is still on its way into the cycle.  Stepped alone, as a (1, 2)
        # batch, that row would end on other bits from about one start in
        # three, so eleven starts are tried.
        obj, eta, w0 = _recipe("period13_2d", "logistic")
        T = 2000
        for shift in np.linspace(-2.0, 3.0, 11):
            W = np.vstack([np.tile(g.minimize(obj).w_star, (4, 1)), np.add(w0, shift)])
            steps = _assert_final_states_are_stepping(obj, W, eta, T)
            assert steps < len(W) * T

    def test_rows_that_overflow(self):
        # at eta = 1e308 every row overflows to inf, then to NaN, within three
        # steps; a NaN row repeats its bytes (though NaN != NaN) and retires
        obj, _, _ = _recipe("basin_2d", "logistic")
        W = np.random.default_rng(1).uniform(-10, 30, (5, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for T in (1, 2, 3, 100):
                steps = _assert_final_states_are_stepping(obj, W, 1e308, T)
        assert steps == 4 * len(W)


class TestSettledStates:
    """each_step may settle states: each one not yet written is written out
    as it stands after that step, with period 0, and leaves as a written
    state does; every other state is the one stepping gives."""

    def test_settled_rows_leave_as_they_stand(self):
        # rows near w* repeat with period 1 and retire; every fifth row is
        # settled at step 40, and rows 1 and 2 at step 7
        obj, eta, _ = _recipe("basin_2d", "logistic")
        X, Y = np.meshgrid(np.linspace(-9, 29, 12), np.linspace(-9, 29, 12))
        W = np.column_stack([X.ravel(), Y.ravel()])
        T, seen, at = 1500, [], {}
        rule = {7: lambda rows: np.isin(rows, [1, 2]), 40: lambda rows: rows % 5 == 0}

        def settle(W_u, rows):
            seen.append(rows.copy())
            u = len(seen)
            if u not in rule:
                return None
            done = rule[u](rows)
            for r, w in zip(rows[done].tolist(), W_u[done]):
                at.setdefault(r, w.copy())
            return done

        out, period, row_steps = _final_states(obj, W, eta, T, settle)
        want, want_period = _stepped_batch(obj, W, eta, T)
        settled = np.zeros(len(W), dtype=bool)
        settled[list(at)] = True
        assert settled.sum() == 2 + 29
        np.testing.assert_array_equal(out[~settled].view(np.int64), want[~settled].view(np.int64))
        np.testing.assert_array_equal(period[~settled], want_period[~settled])
        np.testing.assert_array_equal(out[settled],
                                      np.array([at[r] for r in np.flatnonzero(settled)]))
        assert not period[settled].any()
        # a settled row is not stepped after its step
        assert not np.isin([1, 2], seen[7]).any()
        assert not np.isin(np.arange(0, 144, 5), seen[40]).any()
        assert row_steps == sum(map(len, seen)) < len(W) * T

    def test_settled_layers_leave(self):
        # settling a whole layer (and a state of another, which stays) at
        # step 3 drops that layer at once; the others are the stepped ones
        obj, W, etas = _toy_n2_stack([6.0, 7.0, 8.0, 9.0])
        seen = []

        def settle(W_u, layers):
            seen.append(layers.copy())
            if len(seen) != 3:
                return None
            done = np.zeros(W_u.shape[:-1], dtype=bool)
            done[layers == 1] = True
            done[layers == 3, 0] = True
            return done

        T = 500
        out, period, row_steps = _final_states(obj, W, etas, T, settle)
        want, want_period = _stepped_batch(obj, W, etas, T)
        assert seen[2].tolist() == [0, 1, 2, 3] and 1 not in seen[3]
        keep = np.ones(W.shape[:-1], dtype=bool)
        keep[1] = keep[3, 0] = False
        np.testing.assert_array_equal(out[keep].view(np.int64), want[keep].view(np.int64))
        np.testing.assert_array_equal(period[keep], want_period[keep])
        assert not period[~keep].any()
        assert row_steps == 4 * sum(map(len, seen))


def _toy_n2_stack(etas, n_inits=4):
    """toy n=2 under the logistic loss as an (etas, n_inits, 1) stack of
    the same spread of inits, with its (etas, 1, 1) step sizes: below 8
    every state repeats with float period 2 within 260 steps, at 8 none
    does within 2000."""
    obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
    inits = np.geomspace(1e-3, 1e2, n_inits)[:, None] * (-1.0) ** np.arange(n_inits)[:, None]
    W = np.broadcast_to(inits, (len(etas), n_inits, 1)).copy()
    return obj, W, np.array(etas, dtype=float)[:, None, None]


class TestFinalStatesOnStacks:
    """_final_states on (s, n, d) stacks, one step size per layer: a layer
    leaves once all its states are written, never leaving one layer alone."""

    @pytest.mark.parametrize("T", [0, 1, 65, 66, 67, 129, 130, 131, 300, 2000])
    def test_per_layer_step_sizes(self, T):
        obj, W, etas = _toy_n2_stack([6.0, 7.0, 7.5, 8.0, 9.0, 10.0])
        steps = _assert_final_states_are_stepping(obj, W, etas, T)
        if T == 2000:
            assert steps < W.size * T

    def test_distinct_inits_per_layer(self):
        obj, eta, _ = _recipe("basin_2d", "logistic")
        W = np.random.default_rng(2).uniform(-10, 30, (5, 7, 2))
        etas = eta * np.array([0.5, 0.8, 0.9, 1.0, 1.05])[:, None, None]
        assert _assert_final_states_are_stepping(obj, W, etas, 1200) < W.size // 2 * 1200

    def test_layers_leave_at_different_steps(self):
        obj, W, etas = _toy_n2_stack([6.0, 7.0, 7.5, 9.0, 10.0])
        seen = []
        steps = _assert_final_states_are_stepping(
            obj, W, etas, 2000, lambda W, layers: seen.append(len(layers)))
        # 5 layers, then fewer, until the last two leave together
        assert seen[0] == 5 and seen[-1] == 2 and len(set(seen)) >= 3
        assert seen == sorted(seen, reverse=True) and len(seen) < 2000
        assert steps == 4 * sum(seen)

    def test_last_open_layer_rides_along(self):
        # the layers of 7 and 7.5 are written long before T, but the layer
        # of 8 never repeats: one written layer keeps stepping beside it
        obj, W, etas = _toy_n2_stack([7.0, 7.5, 8.0])
        seen = []
        T = 1000
        steps = _assert_final_states_are_stepping(
            obj, W, etas, T, lambda W, layers: seen.append(layers.tolist()))
        assert len(seen) == T and seen[0] == [0, 1, 2]
        assert seen[-1] in ([0, 2], [1, 2]) and min(map(len, seen)) == 2
        assert steps == 4 * sum(map(len, seen)) < W.size * T

    def test_no_steps(self):
        obj, W, etas = _toy_n2_stack([7.0, 8.0])
        out, period, row_steps = _final_states(obj, W, etas, 0, lambda *_: pytest.fail())
        assert out.tobytes() == W.tobytes() and out is not W
        assert not period.any() and row_steps == 0

    def test_each_step_sees_every_stepped_state_once_a_step(self):
        obj, W, etas = _toy_n2_stack([6.0, 7.0, 8.0, 9.0, 10.0])
        seen = []
        T = 300
        _, _, row_steps = _final_states(
            obj, W, etas, T, lambda W, layers: seen.append((W.copy(), layers.copy())))
        want = W
        for k, (got, layers) in enumerate(seen):
            want = g.step_many(obj, want, etas)
            # the states after step k + 1 of the layers still stepped, each once
            assert len(np.unique(layers)) == len(layers)
            assert k == 0 or set(layers) <= set(seen[k - 1][1])
            np.testing.assert_array_equal(got.view(np.int64), want[layers].view(np.int64))
        assert 0 < len(seen) <= T
        assert row_steps == sum(got.size for got, _ in seen)


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


class TestRepeatCheck:
    """The batched byte-repeat check that _final_states and
    bifurcation_sweep share."""

    def test_compares_bytes_not_values(self):
        # as floats -0.0 == 0.0 and nan != nan; their bytes say the opposite
        check = _RepeatCheck(_row_bits([[0.0, 1.0], [np.nan, 1.0], [2.0, 3.0]]))
        hit = check(_row_bits([[-0.0, 1.0], [np.nan, 1.0], [2.0, 3.0]]), 1)
        assert hit.tolist() == [False, True, True]
        assert check.period.tolist() == [0, 1, 1]
        # a row reports its first repeat only
        assert check(_row_bits([[0.0, 1.0], [np.nan, 1.0], [2.0, 3.0]]), 2) is None

    def test_finds_what_brent_finds_row_by_row(self):
        # rows x_t = t before mu and mu + (t - mu) % lam from mu on, against
        # Brent's loop on each row alone
        cases = [(0, 1), (1, 1), (0, 3), (5, 2), (7, 5), (20, 13), (3, 40)]

        def seq(mu, lam, t):
            return float(t if t < mu else mu + (t - mu) % lam)

        def brent(mu, lam):
            ref, r, span = seq(mu, lam, 0), 0, 1
            for u in range(1, 200):
                if seq(mu, lam, u) == ref:
                    return u, u - r
                if u - r == span:
                    ref, r, span = seq(mu, lam, u), u, 2 * span

        def rows(t):
            return _row_bits([[seq(mu, lam, t), -seq(mu, lam, t)] for mu, lam in cases])

        check, found = _RepeatCheck(rows(0)), {}
        for u in range(1, 200):
            hit = check(rows(u), u)
            if hit is not None:
                found.update((int(i), (u, int(check.period[i]))) for i in np.flatnonzero(hit))
        assert found == {i: brent(mu, lam) for i, (mu, lam) in enumerate(cases)}
        assert not check.open.any()

    @staticmethod
    def _by_all_coordinates(seq):
        """Brent's check written plainly: every coordinate compared at once,
        on states that all start at t = 0."""
        ref, r, span = seq[0], 0, 1
        period = np.zeros(seq[0].shape[:-1], dtype=np.int64)
        hits = []
        for u in range(1, len(seq)):
            hit = np.all(seq[u] == ref, axis=-1) & (period == 0)
            period[hit] = u - r
            hits.append(hit)
            if u - r == span:
                ref, r, span = seq[u], u, 2 * span
        return hits, period

    # bit patterns that match often: zeros of both signs, two NaN payloads,
    # an infinity and two plain values
    _POOL = np.array([0.0, -0.0, np.nan, 1.0, np.inf, -2.5, np.nan]).view(np.int64)
    _POOL[-1] ^= 0xBAD

    @pytest.mark.parametrize("shape", [(40, 1), (40, 3), (5, 8, 3)], ids=str)
    def test_matches_an_all_coordinate_comparison(self, shape):
        rng = np.random.default_rng(sum(shape))
        # each state cycles through its own random period of pool values
        # after a random lead-in; now and then its coordinates 1 on turn
        # into a NaN, so that coordinate 0 matches alone
        steps = 300
        lead = rng.integers(0, 20, shape[:-1])
        lam = rng.integers(1, 12, shape[:-1])
        orbit = rng.integers(0, len(self._POOL), shape[:-1] + (12, shape[-1]))
        t = np.arange(steps).reshape((steps,) + (1,) * (len(shape) - 1))
        phase = np.where(t < lead, (t * 5) % 12, (lead + (t - lead) % lam) % 12)
        seq = np.take_along_axis(orbit[None], phase[..., None, None], axis=-2)[..., 0, :]
        seq = self._POOL[seq]
        flip = rng.random(seq.shape[:-1]) < 0.02
        seq[..., 1:][flip] = self._POOL[2]
        want_hits, want_period = self._by_all_coordinates(seq)
        check = _RepeatCheck(seq[0].copy())
        for u in range(1, steps):
            hit = check(seq[u], u)
            want = want_hits[u - 1]
            if hit is None:
                assert not want.any(), u
            else:
                assert hit.tolist() == want.tolist(), u
        assert check.period.tolist() == want_period.tolist()
        assert (check.open == (want_period == 0)).all()
        assert want_period.any()                    # the case is not empty

    def test_first_coordinate_alone_is_no_repeat(self):
        # coordinate 0 repeats its bytes, another does not (-0.0 against
        # 0.0, one NaN payload against another)
        nan_b = np.array([np.nan]).view(np.int64) ^ 0xBAD
        start = _row_bits([[1.0, 0.0, 2.0], [1.0, 3.0, np.nan], [4.0, 5.0, 6.0]])
        later = start.copy()
        later[0, 1] = _row_bits([[-0.0]])[0, 0]
        later[1, 2] = nan_b[0]
        check = _RepeatCheck(start)
        hit = check(later, 1)
        assert hit.tolist() == [False, False, True]
        assert check.period.tolist() == [0, 0, 1]

    def test_keep_selects_rows(self):
        check = _RepeatCheck(_row_bits([[1.0], [2.0], [3.0]]))
        check(_row_bits([[1.0], [5.0], [6.0]]), 1)
        check.keep(np.array([True, False, True]))
        assert check.period.tolist() == [1, 0] and check.open.tolist() == [False, True]
        # the reference moved to t = 1: row 3's is 6.0
        assert check(_row_bits([[1.0], [6.0]]), 2).tolist() == [False, True]
        assert check.period.tolist() == [1, 1]

    def test_keep_takes_indices(self):
        check = _RepeatCheck(_row_bits([[1.0], [2.0], [3.0]]))
        check(_row_bits([[1.0], [5.0], [6.0]]), 1)
        check.keep(np.array([0, 2]))
        assert check.period.tolist() == [1, 0] and check.open.tolist() == [False, True]


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


def _losses_row_by_row(obj, Z):
    """The losses of the rows of margins Z, each summed by its own
    ``wts @ f`` over the same loss blocks as ``Objective._loss_sum``."""
    out = np.empty(len(Z))
    rows = max(1, _LOSS_BLOCK_FLOATS // Z.shape[1])
    for lo in range(0, len(Z), rows):
        F = obj.loss.f(Z[lo:lo + rows])
        out[lo:lo + len(F)] = [obj._wts @ f for f in F]
    return out


def _objective_with_groups(rng, G, loss):
    """An objective with G groups of random counts under ``loss``: only its
    weights and its loss enter the losses of given margins."""
    ds = g.Dataset(rng.normal(size=(G, 2)), rng.choice([-1, 1], size=G),
                   rng.integers(1, 300, size=G))
    return g.Objective(ds, g.get_loss(loss))


# margins where the losses switch form: exp's overflow and subnormal tail,
# squareplus's switch at 2**28, and the largest finite floats
_HUGE_MARGINS = np.array([745.0, -745.0, 710.0, 2.0**29, -(2.0**29), 1e300, -1e300,
                          np.finfo(float).max, -np.finfo(float).max])


def _random_margins(rng, n, G):
    Z = rng.normal(size=(n, G)) * rng.choice([1e-3, 1.0, 30.0, 1e4], size=(n, 1))
    spots = rng.integers(0, n * G, size=min(n * G, 4 * len(_HUGE_MARGINS)))
    Z.flat[spots] = rng.choice(_HUGE_MARGINS, size=len(spots))
    return Z


class TestLossesFromMargins:
    """One ``np.vecdot`` per block gives each row the bytes of its own
    ``wts @ f``."""

    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    @pytest.mark.parametrize("G", [1, 2, 3, 5, 8, 13, 17, 64])
    def test_each_row_is_its_own_dot(self, G, loss):
        rng = np.random.default_rng(G)
        obj = _objective_with_groups(rng, G, loss)
        Z = _random_margins(rng, 3000, G)
        want = _losses_row_by_row(obj, Z)
        assert obj._loss_sum(Z).tobytes() == want.tobytes()
        # into a slice of a longer buffer, as run writes them; the rows
        # around it stay untouched
        buf = np.full(len(Z) + 5, 7.0)
        obj._loss_sum(Z, out=buf[2:2 + len(Z)])
        assert buf[2:2 + len(Z)].tobytes() == want.tobytes()
        assert buf[:2].tolist() == [7.0, 7.0] and buf[-3:].tolist() == [7.0] * 3

    @pytest.mark.parametrize("loss", ["logistic", "squareplus"])
    @pytest.mark.parametrize("G", [3, 8])
    def test_across_loss_blocks(self, G, loss):
        rng = np.random.default_rng(100 + G)
        obj = _objective_with_groups(rng, G, loss)
        rows = _LOSS_BLOCK_FLOATS // G
        Z = _random_margins(rng, 2 * rows + 7, G)
        # huge margins on both sides of each block boundary
        for edge in (rows, 2 * rows):
            Z[edge - 1:edge + 1] = rng.choice(_HUGE_MARGINS, size=(2, G))
        want = _losses_row_by_row(obj, Z)
        assert np.max(want) > 1e299
        assert obj._loss_sum(Z).tobytes() == want.tobytes()
        for n in (rows - 1, rows, rows + 1):
            out = np.empty(n)
            obj._loss_sum(Z[:n], out=out)
            assert out.tobytes() == want[:n].tobytes()


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

    def test_another_loss_named_logistic_is_refused(self):
        # the name alone once let squareplus through, with sigmoid
        # probabilities for its groups ([0.3775, 0.6225] at w = 0.5)
        fake = dataclasses.replace(g.squareplus(), name="logistic")
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), fake)
        with pytest.raises(TypeError):
            g.probs_from_weights(obj, np.array([0.5]))
        with pytest.raises(TypeError):
            g.prob_step(obj, np.array([0.5, 0.5]), 1.0)

    def test_logistic_loss_under_another_name_is_accepted(self):
        renamed = dataclasses.replace(g.logistic(), name="logit")
        obj = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), renamed)
        ref = g.Objective(g.make_toy(g.ToySpec(2, [1.0])), g.logistic())
        w = np.array([0.5])
        assert g.probs_from_weights(obj, w).tobytes() == g.probs_from_weights(ref, w).tobytes()
        p = np.array([0.4, 0.6])
        assert g.prob_step(obj, p, 3.0).tobytes() == g.prob_step(ref, p, 3.0).tobytes()

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

    @pytest.mark.parametrize("iters", [-1, 2.5, 3.0, True], ids=repr)
    def test_iters_must_be_a_count(self, iters):
        # iters = -1 once raised IndexError
        with pytest.raises(ValueError, match="iters must be an integer >= 0"):
            g.run_prob(toy3_objective(), np.array([0.4, 0.6]), 1.0, iters)

    def test_zero_iters_gives_the_start(self):
        p0 = np.array([0.4, 0.6])
        assert g.run_prob(toy3_objective(), p0, 1.0, 0).tolist() == [p0.tolist()]

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

    @pytest.mark.parametrize("eta", [-1.0, 0.0, np.nan, np.inf])
    def test_step_size_checked(self, eta):
        # unchecked, eta = -1 answered 1.77 and NaN failed inside eigvals
        obj = toy3_objective()
        with pytest.raises(ValueError, match="step size"):
            g.orbit_multiplier(obj, [[0.5]], eta)

    @pytest.mark.parametrize("fixture", ["cycle4", "cycle7", "cycle37"])
    def test_1d_multiplier_is_the_python_float_product(self, fixture, request):
        # the one matrix-product path gives, at d = 1, the bits of the
        # product of Python floats 1 - eta L''(w) along the orbit, from
        # every phase
        obj, _, eta, _, rep = request.getfixturevalue(fixture)
        assert rep.kind == "cycle"
        for k in range(rep.period):
            orbit = np.roll(rep.orbit, -k, axis=0)
            prod = 1.0
            for w in orbit:
                prod *= 1.0 - eta * float(obj.hessian(w)[0, 0])
            assert g.orbit_multiplier(obj, orbit, eta) == abs(prod)

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
    def test_lyapunov_matches_per_state_loop(self, d, request):
        # the batched estimate against the per-state Hessian loop it replaced;
        # at d = 1 both take the mean of the same per-state values, so the
        # bits agree, on chaotic_1d's tail too
        rng = np.random.default_rng(20 + d)
        obj = g.Objective(random_nonseparable(rng, d), g.logistic())
        sol = g.minimize(obj)
        eta = 1.3 * sol.eta_two_lambda
        traj = g.run(obj, g.GDConfig(w0=sol.w_star + rng.normal(size=d), max_iters=1500,
                                     eta=eta))
        cases = [(obj, eta, traj.iterates),
                 (obj, eta, sol.w_star + 3.0 * rng.normal(size=(700, d)))]
        if d == 1:
            chaos, _, chaos_eta, chaos_traj, _ = request.getfixturevalue("chaotic_run")
            cases.append((chaos, chaos_eta, chaos_traj.dense_tail()[-chaos_traj.tail_window:]))
        for obj, eta, states in cases:
            want = _lyapunov_by_hessian_loop(obj, states, eta)
            assert abs(want) > 1e-3
            got = _lyapunov_from_states(obj, states, eta)
            if d == 1:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12)

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

    @pytest.mark.parametrize("burn_in", [2.5, 10.0, True], ids=repr)
    def test_burn_in_must_be_an_integer(self, burn_in):
        # burn_in = 2.5 once raised TypeError from a slice, and True ran as 1
        obj = toy3_objective()
        traj = g.run(obj, g.GDConfig(w0=[1.0], max_iters=2000, eta=1.0))
        with pytest.raises(ValueError, match="burn_in must be an integer >= 0"):
            g.lyapunov(obj, traj, 1.0, burn_in=burn_in)

    def test_negative_burn_in_rejected(self):
        # unchecked, burn_in = -7000 averaged over the last 7000 states
        obj = toy3_objective()
        traj = g.run(obj, g.GDConfig(w0=[1.0], max_iters=10_000, eta=1.0))
        with pytest.raises(ValueError, match="burn_in"):
            g.lyapunov(obj, traj, 1.0, burn_in=-7000)
