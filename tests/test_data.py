"""Parsers, serialization round-trips, and the separability checker."""

import numpy as np
import pytest

import gdcycles as g
from conftest import random_nonseparable


class TestParseLibsvm:
    def test_basic_line(self):
        ds = g.parse_libsvm("+1 1:2.0 2:-1.0\n")
        assert ds.dim == 2
        assert ds.n_groups == 1
        np.testing.assert_array_equal(ds.xs, [[2.0, -1.0]])
        assert ds.ys[0] == 1 and ds.counts[0] == 1

    def test_identical_lines_merge(self):
        ds = g.parse_libsvm("+1 1:1.0\n+1 1:1.0\n")
        assert ds.n_groups == 1
        assert ds.counts[0] == 2
        assert ds.total_count == 2

    def test_missing_indices_are_zero(self):
        ds = g.parse_libsvm("-1 2:0.5\n+1 1:3\n")
        assert ds.dim == 2
        np.testing.assert_array_equal(ds.xs, [[0.0, 0.5], [3.0, 0.0]])
        np.testing.assert_array_equal(ds.ys, [-1, 1])

    def test_bytes_input_and_comments(self):
        ds = g.parse_libsvm(b"# header\n  +1 1:1.5   # trailing\n\n-1 1:-0.5\n")
        assert ds.n_groups == 2

    def test_label_one_means_positive(self):
        ds = g.parse_libsvm("1 1:1.0\n")
        assert ds.ys[0] == 1

    def test_zero_label_requires_flag(self):
        with pytest.raises(g.ParseError) as exc:
            g.parse_libsvm("0 1:1.0\n")
        assert exc.value.line == 1
        ds = g.parse_libsvm("0 1:1.0\n", zero_as_negative=True)
        assert ds.ys[0] == -1

    def test_malformed_line_reports_number(self):
        with pytest.raises(g.ParseError) as exc:
            g.parse_libsvm("+1 1:1.0\n+1 broken\n")
        assert exc.value.line == 2

    def test_nonascending_indices_rejected(self):
        with pytest.raises(g.ParseError):
            g.parse_libsvm("+1 2:1.0 1:2.0\n")
        with pytest.raises(g.ParseError):
            g.parse_libsvm("+1 1:1.0 1:2.0\n")

    def test_empty_input_rejected(self):
        with pytest.raises(g.ParseError):
            g.parse_libsvm("")
        with pytest.raises(g.ParseError):
            g.parse_libsvm("# only a comment\n")


class TestParseCompact:
    def test_kicked_1d_file(self):
        ds = g.parse_compact("250 1 1\n200 1 -1\n15 1 70\n")
        assert ds.dim == 1
        assert ds.total_count == 465
        np.testing.assert_array_equal(ds.counts, [250, 200, 15])

    def test_two_kick_2d_file(self):
        text = "500 1 1 0\n30 1 -1 0\n5 1 0 1\n1 1 0 -1\n7 1 45 -70\n10 1 7.5 50\n"
        ds = g.parse_compact(text)
        assert ds.dim == 2
        assert ds.total_count == 553
        assert ds.n_groups == 6

    def test_groups_keep_file_order(self):
        ds = g.parse_compact("3 1 5\n2 -1 4\n")
        np.testing.assert_array_equal(ds.xs[:, 0], [5.0, 4.0])

    def test_all_zero_features_rejected(self):
        with pytest.raises(g.ParseError):
            g.parse_compact("1 1 0\n")

    @pytest.mark.parametrize("text", [
        "0 1 1\n",          # nonpositive count
        "-2 1 1\n",
        "1 2 1\n",          # bad label
        "1 1 1\n1 1 1 2\n",  # ragged arity
        "1 1\n",            # no features
        "x 1 1\n",          # bad count token
        "",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(g.ParseError):
            g.parse_compact(text)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ds = random_nonseparable(rng, d=3)
            again = g.parse_compact(g.serialize_compact(ds))
            np.testing.assert_array_equal(ds.xs, again.xs)
            np.testing.assert_array_equal(ds.ys, again.ys)
            np.testing.assert_array_equal(ds.counts, again.counts)


class TestDatasetInvariants:
    def test_validation(self):
        with pytest.raises(ValueError):
            g.Dataset(np.array([[1.0]]), np.array([2]), np.array([1]))
        with pytest.raises(ValueError):
            g.Dataset(np.array([[1.0]]), np.array([1]), np.array([0]))
        with pytest.raises(ValueError):
            g.Dataset(np.array([[0.0, 0.0]]), np.array([1]), np.array([1]))

    def test_flip_symmetry(self):
        # negating (x, y) jointly for any group leaves the objective unchanged
        rng = np.random.default_rng(11)
        ds = random_nonseparable(rng, d=3)
        obj = g.Objective(ds, g.logistic())
        for flip_idx in range(ds.n_groups):
            xs = ds.xs.copy()
            ys = ds.ys.copy()
            xs[flip_idx] = -xs[flip_idx]
            ys[flip_idx] = -ys[flip_idx]
            flipped = g.Objective(g.Dataset(xs, ys, ds.counts), g.logistic())
            for _ in range(10):
                w = rng.normal(size=3)
                assert obj.value(w) == flipped.value(w)

    def test_total_count_and_expanded(self):
        ds = g.parse_compact("3 1 1\n2 1 -1\n")
        assert ds.total_count == 5
        assert ds.expanded().shape == (5, 1)


class TestSeparability1D:
    def test_all_positive_products(self):
        ds = g.parse_compact("1 1 1\n1 1 2\n")
        v = g.check_separable(ds)
        assert v.verdict == "separable"
        np.testing.assert_array_equal(v.witness, [1.0])

    def test_all_negative_products(self):
        ds = g.parse_compact("1 -1 1\n1 -1 2\n")
        v = g.check_separable(ds)
        assert v.verdict == "separable"
        np.testing.assert_array_equal(v.witness, [-1.0])

    def test_mixed_products(self):
        ds = g.parse_compact("2 1 1\n1 1 -1\n")
        assert g.check_separable(ds).verdict == "non_separable"

    def test_zero_feature_forces_nonseparable(self):
        ds = g.parse_compact("1 1 1\n1 1 0\n")
        assert g.check_separable(ds).verdict == "non_separable"


class TestSeparability2D:
    def test_opposite_labels_margin_one(self):
        ds = g.Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       np.array([1, -1]), np.array([1, 1]))
        v = g.check_separable(ds)
        assert v.verdict == "separable"
        margins = (ds.ys[:, None] * ds.xs) @ v.witness
        assert np.min(margins) > 0.0

    def test_conflict_dataset_nonseparable(self):
        for n in (2, 5, 10):
            ds = g.make_toy(g.ToySpec(n, [0.6, 0.8]))
            assert g.check_separable(ds).verdict == "non_separable"

    def test_opposite_points_nonseparable(self):
        ds = g.Dataset(np.array([[1.0, 1.0], [-1.0, -1.0]]),
                       np.array([1, 1]), np.array([1, 1]))
        assert g.check_separable(ds).verdict == "non_separable"

    def test_agrees_with_angular_grid_oracle(self):
        # brute force over 1e5 directions; compare wherever the grid
        # certifies either answer with margin > 1e-6
        rng = np.random.default_rng(77)
        thetas = np.linspace(0.0, 2.0 * np.pi, 100_000, endpoint=False)
        dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
        checked = 0
        for _ in range(50):
            k = int(rng.integers(2, 6))
            xs = rng.normal(size=(k, 2))
            ys = rng.choice([-1, 1], size=k)
            ds = g.Dataset(xs, ys, np.ones(k, dtype=int))
            pts = ys[:, None] * xs
            best = np.max(np.min(dirs @ pts.T, axis=1))
            verdict = g.check_separable(ds).verdict
            if best > 1e-6:
                assert verdict == "separable"
                checked += 1
            elif best < -1e-6:
                # every direction leaves a clearly wrong point
                assert verdict == "non_separable"
                checked += 1
        assert checked >= 40  # the oracle decides nearly every random draw


class TestSeparabilityHighD:
    def test_separable_returns_witness(self):
        rng = np.random.default_rng(8)
        w_true = np.array([1.0, -2.0, 0.5, 3.0])
        xs = rng.normal(size=(20, 4))
        ys = np.where(xs @ w_true > 0, 1, -1)
        ds = g.Dataset(xs, ys, np.ones(20, dtype=int))
        v = g.check_separable(ds)
        assert v.verdict == "separable"
        assert v.method == "perceptron"

    def test_nonseparable_reports_unknown_at_cap(self):
        # e1 + e2 + e3 + (-(e1 + e2 + e3)) = 0, so no w has all four margins
        # positive, yet no two points are antipodes
        xs = np.vstack([np.eye(3), -np.ones((1, 3))])
        ds = g.Dataset(xs, np.ones(4, dtype=int), np.ones(4, dtype=int))
        v = g.check_separable(ds, perceptron_cap=2000)
        assert v.verdict == "unknown"

    def test_antipodal_pair_is_nonseparable_without_perceptron(self):
        # every row with both labels gives p and -p, a certificate that
        # needs no perceptron update
        rng = np.random.default_rng(9)
        for d in (3, 4, 8):
            v = g.check_separable(random_nonseparable(rng, d), perceptron_cap=0)
            assert v.verdict == "non_separable" and v.method == "antipodal"
            assert v.witness is None
        # a zero coordinate matches its negation: -(0.0) is -0.0, a different
        # bit pattern than the 0.0 in the other row; and a zero row is its
        # own antipode, since its margin is 0 for every w
        for xs in ([[1.0, 0.0, 2.0], [-1.0, 0.0, -2.0]], [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]):
            ds = g.Dataset(np.array(xs), np.ones(2, dtype=int), np.ones(2, dtype=int))
            v = g.check_separable(ds, perceptron_cap=0)
            assert v.verdict == "non_separable" and v.method == "antipodal"

    def test_failed_witness_recheck_raises(self, monkeypatch):
        # the re-check is a raise, not an assert, so python -O keeps it
        bogus = g.data.SeparabilityVerdict("separable", np.array([1.0, 0.0]), "2d-gap")
        monkeypatch.setattr(g.data, "_check_2d", lambda pts: bogus)
        ds = g.parse_compact("1 1 0 1\n1 -1 0 1\n")
        with pytest.raises(AssertionError, match="witness"):
            g.check_separable(ds)

