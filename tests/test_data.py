"""Parsers, serialization round-trips, and the exact separability decision."""

from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import gdcycles as g
from conftest import random_nonseparable

# weakly separable sets at d = 1, 2, 3 (all labels +1): some w has every
# margin >= 0 and one > 0, none has every margin > 0, so no finite minimizer
WEAKLY_SEPARABLE = {
    "d1-zero-feature": [[0.0], [1.0], [2.0]],
    "d2-half-plane": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
    "d3-free-axis": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


def weakly_separable(name):
    xs = np.array(WEAKLY_SEPARABLE[name])
    return g.Dataset(xs, np.ones(len(xs), dtype=int), np.ones(len(xs), dtype=int))


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

    @pytest.mark.parametrize("token", ["0:1.0", "-1:2"])
    def test_index_below_one_rejected_as_not_1_based(self, token):
        # the 1-based check comes first: an index below 1 also fails the
        # ascending one, whose message ("got 0 after 0") would hide the cause
        with pytest.raises(g.ParseError, match=f"index {token.split(':')[0]} is not 1-based"):
            g.parse_libsvm(f"+1 {token}\n")

    def test_dataset_rejection_is_a_parse_error(self):
        # as parse_compact does, so both formats fail the same way
        with pytest.raises(g.ParseError, match="features must be finite"):
            g.parse_libsvm("+1 1:nan\n")

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

    @pytest.mark.parametrize("ys,counts,field", [
        ([1.5, 1], [2, 1], "labels"), ([1, -1], [2.7, 1], "counts"),
        ([1.5, 1], [2.7, 1], "labels"), ([np.nan, 1], [1, 1], "labels"),
        ([1, 1], [np.inf, 1], "counts"), ([1, -1], [1e30, 1], "counts"),
    ], ids=["label-1.5", "count-2.7", "both", "nan-label", "inf-count", "huge-count"])
    def test_non_integer_labels_and_counts_rejected(self, ys, counts, field):
        # a cast alone took label 1.5 for 1 and count 2.7 for 2
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            g.Dataset(np.array([[1.0], [2.0]]), ys, counts)

    def test_integer_valued_floats_and_numpy_integers_accepted(self):
        ds = g.Dataset(np.array([[1.0], [2.0]]), [1.0, -1.0], np.array([3, 1], dtype=np.uint8))
        assert ds.ys.tolist() == [1, -1] and ds.counts.tolist() == [3, 1]
        assert ds.ys.dtype == ds.counts.dtype == np.int64

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

    def test_zero_feature_is_weakly_separable(self):
        # w = 1 gives margins (1, 0): not separable, and no finite minimizer
        ds = g.parse_compact("1 1 1\n1 1 0\n")
        v = g.check_separable(ds)
        assert v.verdict == "weakly_separable"
        np.testing.assert_array_equal(v.witness, [1.0])


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
        assert np.min((ds.ys[:, None] * ds.xs) @ v.witness) > 0.0

    def test_simplex_points_are_nonseparable(self):
        # e1 + e2 + e3 + (-(e1 + e2 + e3)) = 0 with every weight positive, so
        # every w has a negative margin, yet no two points are antipodes
        xs = np.vstack([np.eye(3), -np.ones((1, 3))])
        ds = g.Dataset(xs, np.ones(4, dtype=int), np.ones(4, dtype=int))
        v = g.check_separable(ds)
        assert v.verdict == "non_separable"

    def test_antipodal_pair_is_nonseparable(self):
        # every row with both labels gives p and -p
        rng = np.random.default_rng(9)
        for d in (3, 4, 8):
            v = g.check_separable(random_nonseparable(rng, d))
            assert v.verdict == "non_separable"
            assert v.witness is None
        # a zero coordinate matches its negation: -(0.0) is -0.0, a different
        # bit pattern than the 0.0 in the other row
        ds = g.Dataset(np.array([[1.0, 0.0, 2.0], [-1.0, 0.0, -2.0]]),
                       np.ones(2, dtype=int), np.ones(2, dtype=int))
        assert g.check_separable(ds).verdict == "non_separable"
        # a zero row has margin 0 for every w, and the other row's margin is
        # positive for some w: weakly separable
        ds = g.Dataset(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),
                       np.ones(2, dtype=int), np.ones(2, dtype=int))
        assert g.check_separable(ds).verdict == "weakly_separable"

    def test_failed_witness_recheck_raises(self, monkeypatch):
        # the re-check is a raise, not an assert, so python -O keeps it.  On
        # the points (0, 1), (0, -1): w = (1, 0) has margins 0, 0, and
        # lam = (1, 2) leaves P^T lam = (0, -1)
        ds = g.parse_compact("1 1 0 1\n1 -1 0 1\n")
        for bogus in (("separable", [1, 0], None),
                      ("weakly_separable", [1, 0], [1, 1]),
                      ("non_separable", None, [1, 2])):
            monkeypatch.setattr(g.data, "_solve_lp", lambda P, bogus=bogus: bogus)
            with pytest.raises(AssertionError, match="witness"):
                g.check_separable(ds)


def assert_certificate(P, verdict, w, lam):
    """The alternative theorems' certificates, checked in exact rational
    arithmetic apart from the package: each proves its verdict on its own."""
    P = [[Fraction(a) for a in p] for p in P]
    if verdict != "non_separable":
        margins = [sum(a * Fraction(b) for a, b in zip(p, w)) for p in P]
        if verdict == "separable":
            assert min(margins) > 0
            return
        assert min(margins) >= 0 and sum(margins) > 0
    assert min(lam) >= (1 if verdict == "non_separable" else 0) and sum(lam) > 0
    assert all(sum(l * p[k] for l, p in zip(lam, P)) == 0 for k in range(len(P[0])))


class TestSeparabilityExact:
    @pytest.mark.parametrize("name", sorted(WEAKLY_SEPARABLE))
    def test_weakly_separable_sets(self, name):
        ds = weakly_separable(name)
        v = g.check_separable(ds)
        assert v.verdict == "weakly_separable"
        assert_certificate((ds.ys[:, None] * ds.xs).tolist(), v.verdict, v.witness.tolist(),
                           g.data._solve_lp(g.data._integer_points(ds))[2])

    def test_recipes_and_their_stacks_are_nonseparable(self):
        # every shipped dataset has a finite minimizer, and so has every
        # k-fold stack of a 1-D one: block j's certificate lives on block j
        recipes = resources.files("gdcycles") / "recipes"
        names = sorted(p.name for p in recipes.iterdir() if p.name.endswith(".cds"))
        assert len(names) == 7
        for name in names:
            ds = g.parse_compact((recipes / name).read_text())
            assert g.check_separable(ds).verdict == "non_separable", name
            if ds.dim == 1:
                for k in range(2, 9):
                    stacked = g.kronecker_stack(ds, k)
                    assert g.check_separable(stacked).verdict == "non_separable", (name, k)

    def test_every_verdict_carries_an_exact_certificate(self):
        # small integer points at d = 3-5, with zeros, duplicates, antipodes
        # and a power-of-ten scale, so that all three verdicts come up
        rng = np.random.default_rng(21)
        seen = {"separable": 0, "weakly_separable": 0, "non_separable": 0}
        for _ in range(300):
            d = int(rng.integers(3, 6))
            n = int(rng.integers(1, 9))
            xs = rng.integers(-2, 3, size=(n, d)).astype(float)
            if n > 1 and rng.random() < 0.4:
                xs[rng.integers(n)] = -xs[rng.integers(n)]
            if not xs.any():
                continue
            xs *= 10.0 ** int(rng.integers(-3, 4))
            ys = rng.choice([-1, 1], size=n)
            ds = g.Dataset(xs, ys, np.ones(n, dtype=int))
            v = g.check_separable(ds)
            seen[v.verdict] += 1
            # the solver's integer certificate holds for the signed points
            # themselves, and so does the float witness returned with it
            P = (ys[:, None] * xs).tolist()
            verdict, w, lam = g.data._solve_lp(g.data._integer_points(ds))
            assert verdict == v.verdict
            assert_certificate(P, verdict, w, lam)
            if verdict == "non_separable":
                assert v.witness is None
            else:
                assert_certificate(P, verdict, v.witness.tolist(), lam)
        assert min(seen.values()) >= 30, seen

