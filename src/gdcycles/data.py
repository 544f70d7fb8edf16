"""Dataset representation, text parsers, and the exact separability decision.

Datasets store one row per distinct (feature vector, label) pair together
with a multiplicity count.  The counterexample constructions use thousands of
copies of a handful of distinct points, so grouped storage keeps gradient
evaluation O(#groups) instead of O(#examples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ParseError

__all__ = [
    "Dataset",
    "SeparabilityVerdict",
    "parse_libsvm",
    "parse_compact",
    "serialize_compact",
    "check_separable",
]


@dataclass(frozen=True)
class Dataset:
    """Weighted binary classification examples.

    xs     (G, d) feature rows
    ys     (G,)   labels, each +1 or -1
    counts (G,)   positive multiplicities
    """

    xs: np.ndarray
    ys: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys, counts = _integers(self.ys, "labels"), _integers(self.counts, "counts")
        if xs.shape[0] == 0:
            raise ValueError("dataset needs at least one group")
        if xs.shape[0] != ys.shape[0] or xs.shape[0] != counts.shape[0]:
            raise ValueError("xs, ys, counts must have matching lengths")
        if not np.all((ys == 1) | (ys == -1)):
            raise ValueError("labels must be +1 or -1")
        if not np.all(counts >= 1):
            raise ValueError("counts must be positive")
        if not np.all(np.isfinite(xs)):
            raise ValueError("features must be finite")
        if not np.any(xs != 0.0):
            raise ValueError("all feature vectors are zero")
        for name, arr in (("xs", xs), ("ys", ys), ("counts", counts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    @property
    def n_groups(self) -> int:
        return self.xs.shape[0]

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    def expanded(self) -> np.ndarray:
        """Feature rows repeated by multiplicity, (N, d)."""
        return np.repeat(self.xs, self.counts, axis=0)


def _integers(values, name: str) -> np.ndarray:
    """``values`` flattened to int64, or ValueError unless each is an
    integer value: a cast alone would take 1.5 for 1."""
    arr = np.asarray(values).ravel()
    with np.errstate(invalid="ignore"):    # NaN and inf cast to junk, caught below
        ints = arr.astype(np.int64)
    if not np.array_equal(ints, arr):
        raise ValueError(f"{name} must be integers, got {arr}")
    return ints


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Whether some w has every margin y_i w.x_i >= 0 and one of them > 0.

    verdict  "separable": some w has every margin > 0;
             "weakly_separable": none has, but some w has every margin >= 0
             and one > 0;
             "non_separable": every w with a positive margin has a negative
             one.
    witness  that w for the first two verdicts, rounded to float64 (exact
             when its reduced integer form fits in 53 bits); None for the
             third.
    """

    verdict: str
    witness: Optional[np.ndarray]


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_label(tok: str, line_no: int, zero_as_negative: bool) -> int:
    if tok in ("+1", "1"):
        return 1
    if tok == "-1":
        return -1
    if tok == "0":
        if zero_as_negative:
            return -1
        raise ParseError("label 0 needs zero_as_negative=True", line_no)
    raise ParseError(f"bad label {tok!r}", line_no)


def parse_libsvm(text, zero_as_negative: bool = False) -> Dataset:
    """Parse sparse '<label> <idx>:<val> ...' text into a dense Dataset.

    Indices are 1-based and must be strictly ascending within a line; the
    dataset dimension is the largest index seen anywhere.  Identical rows
    with identical labels merge into one group with summed count.  '#' starts
    a comment; blank lines are skipped.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows = []        # (y, {idx: val})
    max_idx = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        toks = line.split()
        y = _parse_label(toks[0], line_no, zero_as_negative)
        feats = {}
        prev = 0
        for tok in toks[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", line_no) from None
            if idx < 1:
                raise ParseError(f"index {idx} is not 1-based", line_no)
            if idx <= prev:
                raise ParseError(f"indices must be ascending, got {idx} after {prev}", line_no)
            prev = idx
            feats[idx] = val
        max_idx = max(max_idx, prev)
        rows.append((y, feats))
    if not rows:
        raise ParseError("empty input")
    if max_idx == 0:
        raise ParseError("no features present in input")

    groups = {}
    order = []
    for y, feats in rows:
        x = np.zeros(max_idx)
        for idx, val in feats.items():
            x[idx - 1] = val
        key = (y, x.tobytes())
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [x, 1]
            order.append(key)
    xs = np.array([groups[k][0] for k in order])
    ys = np.array([k[0] for k in order])
    counts = np.array([groups[k][1] for k in order])
    try:
        return Dataset(xs, ys, counts)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_compact(text) -> Dataset:
    """Parse '<count> <y> <x1> [<x2> ...]' lines into a Dataset (file order).

    Every line must have the same arity; counts must be positive integers and
    labels +/-1.  Convention: files use the .cds extension.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    xs, ys, counts = [], [], []
    arity = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        toks = line.split()
        if len(toks) < 3:
            raise ParseError("expected '<count> <y> <x1> ...'", line_no)
        if arity is None:
            arity = len(toks)
        elif len(toks) != arity:
            raise ParseError(f"ragged arity {len(toks)} (expected {arity})", line_no)
        try:
            c = int(toks[0])
        except ValueError:
            raise ParseError(f"bad count {toks[0]!r}", line_no) from None
        if c <= 0:
            raise ParseError(f"count must be positive, got {c}", line_no)
        y = _parse_label(toks[1], line_no, zero_as_negative=False)
        try:
            x = [float(t) for t in toks[2:]]
        except ValueError:
            raise ParseError("bad feature value", line_no) from None
        counts.append(c)
        ys.append(y)
        xs.append(x)
    if not xs:
        raise ParseError("empty input")
    try:
        return Dataset(np.array(xs), np.array(ys), np.array(counts))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_compact(ds: Dataset) -> str:
    """Inverse of parse_compact, lossless for float64 features."""
    lines = []
    for x, y, c in zip(ds.xs, ds.ys, ds.counts):
        feats = " ".join(format(v, ".17g") for v in x)
        lines.append(f"{int(c)} {int(y)} {feats}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Separability
# ---------------------------------------------------------------------------

def _integer_points(ds: Dataset) -> list:
    """The signed points y_i x_i as rows of Python integers, all scaled by one
    power of two.  Every float is a dyadic rational, so the scale is exact and
    keeps every margin's sign and every null vector."""
    ratios = [[v.as_integer_ratio() for v in row]
              for row in (ds.ys[:, None] * ds.xs).tolist()]
    den = max(q for row in ratios for _, q in row)
    return [[p * (den // q) for p, q in row] for row in ratios]


def _pivot(T: list, D: int, r: int, c: int) -> int:
    """Fraction-free (Bareiss) pivot on T[r][c].  T holds each tableau entry
    times the basis determinant D > 0, so every row but r becomes
    (p*row - row[c]*T[r]) / D, an exact integer division.  Returns the new
    determinant |p|, negating the whole tableau when p < 0."""
    pr = T[r]
    p = pr[c]
    for i, row in enumerate(T):
        if i != r:
            f = row[c]
            T[i] = [(p * a - f * b) // D for a, b in zip(row, pr)]
    if p < 0:
        T[:] = [[-a for a in row] for row in T]
    return abs(p)


def _bland(T: list, D: int, basis: list, ncols: int) -> int:
    """Maximize the objective row T[-1] by the simplex method under Bland's
    rule: the lowest of the first ``ncols`` columns with a positive reduced
    cost enters, and of the rows tied in the ratio test, the one with the
    lowest basic variable leaves.  The feasible set is bounded, so some row
    always has a positive entry in the entering column."""
    while True:
        c = next((j for j in range(ncols) if T[-1][j] > 0), None)
        if c is None:
            return D
        r = None
        for i in range(len(basis)):
            a = T[i][c]
            if a > 0 and (r is None or
                          (T[i][-1] * T[r][c], basis[i]) < (T[r][-1] * a, basis[r])):
                r = i
        D = _pivot(T, D, r, c)
        basis[r] = c


def _solve_lp(P: list):
    """max t subject to P^T lam = 0, sum(lam) = 1 and lam >= t, over the
    integer signed points P (G rows of d), written with lam = mu + t and
    mu, t >= 0; columns mu_1 .. mu_G, t, then one artificial per row.

    Phase I looks for any lam >= 0.  If there is none, its dual gives w with
    P w > 0 (Gordan).  Otherwise t* >= 0, and phase II raises t: at t* > 0,
    lam > 0 (Stiemke); at t* = 0 its dual gives w with P w >= 0 and
    sum(P w) >= 1.  Returns (verdict, w, lam): integer vectors, each a
    positive multiple of its certificate, or None where the verdict has none.
    """
    G, d = len(P), len(P[0])
    n, m = G + 1, d + 1          # real columns; rows: one per feature, then sum(lam)
    # the sum row reads s*sum(lam) = s, s the largest |entry|, which keeps
    # phase I's w in scale with the points: with s = 1 its exact margins
    # spanned up to 18 decades, and on 163 of 275 random separable draws
    # (d = 2-5) the float witness had a margin <= 0; with s, on none
    s = max(abs(a) for p in P for a in p)
    T = []
    for k in range(m):
        row = [p[k] for p in P] if k < d else [s] * G
        T.append(row + [sum(row)] + [int(i == k) for i in range(m)] + [s * (k == d)])
    basis = list(range(n, n + m))
    # phase I: maximize -sum(artificials), priced out against their basis
    T.append([sum(col) for col in zip(*T)])
    T[-1][n:n + m] = [0] * m
    D = _bland(T, 1, basis, n)
    if T[-1][-1] > 0:            # sum(artificials) > 0 at the optimum
        return "separable", [-D - T[-1][n + k] for k in range(d)], None
    for i in range(m):           # pivot out the artificials left basic at level 0
        if basis[i] >= n:
            c = next((j for j in range(n) if T[i][j]), None)
            if c is not None:    # else the row is redundant and stays zero
                D = _pivot(T, D, i, c)
                basis[i] = c
    # phase II: maximize t, priced out against the current basis
    T[-1] = [0] * (n + m + 1)
    T[-1][G] = D
    if G in basis:
        T[-1] = [a - b for a, b in zip(T[-1], T[basis.index(G)])]
    D = _bland(T, D, basis, n)
    x = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i][-1]
    lam = [v + x[G] for v in x[:G]]
    if x[G] > 0:
        return "non_separable", None, lam
    return "weakly_separable", [-T[-1][n + k] for k in range(d)], lam


def _balances(P: list, lam: list) -> bool:
    """Whether P^T lam = 0."""
    return all(sum(l * p[k] for l, p in zip(lam, P)) == 0 for k in range(len(P[0])))


def _certified(P: list, verdict: str, w, lam) -> bool:
    """Check a verdict's certificate in exact integer arithmetic: P w > 0 for
    "separable"; P w >= 0 with sum(P w) > 0, and lam >= 0, lam != 0 with
    P^T lam = 0, for "weakly_separable"; lam > 0 with P^T lam = 0 for
    "non_separable"."""
    if verdict == "non_separable":
        return min(lam) > 0 and _balances(P, lam)
    margins = [sum(a * b for a, b in zip(p, w)) for p in P]
    if verdict == "separable":
        return min(margins) > 0
    return (min(margins) >= 0 and sum(margins) > 0
            and min(lam) >= 0 and sum(lam) > 0 and _balances(P, lam))


def check_separable(ds: Dataset) -> SeparabilityVerdict:
    """Decide exactly whether the data admit a finite minimizer.

    A convex loss that decreases strictly to 0 at +infinity (logistic,
    squareplus) has a finite minimizer iff every w with a positive margin
    y_i w.x_i also has a negative one, that is iff the verdict is
    "non_separable"; it is unique when the points also span R^d.  One exact
    LP over the signed points, scaled to integers and solved by a
    fraction-free simplex, tells the three verdicts apart at every d; each
    certificate is checked in integer arithmetic before the verdict is
    returned, and a failed check raises.
    """
    P = _integer_points(ds)
    verdict, w, lam = _solve_lp(P)
    if not _certified(P, verdict, w, lam):
        # contract: a verdict stands only on a certificate checked exactly
        raise AssertionError(f"{verdict} witness fails the exact check")
    if w is None:
        return SeparabilityVerdict(verdict, None)
    g = math.gcd(*w)
    w = [a // g for a in w]
    scale = 1 << max(0, max(map(abs, w)).bit_length() - 53)
    return SeparabilityVerdict(verdict, np.array([a / scale for a in w]))
