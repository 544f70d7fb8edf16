"""Dataset representation, text parsers, and the separability checker.

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
        ys = np.asarray(self.ys, dtype=np.int64).ravel()
        counts = np.asarray(self.counts, dtype=np.int64).ravel()
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


@dataclass(frozen=True)
class SeparabilityVerdict:
    verdict: str                       # "separable" | "non_separable" | "unknown"
    witness: Optional[np.ndarray]      # w with min_i y_i w.x_i > 0 when separable
    method: str


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
            if idx <= prev:
                raise ParseError(f"indices must be ascending, got {idx} after {prev}", line_no)
            if idx < 1:
                raise ParseError(f"index {idx} is not 1-based", line_no)
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
    return Dataset(xs, ys, counts)


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

def _verdict_sep(w, method):
    return SeparabilityVerdict("separable", np.asarray(w, dtype=float), method)


def _check_1d(pts: np.ndarray) -> SeparabilityVerdict:
    if np.any(pts == 0.0):
        return SeparabilityVerdict("non_separable", None, "1d-sign")
    if np.all(pts > 0.0):
        return _verdict_sep([1.0], "1d-sign")
    if np.all(pts < 0.0):
        return _verdict_sep([-1.0], "1d-sign")
    return SeparabilityVerdict("non_separable", None, "1d-sign")


def _check_2d(pts: np.ndarray) -> SeparabilityVerdict:
    # Signed points y_i x_i are strictly separable iff they all fit in an open
    # half-plane, i.e. the largest angular gap between them exceeds pi.  The
    # witness is the direction opposite the gap's midpoint, re-checked for a
    # strictly positive margin.
    if np.any(np.all(pts == 0.0, axis=1)):
        return SeparabilityVerdict("non_separable", None, "2d-angular")
    angles = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * math.pi - angles[-1]
    all_gaps = np.append(gaps, wrap)
    k = int(np.argmax(all_gaps))
    if all_gaps[k] <= math.pi:
        return SeparabilityVerdict("non_separable", None, "2d-angular")
    gap_mid = angles[k] + all_gaps[k] / 2.0
    w = np.array([math.cos(gap_mid + math.pi), math.sin(gap_mid + math.pi)])
    if np.min(pts @ w) > 0.0:
        return _verdict_sep(w, "2d-angular")
    return SeparabilityVerdict("non_separable", None, "2d-angular")


def _check_antipodal(pts: np.ndarray) -> Optional[SeparabilityVerdict]:
    # p_i == -p_j gives w.p_i == -(w.p_j) for every w (a zero row is its own
    # antipode); adding 0.0 maps -0.0 to 0.0, so bytes compare as floats do
    rows = {p.tobytes() for p in pts + 0.0}
    if any(p.tobytes() in rows for p in 0.0 - pts):
        return SeparabilityVerdict("non_separable", None, "antipodal")
    return None


def _check_perceptron(pts: np.ndarray, cap: int) -> SeparabilityVerdict:
    w = np.zeros(pts.shape[1])
    updates = 0
    while updates < cap:
        margins = pts @ w
        bad = np.nonzero(margins <= 0.0)[0]
        if bad.size == 0:
            return _verdict_sep(w, "perceptron")
        w = w + pts[bad[0]]
        updates += 1
    return SeparabilityVerdict("unknown", None, "perceptron")


def check_separable(ds: Dataset, perceptron_cap: int = 10**6) -> SeparabilityVerdict:
    """Decide strict linear separability (through the origin).

    d=1 and d=2 are exact.  d>=3 answers non-separable on an exact antipodal
    pair of signed points, else runs a perceptron up to ``perceptron_cap``
    updates and reports "unknown" at the cap rather than guessing: a wrong
    non-separable verdict would fabricate a finite minimizer downstream.
    """
    pts = ds.ys[:, None] * ds.xs
    if ds.dim == 1:
        out = _check_1d(pts[:, 0])
    elif ds.dim == 2:
        out = _check_2d(pts)
    else:
        out = _check_antipodal(pts) or _check_perceptron(pts, perceptron_cap)
    if out.verdict == "separable" and not float(np.min(pts @ out.witness)) > 0.0:
        # contract: the witness must survive an exact re-check
        raise AssertionError(f"separating witness {out.witness} fails the exact re-check")
    return out
