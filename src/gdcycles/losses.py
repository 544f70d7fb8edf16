"""Per-example scalar losses and numerical audits of their structural properties.

The dynamics in this package only rely on a handful of structural facts about
the per-example loss: strict convexity, vanishing left tail, derivative
bounded by 1, and a second derivative that peaks at 0 and decays fast in the
tails.  ``verify_assumption1`` certifies those facts on a grid; the two
shipped losses (logistic and squareplus) both pass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ScalarLoss",
    "CheckResult",
    "AssumptionReport",
    "logistic",
    "squareplus",
    "get_loss",
    "LOSS_NAMES",
    "sigmoid",
    "verify_assumption1",
    "relu_limit_gap",
]


@dataclass(frozen=True)
class ScalarLoss:
    """A scalar loss z -> l(z) with hand-coded first and second derivatives.

    All three callables accept floats or numpy arrays and are safe over the
    whole float64 range (no overflow for large |z|); called on a scalar they
    return a float.  Instances are immutable and safe to share between
    threads.

    ``d1`` also takes ``out`` and ``scratch`` keywords, numpy-style, which
    is how ``step_many`` calls it: ``d1(z, out=out)`` writes l'(z) into
    ``out``, a float64 array of z's shape other than z, and returns ``out``,
    with the bits ``d1(z)`` gives; z is not modified.  ``scratch``, when
    given, is another float64 array of z's shape whose contents d1 may
    overwrite instead of allocating a temporary.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]

    def __call__(self, z):
        return self.f(z)


def _out(arr, out=None):
    """``arr`` copied into ``out`` when given; else arr, or a float if 0-d."""
    if out is not None:
        np.copyto(out, arr)
        return out
    return float(arr) if arr.ndim == 0 else arr


# Float64 ones that ufuncs take as they are: a Python float is converted on
# every call, which adds about 0.3 us to a one-row call (1.06 against 0.77
# us for np.add, numpy 2.4 on a 2-core Xeon).
_ONE = np.array(1.0)
_ONE.flags.writeable = False
_MINUS_ONE = np.array(-1.0)
_MINUS_ONE.flags.writeable = False

# Up to this many margins, sigmoid takes -|z| as one np.copysign call
# rather than np.abs and np.negative (0.32 against 0.60 us at 3 margins,
# 0.55 against 0.66 us at 256); past a few hundred, numpy's SIMD abs and
# negative win (40 against 69 us at 98,304).
_COPYSIGN_MAX = 256


def sigmoid(z, out=None, scratch=None):
    """1 / (1 + exp(-z)), evaluated from the small side so it never overflows.

    With ``out`` and ``scratch`` (see ``ScalarLoss``) it allocates nothing."""
    if out is None:
        z = np.asarray(z, dtype=float)
    e = np.empty(z.shape) if out is None else out
    num = np.empty(e.shape) if scratch is None else scratch
    # -|z|: copysign gives the bits of negating np.abs, a NaN's payload
    # included
    if e.size <= _COPYSIGN_MAX:
        np.copysign(z, _MINUS_ONE, e)
    else:
        np.negative(np.abs(z, e), e)
    np.exp(e, e)
    # the numerator is 1 for z >= 0 and e below.  As 0 <= e <= 1, and e = 1
    # at z = +-0, that is max(e, sign(z)), a NaN's bits included: unlike a
    # boolean mask, sign needs no cast (whose buffer numpy allocates) and
    # unlike np.putmask, no branch on the data.  np.maximum alone takes its
    # output by keyword: numpy deprecates a third positional argument there
    np.maximum(e, np.sign(z, num), out=num)
    np.divide(num, np.add(e, _ONE, e), e)
    return e if out is not None else _out(e)


def _logistic_eval(z):
    z = np.asarray(z, dtype=float)
    # past the branch point the loss is z plus an exactly representable tail
    out = np.where(
        z > 30.0,
        z + np.log1p(np.exp(-np.abs(z))),
        np.log1p(np.exp(np.minimum(z, 30.0))),
    )
    return _out(out)


def _logistic_d2(z):
    # sigma(z)(1-sigma(z)) evaluated from the small side so it stays positive
    # for |z| up to ~700 instead of flushing to 0 at z ~ +37.
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    s = e / (1.0 + e)
    return _out(s * (1.0 - s))


def logistic() -> ScalarLoss:
    """log(1 + exp(z)) with overflow-safe evaluation for large z."""
    return ScalarLoss("logistic", _logistic_eval, sigmoid, _logistic_d2)


# From |z| = 2**28 on, 4 + z*z rounds to z*z, whose square root is |z|
# exactly in binary64, so r = sqrt(4 + z*z) is |z| there and z*z need not be
# formed at all: past 1.3e154 it overflows.
_R_IS_ABS = 2.0**28
# The largest r whose cube r*r*r is finite in binary64 (about 5.6e102).
_CUBE_MAX = float.fromhex("0x1.428a2f98d728ap+341")


def _squareplus_parts(z):
    """z as an array, its magnitude a, where a >= 2**28 (``big``), a
    clipped to that bound (so nothing below overflows) and r = sqrt(4 + z*z)
    of the clipped value, which is the true r wherever a is not big."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    s = np.minimum(a, _R_IS_ABS)
    return z, a, a >= _R_IS_ABS, s, np.sqrt(4.0 + s * s)


def _squareplus_value(z, a, big, s, r):
    # 0.5*(r+z) cancels catastrophically for z << 0; use 2/(r-z) there,
    # written r+|z| (the same bits for z < 0).  Where r = |z| these are 1/|z|
    # and z, the same bits again, and neither overflows.
    small = np.where(z < 0.0, 2.0 / (r + s), 0.5 * (r + s))
    return np.where(big, np.where(z < 0.0, 1.0 / np.maximum(a, _R_IS_ABS), a), small)


def _squareplus_eval(z):
    return _out(_squareplus_value(*_squareplus_parts(z)))


def _squareplus_d1(z, out=None, scratch=None):
    z, a, big, s, r = _squareplus_parts(z)
    # where r = |z|, value/r is (1/|z|)/|z| for z < 0 and 1 for z > 0
    m = np.maximum(a, _R_IS_ABS)
    ratio = np.where(z < 0.0, 1.0 / m / m, 1.0)
    return _out(np.where(big, ratio, _squareplus_value(z, a, big, s, r) / r), out)


def _squareplus_d2(z):
    z, a, big, s, r = _squareplus_parts(z)
    r = np.where(big, a, r)
    c = np.minimum(r, _CUBE_MAX)
    # past _CUBE_MAX, r*r*r overflows: divide by r three times instead
    m = np.maximum(r, _CUBE_MAX)
    return _out(np.where(r <= _CUBE_MAX, 2.0 / (c * c * c), 2.0 / m / m / m))


def squareplus() -> ScalarLoss:
    """0.5*(sqrt(4+z^2)+z), a smooth loss with the same structural profile
    as logistic but only polynomial tail decay."""
    return ScalarLoss("squareplus", _squareplus_eval, _squareplus_d1, _squareplus_d2)


_REGISTRY = {"logistic": logistic, "squareplus": squareplus}
LOSS_NAMES = tuple(sorted(_REGISTRY))


def get_loss(name: str) -> ScalarLoss:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; expected one of {LOSS_NAMES}") from None


# ---------------------------------------------------------------------------
# Structural-property audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    offending_z: Optional[float] = None


@dataclass(frozen=True)
class AssumptionReport:
    loss_name: str
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# Saturation threshold: beyond this, 1 - l'(z) is not representable in
# float64 for the logistic loss, so strict upper-bound checks stop there.
_STRICT_UPPER_Z = 30.0

# verify_assumption1's grid of z, (lo, hi, points), and its eps ladder
AUDIT_GRID = (-50.0, 50.0, 10001)
AUDIT_EPS = (1e-1, 1e-2, 1e-3)


def verify_assumption1(loss: ScalarLoss) -> AssumptionReport:
    """Grid-based audit of the structural loss properties.

    Checks, each reported exactly once:
      positivity        l(z) > 0 and l''(z) > 0 on AUDIT_GRID
      derivative_bounds 0 < l'(z) everywhere; l'(z) <= 1, strictly below the
                        float64 saturation point
      left_tail         l(-1/eps) decays monotonically toward 0 along AUDIT_EPS
      unimodality       l'' nondecreasing on z <= 0, nonincreasing on z >= 0
      decay             (1/eps^2) * l''(1/eps) decreases toward 0 along AUDIT_EPS

    Non-finite evaluations fail the corresponding check and record the
    offending grid point.
    """
    eps_arr = np.asarray(AUDIT_EPS)
    zs = np.linspace(*AUDIT_GRID)
    fz = np.asarray(loss.f(zs), dtype=float)
    d1z = np.asarray(loss.d1(zs), dtype=float)
    d2z = np.asarray(loss.d2(zs), dtype=float)

    checks = []

    def finite_or_fail(name, arr):
        bad = ~np.isfinite(arr)
        if np.any(bad):
            z_bad = float(zs[np.argmax(bad)])
            checks.append(CheckResult(name, False, float("inf"), z_bad))
            return False
        return True

    # positivity: l > 0 and l'' > 0 (strict convexity)
    if finite_or_fail("positivity", fz) and finite_or_fail("positivity", d2z):
        worst = float(min(fz.min(), d2z.min()))
        checks.append(CheckResult("positivity", worst > 0.0, max(0.0, -worst) if worst <= 0 else 0.0,
                                  float(zs[int(np.argmin(np.minimum(fz, d2z)))]) if worst <= 0 else None))

    # derivative bounds: 0 < l' <= 1, with strict < 1 below saturation
    if finite_or_fail("derivative_bounds", d1z):
        lower_ok = bool(np.all(d1z > 0.0))
        upper_ok = bool(np.all(d1z <= 1.0))
        strict_zone = zs <= _STRICT_UPPER_Z
        strict_ok = bool(np.all(d1z[strict_zone] < 1.0))
        passed = lower_ok and upper_ok and strict_ok
        worst = 0.0
        off = None
        if not passed:
            margins = np.minimum(d1z, 1.0 - d1z)
            idx = int(np.argmin(margins))
            worst = float(max(0.0, -margins[idx]))
            off = float(zs[idx])
        checks.append(CheckResult("derivative_bounds", passed, worst, off))

    # left tail: l(-1/eps) strictly decreasing toward 0 along AUDIT_EPS
    tail_vals = np.asarray(loss.f(-1.0 / eps_arr), dtype=float)
    if finite_or_fail("left_tail", tail_vals):
        decreasing = bool(np.all(np.diff(tail_vals) < 0.0))
        small = bool(tail_vals[-1] < 1e-2)
        passed = decreasing and small
        checks.append(CheckResult("left_tail", passed,
                                  0.0 if passed else float(tail_vals[-1])))

    # unimodality of l'' about 0
    if finite_or_fail("unimodality", d2z):
        left = zs <= 0.0
        right = zs >= 0.0
        dl = np.diff(d2z[left])
        dr = np.diff(d2z[right])
        # ties allowed: float64 flushes the far tails to equal tiny values
        left_ok = bool(np.all(dl >= 0.0))
        right_ok = bool(np.all(dr <= 0.0))
        passed = left_ok and right_ok
        worst = 0.0
        if not passed:
            worst = float(max(np.max(-dl, initial=0.0), np.max(dr, initial=0.0)))
        checks.append(CheckResult("unimodality", passed, worst))

    # tail decay of the curvature: (1/eps^2) l''(1/eps) -> 0
    seq = np.asarray(loss.d2(1.0 / eps_arr), dtype=float) / (eps_arr * eps_arr)
    if finite_or_fail("decay", seq):
        decreasing = bool(np.all(np.diff(seq) < 0.0)) or bool(
            np.all(np.diff(seq) <= 0.0) and seq[-1] == 0.0
        )
        vanishing = bool(seq[-1] < 0.5 * seq[0]) if seq[0] > 0 else True
        passed = decreasing and vanishing
        checks.append(CheckResult("decay", passed, 0.0 if passed else float(seq[-1])))

    return AssumptionReport(loss.name, tuple(checks))


def relu_limit_gap(loss: ScalarLoss, z: float, eps: float) -> float:
    """|eps^2 * l(z / eps^2) - max(z, 0)|: distance from the rescaled loss to
    the hinge it flattens into as eps -> 0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    scaled = eps * eps * float(loss.f(z / (eps * eps)))
    return abs(scaled - max(z, 0.0))
