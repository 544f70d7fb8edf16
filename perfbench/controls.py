"""Negative controls: every check must count a corrupted result as failed.

    python3 -m pytest -q perfbench/controls.py

Each control takes a real result at the default seed, shows that the clean
result passes, then corrupts one thing (a period, one raster label, one CSV
byte, ...) and shows that the workload's error rate counts it.  The file is
not named test_*.py so that the package's own test run does not collect it;
it takes about 20 s.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from gdcycles import analysis  # noqa: E402
from gdcycles.analysis import SweepCell  # noqa: E402
from gdcycles.construct import period2_points  # noqa: E402
from gdcycles.losses import logistic  # noqa: E402

SEED = W.DEFAULT_SEED


def error_rate(record):
    """Error rate of a tally after ``record(tally)`` records one result."""
    tally = W.Tally()
    record(tally)
    assert tally.attempted > 0
    return tally.error_rate


@pytest.fixture(scope="module")
def period4():
    ctx = W.setup_classify(SEED, logistic())
    obj, eta, w0 = ctx["problems"]["period4_1d"]
    return W.classify_result("period4_1d", obj, eta, w0)


def classify_rate(rep, outputs):
    return error_rate(lambda t: t.task("period4_1d", lambda: W.classify_check(
        "period4_1d", rep, outputs, SEED, t)))


def test_classify_clean_passes(period4):
    assert classify_rate(*period4) == 0.0


def test_wrong_period_counts(period4):
    rep, outputs = period4
    assert classify_rate(dataclasses.replace(rep, period=rep.period * 2), outputs) > 0.0
    assert classify_rate(dataclasses.replace(rep, kind="undetermined", period=0), outputs) > 0.0


def test_repelling_multiplier_counts(period4):
    rep, outputs = period4
    assert classify_rate(dataclasses.replace(rep, multiplier=1.5), outputs) > 0.0


@pytest.mark.parametrize("name", ["period4_1d/trajectory.csv", "period4_1d/psd.csv"])
def test_changed_csv_byte_counts(period4, name):
    rep, outputs = period4
    text = outputs[name]
    i = len(text) // 2
    flipped = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
    assert classify_rate(rep, {**outputs, name: flipped}) > 0.0


@pytest.fixture(scope="module")
def basin():
    ctx = W.setup_basin(SEED, logistic())
    return W.basin_result(ctx)


def basin_rate(raster):
    return error_rate(lambda t: W.basin_check(raster, analysis.raster_to_pgm(raster), SEED, t))


def test_basin_clean_passes(basin):
    assert basin_rate(basin) == 0.0


def test_flipped_raster_label_counts(basin):
    labels = basin.labels.copy()
    labels[0, 0] = (analysis.LABEL_TO_CYCLE if labels[0, 0] == analysis.LABEL_TO_FIXED_POINT
                    else analysis.LABEL_TO_FIXED_POINT)
    assert basin_rate(dataclasses.replace(basin, labels=labels)) > 0.0


def test_lost_attractor_counts(basin):
    labels = np.where(basin.labels == analysis.LABEL_TO_CYCLE, analysis.LABEL_OTHER, basin.labels)
    assert W.check_basin(dataclasses.replace(basin, labels=labels))


def test_sweep_cell_checks():
    p = np.sort(period2_points(9.0))
    good = [SweepCell(7.5, 0, np.array([0.1]), 0.9, False, np.array([0.5])),
            SweepCell(9.0, 0, np.array([0.1]), 0.9, False, p)]
    bad = [SweepCell(7.5, 0, np.array([0.1]), 0.9, False, np.array([0.4, 0.6])),
           SweepCell(9.0, 0, np.array([0.1]), 0.9, False, np.array([0.5])),
           SweepCell(9.0, 0, np.array([0.1]), 0.9, False, p + 1e-6),
           SweepCell(9.0, 0, np.array([]), float("nan"), True, np.array([]))]
    assert not any(W.check_sweep_cell(c) for c in good)
    assert all(W.check_sweep_cell(c) for c in bad)


def test_eos_checks():
    eta = 2.0 / 0.3
    assert not W.check_eos(np.full(8, 0.336), eta)
    assert W.check_eos(np.full(8, 0.29), eta)                      # below 2/eta
    assert W.check_eos(np.linspace(0.336, 0.337, 8), eta)          # not constant


def test_raising_task_counts():
    def boom():
        raise FloatingPointError("non-finite GD step")
    assert error_rate(lambda t: t.task("boom", boom)) == 1.0
