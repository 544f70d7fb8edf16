"""Byte identity of the files the benchmark checks.

``gdcycles repro --quick`` writes trajectory.csv and psd.csv for the five
limit-classification recipes, sweep.csv for the toy sweep and
eos_sharpness.csv for the stacked period-4 run; the benchmark's ``basin``
workload writes basin.pgm for a 128x128 raster of basin_2d.  Their SHA-256
must equal the entries of the benchmark's golden hashes (``sweep`` and
``basin`` at seed 0), so a change that alters a single output byte fails
here as well as in the benchmark.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gdcycles.cli import (
    _load_recipe,
    _recipe_1d,
    _recipe_run,
    _write_basin,
    _write_eos,
    _write_psd,
    _write_sweep,
    _write_trajectory,
)

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
QUICK_ITERS = 60_000  # repro --quick's horizon


@pytest.mark.parametrize("name", ["period4_1d", "period7_1d", "period37_1d", "period13_2d",
                                  "chaotic_1d"])
def test_classify_outputs_match_golden_hashes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())["classify"]["sha256"]
    obj, _, cfg, _ = _recipe_run(name, QUICK_ITERS)
    traj = _write_trajectory(tmp_path, obj, cfg)
    _write_psd(tmp_path, traj)
    for file in ("trajectory.csv", "psd.csv"):
        digest = hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        assert digest == golden[f"{name}/{file}"], file


def test_construct_output_matches_golden_hash(tmp_path):
    # repro --quick's stacked run: k = 4 on the period-4 recipe, 60k base
    # iterations, 10k stacked iterations, sharpness over the last 2048
    golden = json.loads(GOLDEN.read_text())["construct"]["sha256"]
    obj, spec = _load_recipe("period4_1d")
    _write_eos(tmp_path, _recipe_1d(spec), 4, obj.loss, QUICK_ITERS, 10_000, 2048)
    digest = hashlib.sha256((tmp_path / "eos_sharpness.csv").read_bytes()).hexdigest()
    assert digest == golden["eos_sharpness.csv"]


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_output_matches_golden_hash(tmp_path):
    # repro --quick's toy sweep at seed 0: 61 step sizes, 4 inits, T = 4000,
    # probe group 1
    golden = json.loads(GOLDEN.read_text())["sweep"]["sha256"]
    obj, spec = _load_recipe("toy_n2")
    lo, hi, step = spec["eta_grid"]
    grid = np.round(np.arange(lo, hi + step / 2, step), 10)
    _write_sweep(tmp_path, obj, grid, 4, 4_000, 0, spec["pn_group"])
    assert _digest(tmp_path / "sweep.csv") == golden["sweep.csv"]


def test_basin_output_matches_golden_hash(tmp_path):
    # the benchmark's raster at seed 0: the period-13 orbit from an 8192-step
    # run, 128x128 cells over (-10, 30)^2 shifted by a seeded sub-cell
    # offset, T = 4000
    golden = json.loads(GOLDEN.read_text())["basin"]["sha256"]
    obj, sol, cfg, spec = _recipe_run("basin_2d", 8_192)
    xmin, xmax, ymin, ymax = spec["bounds"]
    res = 128
    cell = np.array([xmax - xmin, ymax - ymin]) / res
    ox, oy = np.random.default_rng(0).uniform(-0.5, 0.5, 2) * cell
    _, raster = _write_basin(tmp_path, obj, cfg, sol, (xmin + ox, xmax + ox, ymin + oy, ymax + oy),
                             (res, res), 4_000)
    assert _digest(tmp_path / "basin.pgm") == golden["basin.pgm"]
    # cells leave once repeated or inside a certified trap ball; with
    # repeats alone the raster takes 25,627,872 row-steps
    assert raster.row_steps <= 9_000_000
    assert sum(raster.stops.values()) == res * res
