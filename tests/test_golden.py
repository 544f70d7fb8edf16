"""Byte identity of the recipe classification and construction outputs.

``gdcycles repro --quick`` writes trajectory.csv and psd.csv for the five
limit-classification recipes and eos_sharpness.csv for the stacked period-4
run; their SHA-256 must equal the ``classify`` and ``construct`` entries of
the benchmark's golden hashes, so a change that alters a single output byte
fails here as well as in the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gdcycles.cli import (
    _load_recipe,
    _recipe_1d,
    _recipe_run,
    _write_eos,
    _write_psd,
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
