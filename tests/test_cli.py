"""End-to-end CLI runs in a temp directory, plus exit-code conventions."""

import json
from pathlib import Path

import numpy as np
import pytest

import gdcycles as g
from gdcycles import cli
from gdcycles.cli import main

RECIPES = Path(__file__).resolve().parents[1] / "src" / "gdcycles" / "recipes"


@pytest.fixture()
def toy2_file(tmp_path):
    p = tmp_path / "toy2.cds"
    p.write_text("1 1 1\n1 1 -1\n")
    return p


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_toy_two_examples_prints_critical_step(self, capsys, toy2_file):
        code, out, _ = run_cli(capsys, "solve", "--data", str(toy2_file))
        assert code == 0
        assert "eta_two_lambda = 8" in out
        assert "lambda_star = 0.25" in out

    def test_kicked_base_w_star(self, capsys, tmp_path):
        p = tmp_path / "base.cds"
        p.write_text("250 1 1\n200 1 -1\n")
        code, out, _ = run_cli(capsys, "solve", "--data", str(p))
        assert code == 0
        w = float(out.splitlines()[0].split("=")[1])
        assert w == pytest.approx(np.log(1.25), abs=1e-10)

    def test_separable_exits_2_with_message(self, capsys, tmp_path):
        p = tmp_path / "sep.cds"
        p.write_text("1 1 1\n2 1 2\n")
        code, out, err = run_cli(capsys, "solve", "--data", str(p))
        assert code == 2
        assert "separable" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--data", str(tmp_path / "none.cds"))
        assert code == 1

    def test_writes_solution_json(self, capsys, toy2_file, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "solve", "--data", str(toy2_file),
                             "--out", str(out_dir))
        assert code == 0
        rec = json.loads((out_dir / "solution.json").read_text())
        assert rec["eta_two_lambda"] == pytest.approx(8.0)


class TestTrajectory:
    def test_detects_cycle_and_writes_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "trajectory", "--data", str(RECIPES / "period4_1d.cds"),
            "--gamma", "1.9", "--w0", "10", "--iters", "60000",
            "--out", str(out_dir))
        assert code == 0
        assert "period = 4" in out
        # the float orbit repeats bit for bit at t = 259, four steps after t = 255
        assert "closed_at = 259, closed_period = 4" in out.splitlines()
        text = (out_dir / "trajectory.csv").read_text()
        assert text.splitlines()[0] == "t,loss,w_1"
        assert (out_dir / "loss.svg").exists()

    def test_eta_and_gamma_mutually_exclusive(self, capsys, toy2_file):
        # both, then neither: exactly one step-size flag is required
        for step in (["--eta", "1.0", "--gamma", "0.5"], []):
            code, _, err = run_cli(capsys, "trajectory", "--data", str(toy2_file),
                                   *step, "--w0", "1", "--iters", "100")
            assert code == 1
            assert "--eta" in err and "--gamma" in err


class TestPsd:
    def test_four_cycle_peak(self, capsys, tmp_path):
        out_dir = tmp_path / "psd"
        code, out, _ = run_cli(
            capsys, "psd", "--data", str(RECIPES / "period4_1d.cds"),
            "--gamma", "1.9", "--w0", "10", "--iters", "30000",
            "--out", str(out_dir))
        assert code == 0
        freq = float(out.split("=")[1])
        # dominant peak at a multiple of 1/4, within one bin of the window
        k = round(freq * 4)
        assert k >= 1
        assert abs(freq - k / 4) <= 1 / 1024
        assert (out_dir / "psd.csv").read_text().splitlines()[0] == "freq,power"


class TestBifurcate:
    def test_sweep_outputs(self, capsys, toy2_file, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run_cli(
            capsys, "bifurcate", "--data", str(toy2_file),
            "--eta-min", "6.0", "--eta-max", "9.0", "--steps", "4",
            "--inits", "3", "--iters", "2000", "--seed", "7",
            "--pn-group", "1", "--out", str(out_dir))
        assert code == 0
        csv = (out_dir / "sweep.csv").read_text()
        assert csv.splitlines()[0] == "eta,init_index,loss_value,scaled_sharpness,diverged"
        assert (out_dir / "sweep_loss.svg").exists()
        assert (out_dir / "sweep_sharpness.svg").exists()
        assert (out_dir / "sweep_pn.svg").exists()

    def test_single_point_grid(self, capsys, toy2_file, tmp_path):
        # run must outlast the tail window so the recorded tail is past the
        # transient; then each convergent cell contributes one loss row
        code, _, _ = run_cli(
            capsys, "bifurcate", "--data", str(toy2_file),
            "--eta-min", "5.0", "--eta-max", "5.5", "--steps", "1",
            "--inits", "2", "--iters", "3000", "--out", str(tmp_path / "s1"))
        assert code == 0
        lines = (tmp_path / "s1" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 cells, one loss each

    def test_prints_row_steps(self, capsys, toy2_file, tmp_path):
        # every cell of 6, 6.5 and 7 repeats with period 2 early in the
        # 976-step transient: one layer leaves after 66 steps and the
        # other two after 130, and the one tail block steps 2 steps, not 1024
        code, out, _ = run_cli(
            capsys, "bifurcate", "--data", str(toy2_file),
            "--eta-min", "6.0", "--eta-max", "7.0", "--steps", "3",
            "--inits", "3", "--iters", "2000", "--seed", "7", "--out", str(tmp_path / "s"))
        assert code == 0
        assert "cells = 9\n" in out
        assert f"row_steps = {3 * (3 * 66 + 2 * 64) + 9 * 2}\n" in out

    def test_rerun_byte_identical(self, capsys, toy2_file, tmp_path):
        args = ["bifurcate", "--data", str(toy2_file), "--eta-min", "6.0",
                "--eta-max", "9.0", "--steps", "3", "--inits", "2",
                "--iters", "1000", "--seed", "3"]
        run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
               (tmp_path / "b" / "sweep.csv").read_bytes()


class TestBasin:
    def test_small_raster(self, capsys, tmp_path):
        out_dir = tmp_path / "basin"
        code, out, _ = run_cli(
            capsys, "basin", "--data", str(RECIPES / "basin_2d.cds"),
            "--gamma", "0.95", "--w0", "15,4", "--iters", "60000",
            "--nx", "12", "--ny", "12", "--basin-iters", "1500",
            "--out", str(out_dir))
        assert code == 0
        assert "cycle_period = 13" in out
        row_steps = int(out.split("row_steps = ")[1].split()[0])
        assert 0 < row_steps <= 12 * 12 * 1500
        stops = [int(out.split(f"cells_{how} = ")[1].split()[0])
                 for how in ("repeated", "trapped", "horizon")]
        assert sum(stops) == 12 * 12 and stops[1] > 0
        pgm = (out_dir / "basin.pgm").read_text()
        assert pgm.startswith("P2\n12 12\n255\n")
        assert (out_dir / "basin_header.txt").exists()


    @pytest.mark.parametrize("flags", [
        ["--nx", "0"],
        ["--ny", "-3"],
        ["--basin-iters", "-5"],
        ["--xmin", "nan"],
        ["--xmin", "5", "--xmax", "5"],
    ], ids=["nx-0", "ny-negative", "iters-negative", "xmin-nan", "empty-box"])
    def test_out_of_range_raster_exits_1(self, capsys, tmp_path, flags):
        out_dir = tmp_path / "basin"
        code, _, err = run_cli(
            capsys, "basin", "--data", str(RECIPES / "basin_2d.cds"),
            "--gamma", "0.95", "--w0", "15,4", "--iters", "60000",
            "--basin-iters", "100", *flags, "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ")
        assert not (out_dir / "basin.pgm").exists()


    @pytest.mark.parametrize("flags", [["--nx", "0"], ["--basin-iters", "0"],
                                       ["--ymin", "inf"]], ids=["nx-0", "iters-0", "ymin-inf"])
    def test_bad_raster_rejected_before_the_run(self, capsys, tmp_path, monkeypatch, flags):
        # from w0 = (1.7, 1.0) GD finds no cycle, which exits 2 once the
        # reference run is made; a bad grid must exit 1 before it
        def no_run(*args, **kwargs):
            raise AssertionError("basin ran GD before checking its grid")

        monkeypatch.setattr(cli, "run", no_run)
        code, _, err = run_cli(
            capsys, "basin", "--data", str(RECIPES / "basin_2d.cds"),
            "--gamma", "0.95", "--w0", "1.7,1.0", *flags, "--out", str(tmp_path / "basin"))
        assert code == 1
        assert err.startswith("error: ") and "no cycle" not in err


class TestEos:
    def test_stacked_run(self, capsys, tmp_path):
        recipe = {"m": 250, "n": 200, "x_big": 20.0, "b": 6,
                  "gamma": 1.9, "w0": 10.0}
        rp = tmp_path / "recipe.json"
        rp.write_text(json.dumps(recipe))
        out_dir = tmp_path / "eos"
        code, out, _ = run_cli(
            capsys, "eos", "--recipe", str(rp), "--k", "4",
            "--iters", "60000", "--stack-iters", "8000",
            "--out", str(out_dir))
        assert code == 0
        assert "sharpness_above_two_over_eta = 1" in out
        csv = (out_dir / "eos_sharpness.csv").read_text()
        assert csv.splitlines()[0] == "t,loss,sharpness"

    def test_loss_applies_to_base_run(self, capsys, tmp_path):
        # under squareplus the period-4 recipe's base run settles to its
        # fixed point, so there is no cycle to stack
        code, _, err = run_cli(
            capsys, "eos", "--recipe", str(RECIPES / "period4_1d.json"), "--k", "4",
            "--loss", "squareplus", "--iters", "60000", "--out", str(tmp_path / "eos"))
        assert code == 2
        assert "does not produce a cycle" in err


class TestRepro:
    def test_quick_repro_runs_everything(self, capsys, tmp_path):
        out_dir = tmp_path / "repro"
        code, out, _ = run_cli(capsys, "repro", "--out", str(out_dir), "--quick")
        assert code == 0
        assert "period4_1d: kind=cycle period=4" in out
        assert "period7_1d: kind=cycle period=7" in out
        assert "period37_1d: kind=cycle period=37" in out
        assert "period13_2d: kind=cycle period=13" in out
        assert "chaotic_1d: kind=undetermined period=0" in out
        for rel in ("period7_1d/trajectory.csv", "period7_1d/psd.csv",
                    "chaotic_1d/trajectory.csv", "chaotic_1d/psd.csv",
                    "toy_sweep_n2/sweep.csv", "toy_sweep_n2/sweep_pn.svg",
                    "basin_2d/basin.pgm", "eos_stacked/eos_sharpness.csv"):
            assert (out_dir / rel).exists(), rel


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("data,argv", [
        ("toy_n2.cds", ["trajectory", "--eta", "-1", "--w0", "1"]),
        ("toy_n2.cds", ["trajectory", "--eta", "nan", "--w0", "1"]),
        ("basin_2d.cds", ["basin", "--eta", "-1", "--w0", "15,4"]),
        ("toy_n2.cds", ["trajectory", "--eta", "1", "--w0", "nan"]),
    ], ids=["negative-eta", "nan-eta", "basin-negative-eta", "nan-w0"])
    def test_invalid_step_size_or_w0_exits_1(self, capsys, tmp_path, data, argv):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, "--data", str(RECIPES / data),
                               "--iters", "100", "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ")
        assert not (out_dir / "trajectory.csv").exists()

    @pytest.mark.parametrize("eta_min", ["nan", "-1", "0"])
    def test_step_size_grid_out_of_range_exits_1(self, capsys, tmp_path, eta_min):
        # a NaN grid would write every cell as diverged, and eta <= 0 rows
        # of eta 0 or of gradient ascent, as if they were results
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "bifurcate", "--data", str(RECIPES / "toy_n2.cds"),
            "--eta-min", eta_min, "--eta-max", "9", "--steps", "4", "--inits", "2",
            "--iters", "50", "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and "positive and finite" in err
        assert not (out_dir / "sweep.csv").exists()

    def test_empty_step_size_grid_exits_1(self, capsys, tmp_path):
        # --steps 0 used to exit 0 with "cells = 0" and a header-only sweep.csv
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "bifurcate", "--data", str(RECIPES / "toy_n2.cds"),
            "--eta-min", "6", "--eta-max", "9", "--steps", "0", "--inits", "2",
            "--iters", "50", "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and "eta_grid" in err
        assert not (out_dir / "sweep.csv").exists()

    @pytest.mark.parametrize("group", ["5", "-1"])
    def test_pn_group_out_of_range_exits_1(self, capsys, tmp_path, group):
        # toy_n2 has two groups; -1 must not quietly probe the last one
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "bifurcate", "--data", str(RECIPES / "toy_n2.cds"),
            "--eta-min", "6", "--eta-max", "9", "--steps", "2", "--inits", "2",
            "--iters", "50", "--pn-group", group, "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and "pn_group" in err
        assert not (out_dir / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--window", "1000", "--iters", "2000"],
        ["--iters", "100"],
    ], ids=["window-not-power-of-two", "window-longer-than-tail"])
    def test_psd_window_errors_exit_1(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "psd", "--data", str(RECIPES / "toy_n2.cds"), "--eta", "1",
            "--w0", "1", *argv, "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and "window" in err
        assert not (out_dir / "psd.csv").exists()

    @pytest.mark.parametrize("window", ["1000", "1", "0"])
    def test_psd_window_rejected_before_the_run(self, capsys, tmp_path, monkeypatch, window):
        def no_run(*args, **kwargs):
            raise AssertionError("psd ran GD before checking its window")

        monkeypatch.setattr(cli, "run", no_run)
        code, _, err = run_cli(
            capsys, "psd", "--data", str(RECIPES / "toy_n2.cds"), "--eta", "1",
            "--w0", "1", "--window", window, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == f"error: window must be a power of two, got {window}\n"

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_k_max_rejected_before_the_run(self, capsys, tmp_path, monkeypatch, k_max):
        # --k-max 0 used to print closed_at and closed_period, then
        # "kind = undetermined", and exit 0
        def no_run(*args, **kwargs):
            raise AssertionError("trajectory ran GD before checking --k-max")

        monkeypatch.setattr(cli, "run", no_run)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "trajectory", "--data", str(RECIPES / "toy_n2.cds"), "--eta", "6.5",
            "--w0", "0.3", "--iters", "2000", "--k-max", k_max, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err == f"error: k_max must be at least 1, got {k_max}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("data,argv", [
        ("toy_n2.cds", ["bifurcate", "--eta-min", "6", "--eta-max", "9", "--steps", "0"]),
        ("toy_n2.cds", ["trajectory", "--eta", "1", "--w0", "nan"]),
        ("basin_2d.cds", ["basin", "--gamma", "0.95", "--w0", "15,4", "--nx", "0"]),
        ("toy_n2.cds", ["psd", "--eta", "1", "--w0", "1"]),    # window 1024 > 101 states
    ], ids=["bifurcate-no-steps", "trajectory-nan-w0", "basin-nx-0",
            "psd-window-longer-than-tail"])
    def test_failed_command_makes_no_out_dir(self, capsys, tmp_path, data, argv):
        # --out is made just before the first file is written
        code, _, err = run_cli(capsys, *argv, "--data", str(RECIPES / data), "--iters", "100",
                               "--out", str(tmp_path / "out" / "nested"))
        assert code == 1 and err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        '{"m": 250, "n": 200, "x_big": 20.0, "b": 6, "gamma": 2.5, "w0": 10.0}',
        '{"m": 250, "n": 200, "x_big": 20.0, "b": 6, "w0": 10.0}',
        '{"m": 250, "n": 200,',
    ], ids=["gamma-out-of-range", "missing-key", "invalid-json"])
    def test_bad_eos_recipe_exits_1(self, capsys, tmp_path, text):
        rp = tmp_path / "recipe.json"
        rp.write_text(text)
        code, _, err = run_cli(capsys, "eos", "--recipe", str(rp), "--k", "4",
                               "--out", str(tmp_path / "eos"))
        assert code == 1
        assert err.startswith(f"error: recipe {rp}")
