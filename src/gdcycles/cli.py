"""Command-line front end.

Subcommands map one-to-one onto the library pipelines:

  solve       minimizer, lambda, L, and the critical step sizes
  trajectory  run GD and dump (t, loss, w, sharpness) CSV + cycle report
  psd         periodogram of the loss tail
  bifurcate   step-size sweep CSV + SVG scatters
  basin       basin-of-attraction PGM raster
  eos         stacked run whose sharpness settles above 2/eta
  repro       run every checked-in recipe end-to-end

Exit codes: 0 success, 1 usage error (a flag out of range, or any value
the library rejects with ValueError), 2 domain error (separable or
degenerate data, or a recipe without its cycle).  ``main`` alone maps
exceptions to exit codes.  All outputs are deterministic given the flags;
``bifurcate`` and ``repro`` draw their initializations from ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import svg
from .analysis import (
    DEFAULT_K_MAX,
    LABEL_OTHER,
    LABEL_TO_CYCLE,
    LABEL_TO_FIXED_POINT,
    basin_raster,
    bifurcation_sweep,
    check_psd_window,
    check_raster,
    detect_cycle,
    psd,
    psd_to_csv,
    raster_header,
    raster_to_pgm,
    sharpness_series,
    sweep_to_csv,
    trajectory_to_csv,
)
from .construct import Recipe1D, eos_demo
from .data import parse_compact, parse_libsvm
from .dynamics import GDConfig, check_count, resolve_eta, run
from .exceptions import GDCyclesError
from .losses import LOSS_NAMES, get_loss
from .objective import Objective, minimize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2


def _common_flags(p: argparse.ArgumentParser, need_eta: bool = True):
    """The dataset and loss flags, and with ``need_eta`` the step size and
    the ``--iters`` that ``_run_config`` reads."""
    p.add_argument("--data", required=True, type=Path, help="dataset file (.cds or libsvm text)")
    p.add_argument("--format", default="auto", choices=("auto", "compact", "libsvm"))
    p.add_argument("--zero-as-negative", action="store_true",
                   help="map label 0 to -1 when parsing libsvm text")
    p.add_argument("--loss", default="logistic", choices=LOSS_NAMES)
    if need_eta:
        step = p.add_mutually_exclusive_group(required=True)
        step.add_argument("--eta", type=float, help="absolute step size")
        step.add_argument("--gamma", type=float, help="step-size factor relative to --ref")
        p.add_argument("--ref", default="lambda", choices=("lambda", "two-L"),
                       help="gamma reference: gamma/lambda or gamma*(2/L)")
        p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--out", type=Path, default=None, help="output directory")


def _objective(args):
    text = args.data.read_text()
    fmt = args.format
    if fmt == "auto":
        fmt = "compact" if str(args.data).endswith(".cds") else "libsvm"
    if fmt == "compact":
        ds = parse_compact(text)
    else:
        ds = parse_libsvm(text, zero_as_negative=args.zero_as_negative)
    return Objective(ds, get_loss(args.loss))


def _write(path: Path, text: str):
    """Write ``text`` to ``path``, making its directory first, so that a
    command that fails before its first file leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _parse_w0(text: str, dim: int) -> np.ndarray:
    vals = [float(t) for t in text.replace(",", " ").split()]
    if len(vals) == 1 and dim > 1:
        vals = vals * dim
    if len(vals) != dim:
        raise ValueError(f"--w0 has {len(vals)} entries, dataset has dimension {dim}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"--w0 entries must be finite, got {text!r}")
    return np.array(vals)


def _run_config(args, obj, sol=None) -> GDConfig:
    """GDConfig from --eta/--gamma/--ref, --w0, --iters and --record-every;
    minimizes only for --gamma unless given ``sol``."""
    if sol is None and args.gamma is not None:
        sol = minimize(obj)
    eta = resolve_eta(args.eta, args.gamma, args.ref, sol)
    return GDConfig(w0=_parse_w0(args.w0, obj.dim), max_iters=args.iters, eta=eta,
                    record_every=getattr(args, "record_every", 1))


# ---------------------------------------------------------------------------
# Pipelines shared by the subcommands and repro; each writes into ``out``.
# ---------------------------------------------------------------------------

def _write_trajectory(out: Path, obj: Objective, cfg: GDConfig, sharpness: bool = False):
    """Run GD; trajectory.csv (t, loss, w, optional sharpness) and loss.svg."""
    traj = run(obj, cfg)
    sharp = sharpness_series(obj, traj) if sharpness else None
    _write(out / "trajectory.csv", trajectory_to_csv(traj, sharpness=sharp))
    _write(out / "loss.svg", svg.line_svg(
        traj.times, traj.losses, title="loss per iteration", xlabel="t", ylabel="loss"))
    return traj


def _write_psd(out: Path, traj, window: int = 1024):
    """psd.csv and psd.svg: periodogram of the trajectory's loss tail."""
    res = psd(traj.dense_tail_losses(), window=window)
    _write(out / "psd.csv", psd_to_csv(res))
    _write(out / "psd.svg", svg.line_svg(
        res.freqs, res.power, title="loss power spectral density",
        xlabel="cycles per iteration", ylabel="power"))
    return res


def _write_sweep(out: Path, obj: Objective, grid, n_inits: int, T: int, seed: int,
                 pn_group=None):
    """Step-size sweep: sweep.csv plus scatters of the final losses, the
    scaled sharpness and, with ``pn_group``, the probe probabilities."""
    sweep = bifurcation_sweep(obj, grid, n_inits=n_inits, T=T, seed=seed, pn_group=pn_group)
    _write(out / "sweep.csv", sweep_to_csv(sweep))
    live = [cell for cell in sweep.cells if not cell.diverged]
    _write(out / "sweep_loss.svg", svg.scatter_svg(
        [c.eta for c in live for _ in c.final_losses],
        [v for c in live for v in c.final_losses],
        title="final losses vs step size", xlabel="eta", ylabel="loss"))
    _write(out / "sweep_sharpness.svg", svg.scatter_svg(
        [c.eta for c in live], [c.scaled_sharpness for c in live],
        title="scaled sharpness vs step size", xlabel="eta",
        ylabel="eta*lambda_max/2"))
    if pn_group is not None:
        _write(out / "sweep_pn.svg", svg.scatter_svg(
            [c.eta for c in live for _ in c.final_pn],
            [v for c in live for v in c.final_pn],
            title="final probabilities vs step size", xlabel="eta", ylabel="p"))
    return sweep


def _write_basin(out: Path, obj: Objective, cfg: GDConfig, sol, bounds, resolution,
                 T: int, gamma=None):
    """Run from cfg.w0 into the cycle, then label each raster cell by the
    attractor (w* or that cycle) GD reaches from it in T steps; basin.pgm
    and basin_header.txt.  Returns the cycle report and the raster."""
    check_raster(bounds, resolution, T)  # before the reference run, which may be long
    traj = run(obj, cfg)
    rep = detect_cycle(obj, traj)
    if rep.kind != "cycle":
        raise GDCyclesError(
            f"no cycle found from w0={cfg.w0} (got {rep.kind}); basin needs both attractors"
        )
    raster = basin_raster(obj, traj.eta, bounds, resolution, (sol.w_star, rep.orbit), T=T)
    _write(out / "basin.pgm", raster_to_pgm(raster))
    _write(out / "basin_header.txt", raster_header(raster, gamma=gamma))
    return rep, raster


def _write_eos(out: Path, recipe: Recipe1D, k: int, loss, iters: int, stack_iters: int,
               tail: int):
    """Stacked k-fold run of a period-k recipe; eos_sharpness.csv holds
    (t, loss, sharpness) over its last ``tail`` iterates.  Returns eta and
    that sharpness."""
    stacked, eta, w0 = eos_demo(recipe, k, loss=loss, iters=iters)
    obj = Objective(stacked, loss)
    traj = run(obj, GDConfig(w0=w0, max_iters=stack_iters, eta=eta))
    start = max(0, len(traj.iterates) - tail)
    traj = dataclasses.replace(traj, times=traj.times[start:],
                               iterates=traj.iterates[start:], losses=traj.losses[start:])
    sharp = sharpness_series(obj, traj)
    _write(out / "eos_sharpness.csv",
           trajectory_to_csv(traj, sharpness=sharp, include_w=False))
    return eta, sharp


def _load_recipe(name: str):
    """The checked-in recipe ``name``: its objective and its JSON spec."""
    base = resources.files("gdcycles").joinpath("recipes")
    spec = json.loads(base.joinpath(f"{name}.json").read_text())
    ds = parse_compact(base.joinpath(f"{name}.cds").read_text())
    return Objective(ds, get_loss(spec["loss"])), spec


def _recipe_1d(spec: dict) -> Recipe1D:
    """A 1D recipe JSON as a Recipe1D; w0 is a number or a one-entry list."""
    (w0,) = np.ravel(spec["w0"])
    return Recipe1D(m=spec["m"], n=spec["n"], x_big=spec["x_big"], b=spec["b"],
                    gamma=spec["gamma"], w0=float(w0))


def _recipe_run(name: str, iters: int):
    """Objective, minimizer and GDConfig of a checked-in recipe, at the
    step size its gamma and ref resolve to."""
    obj, spec = _load_recipe(name)
    sol = minimize(obj)
    eta = resolve_eta(gamma=spec["gamma"], ref=spec["ref"], solution=sol)
    return obj, sol, GDConfig(w0=spec["w0"], max_iters=iters, eta=eta), spec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    obj = _objective(args)
    sol = minimize(obj, tol=args.tol)
    record = sol.to_dict()
    for key, val in record.items():
        if key == "w_star":
            print("w_star = " + " ".join(format(v, ".17g") for v in val))
        else:
            print(f"{key} = {format(val, '.17g')}")
    if args.out is not None:
        _write(args.out / "solution.json", json.dumps(record, indent=2) + "\n")
    return EXIT_OK


def cmd_trajectory(args) -> int:
    check_count("k_max", args.k_max)  # before the run, which may be long
    obj = _objective(args)
    traj = _write_trajectory(args.out or Path("."), obj, _run_config(args, obj), args.sharpness)
    if traj.diverged:
        print("diverged = 1")
        return EXIT_OK
    print(f"closed_at = {traj.closed_at}, closed_period = {traj.closed_period}")
    rows = len(traj.dense_tail())
    if rows < 2 * args.k_max:
        print(f"classification = skipped (dense tail {rows} < 2 * k_max {2 * args.k_max})")
    else:
        rep = detect_cycle(obj, traj, k_max=args.k_max)
        print(f"kind = {rep.kind}")
        print(f"period = {rep.period}")
        if rep.kind != "undetermined":
            print(f"residual = {rep.residual:.3e}")
            print(f"multiplier = {format(rep.multiplier, '.17g')}")
        print(f"lyapunov = {format(rep.lyapunov, '.17g')}")
    return EXIT_OK


def cmd_psd(args) -> int:
    check_psd_window(args.window, args.iters + 1)  # before the run, which may be long
    obj = _objective(args)
    traj = run(obj, _run_config(args, obj))
    res = _write_psd(args.out or Path("."), traj, args.window)
    top = int(np.argmax(res.power[1:]) + 1) if len(res.power) > 1 else 0
    print(f"dominant_freq = {format(res.freqs[top], '.17g')}")
    return EXIT_OK


def cmd_bifurcate(args) -> int:
    obj = _objective(args)
    if args.eta_max <= args.eta_min:
        raise ValueError("--eta-max must exceed --eta-min")
    grid = np.linspace(args.eta_min, args.eta_max, args.steps)
    sweep = _write_sweep(args.out or Path("."), obj, grid, args.inits, args.iters, args.seed,
                         args.pn_group)
    print(f"cells = {len(sweep.cells)}")
    print(f"row_steps = {sweep.row_steps}")
    return EXIT_OK


def cmd_basin(args) -> int:
    obj = _objective(args)
    if obj.dim != 2:
        raise ValueError("basin rasterization needs a 2-dimensional dataset")
    sol = minimize(obj)
    cfg = _run_config(args, obj, sol)
    rep, raster = _write_basin(
        args.out or Path("."), obj, cfg, sol, (args.xmin, args.xmax, args.ymin, args.ymax),
        (args.nx, args.ny), args.basin_iters, gamma=args.gamma)
    print(f"cycle_period = {rep.period}")
    print(f"row_steps = {raster.row_steps}")
    for how, cells in raster.stops.items():
        print(f"cells_{how} = {cells}")
    for key, label in (("to_fixed_point", LABEL_TO_FIXED_POINT), ("to_cycle", LABEL_TO_CYCLE),
                       ("other", LABEL_OTHER)):
        print(f"frac_{key} = {np.mean(raster.labels == label):.6f}")
    return EXIT_OK


def cmd_eos(args) -> int:
    for flag, value, least in (("--k", args.k, 2), ("--iters", args.iters, 1),
                               ("--stack-iters", args.stack_iters, 1), ("--tail", args.tail, 1)):
        check_count(flag, value, least)  # before eos_demo's runs, which may be long
    try:
        recipe = _recipe_1d(json.loads(args.recipe.read_text()))
    except KeyError as exc:
        raise ValueError(f"recipe {args.recipe} lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:  # invalid JSON or an out-of-range value
        raise ValueError(f"recipe {args.recipe}: {exc}") from None
    eta, sharp = _write_eos(args.out or Path("."), recipe, args.k, get_loss(args.loss),
                            args.iters, args.stack_iters, args.tail)
    print(f"eta = {format(eta, '.17g')}")
    print(f"two_over_eta = {format(2.0 / eta, '.17g')}")
    print(f"tail_sharpness_min = {format(float(np.min(sharp)), '.17g')}")
    print(f"tail_sharpness_max = {format(float(np.max(sharp)), '.17g')}")
    print(f"sharpness_above_two_over_eta = {int(float(np.min(sharp)) > 2.0 / eta)}")
    return EXIT_OK


def cmd_repro(args) -> int:
    """Every checked-in recipe through the pipeline that shows its claim."""
    out, quick = args.out, args.quick
    iters = 60_000 if quick else 150_000

    # limit classification: stable cycles below 2/lambda, and the
    # undetermined, positive-Lyapunov case
    for name in ("period4_1d", "period7_1d", "period37_1d", "period13_2d", "chaotic_1d"):
        obj, _, cfg, _ = _recipe_run(name, iters)
        sub = out / name
        traj = _write_trajectory(sub, obj, cfg)
        _write_psd(sub, traj)
        rep = detect_cycle(obj, traj)
        print(f"{name}: kind={rep.kind} period={rep.period} eta={traj.eta:.6f}")

    # toy two-example sweep: symmetric two-point oscillation past eta = 8,
    # visible in the probe probability rather than the loss
    obj, spec = _load_recipe("toy_n2")
    lo, hi, step = spec["eta_grid"]
    grid = np.round(np.arange(lo, hi + step / 2, step), 10)
    sweep = _write_sweep(out / "toy_sweep_n2", obj, grid, 4,
                         4_000 if quick else 20_000, args.seed, spec["pn_group"])
    print(f"toy_sweep_n2: {len(sweep.cells)} cells")

    # basin raster for the co-stable two-dimensional example
    obj, sol, cfg, spec = _recipe_run("basin_2d", 60_000)
    res = 32 if quick else 64
    rep, _ = _write_basin(out / "basin_2d", obj, cfg, sol, spec["bounds"],
                          (res, res), 1_000 if quick else 4_000, gamma=spec["gamma"])
    print(f"basin_2d: period={rep.period} grid={res}x{res}")

    # stacked period-4 example with sharpness pinned above 2/eta
    obj, spec = _load_recipe("period4_1d")
    eta, sharp = _write_eos(out / "eos_stacked", _recipe_1d(spec), 4, obj.loss,
                            iters, 10_000 if quick else 30_000, 2048)
    print(f"eos_stacked: eta={eta:.6f} 2/eta={2 / eta:.6f} "
          f"tail sharpness={float(np.mean(sharp)):.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdcycles", description="GD dynamics lab for non-separable linear classification")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="minimizer and critical step sizes")
    _common_flags(p, need_eta=False)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=cmd_solve)

    p = subs.add_parser("trajectory", help="run GD, dump CSV, classify the limit")
    _common_flags(p)
    p.add_argument("--w0", required=True, help="initial point, comma separated")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    p.add_argument("--sharpness", action="store_true")
    p.set_defaults(fn=cmd_trajectory)

    p = subs.add_parser("psd", help="periodogram of the loss tail")
    _common_flags(p)
    p.add_argument("--w0", required=True)
    p.add_argument("--window", type=int, default=1024)
    p.set_defaults(fn=cmd_psd)

    p = subs.add_parser("bifurcate", help="step-size sweep")
    _common_flags(p, need_eta=False)
    p.add_argument("--eta-min", type=float, required=True)
    p.add_argument("--eta-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--inits", type=int, default=32)
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pn-group", type=int, default=None,
                   help="dataset group whose probability to record per cell")
    p.set_defaults(fn=cmd_bifurcate)

    p = subs.add_parser("basin", help="basin-of-attraction raster (d=2)")
    _common_flags(p)
    p.add_argument("--w0", required=True, help="initialization that reaches the cycle")
    p.add_argument("--xmin", type=float, default=-10.0)
    p.add_argument("--xmax", type=float, default=30.0)
    p.add_argument("--ymin", type=float, default=-10.0)
    p.add_argument("--ymax", type=float, default=30.0)
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--ny", type=int, default=64)
    p.add_argument("--basin-iters", type=int, default=4000)
    p.set_defaults(fn=cmd_basin)

    p = subs.add_parser("eos", help="stacked run with sharpness above 2/eta")
    p.add_argument("--recipe", required=True, type=Path,
                   help="JSON with m, n, x_big, b, gamma, w0")
    p.add_argument("--k", type=int, required=True, help="cycle period to stack")
    p.add_argument("--loss", default="logistic", choices=LOSS_NAMES)
    p.add_argument("--iters", type=int, default=150_000)
    p.add_argument("--stack-iters", type=int, default=30_000)
    p.add_argument("--tail", type=int, default=2048)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(fn=cmd_eos)

    p = subs.add_parser("repro", help="run the checked-in recipe configurations")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller grids and runs")
    p.set_defaults(fn=cmd_repro)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits 0 for --help; treat anything else as usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ValueError, FileNotFoundError) as exc:  # the CLI's checks and the library's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GDCyclesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
