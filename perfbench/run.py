"""gdcycles benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload classify --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: classify, sweep, basin, construct (see NOTES.md).

--trace 0 times the untraced workload.  It sets up several times, then runs
whole passes until about --seconds have elapsed (at least one), and reports the
end-to-end metrics: setup_s, wall_s, tasks_per_s and peak_rss_mb.  Times are
rescaled to a fixed host speed sampled while they run (hostspeed.py); the
raw wall times are printed beside them.
--trace 1 runs one untimed warm-up pass, then alternates an untraced and a
traced unit (set-up plus pass) until about --seconds have elapsed, and
reports the per-layer metrics per traced unit; the untraced units are the
reference for the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give each metric with
its quartiles and sample count, the error rate, and a JSON line holding the
machine block and the hashes of the emitted files.  The exit code is 0 when
the workload ran, whether or not its checks passed; when it could not run at
all, it is non-zero and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("classify", "sweep", "basin", "construct")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_FAILURES_SHOWN = 20
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import gdcycles; print(time.perf_counter() - t)")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one sample is
    its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def git_commit(root: Path):
    """HEAD's commit read from the .git directory, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block(loadavg, probes):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": list(loadavg),
        "host_probe_ms": {"median": 1e3 * statistics.median(probes),
                          "min": 1e3 * min(probes), "n": len(probes),
                          "reference": 1e3 * hostspeed.REF_PROBE_S} if probes else None,
        "git_commit": git_commit(ROOT),
    }


def import_seconds():
    """Time importing numpy and the package in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def more(elapsed, last, seconds):
    """Start another pass while that brings the run's end nearer to
    ``seconds``, judging the next pass by the ``last`` one."""
    return elapsed + last / 2 < seconds


def run_passes(pass_fn, ctx, seconds, clock, start, sampler):
    """Whole passes, at least one, until about ``seconds`` have elapsed
    since ``start``, each timed raw and at the reference host speed."""
    raw, walls, rates, tallies = [], [], [], []
    while True:
        with sampler:
            tally = pass_fn(ctx)
        raw.append(sampler.wall_s)
        walls.append(sampler.scaled_s)
        rates.append((tally.attempted - tally.failed) / walls[-1])
        tallies.append(tally)
        if not more(clock() - start, raw[-1], seconds):
            return raw, walls, rates, tallies


def untraced(wl, loss, seed, seconds, sampler):
    """Set up ``n_setup`` times, each the import in a fresh interpreter plus
    the set-up here, then run passes; every time is also scaled to the
    reference host speed."""
    setup_fn, pass_fn, n_setup = wl
    clock = time.perf_counter
    imports, setup_raw, setups = [], [], []
    for _ in range(n_setup):
        with sampler:
            imports.append(import_seconds())
        import_scaled = imports[-1] * sampler.scaled_s / sampler.wall_s
        with sampler:
            ctx = setup_fn(seed, loss)
        setup_raw.append(imports[-1] + sampler.wall_s)
        setups.append(import_scaled + sampler.scaled_s)
    raw, walls, rates, tallies = run_passes(pass_fn, ctx, seconds, clock, clock(), sampler)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {
        "setup_s": ("s", setups),
        "wall_s": ("s", walls),
        "tasks_per_s": ("1/s", rates),
        "peak_rss_mb": ("MB", [rss_mb]),
    }
    info = {
        "setup_raw_s": ("s", setup_raw),
        "import_raw_s": ("s", imports),
        "wall_raw_s": ("s", raw),
    }
    metrics, lines = {}, []
    for name, (unit, values) in {**samples, **info}.items():
        q1, med, q3 = quartiles(values)
        if name in samples:
            metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{name:<12} {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    return metrics, tallies, lines


def traced(wl, loss, seed, seconds):
    import tracing

    setup_fn, pass_fn, _ = wl
    clock = time.perf_counter
    tracer = tracing.Tracer()
    traced_loss = tracer.loss(loss)
    start = clock()
    tallies = [pass_fn(setup_fn(seed, loss))]      # warm-up, not timed
    references, units, traced_s = [], 0, 0.0
    while True:
        t = clock()
        tallies.append(pass_fn(setup_fn(seed, loss)))
        references.append(clock() - t)
        with tracer.installed():
            t = clock()
            tallies.append(pass_fn(setup_fn(seed, traced_loss)))
            dt = clock() - t
        traced_s += dt
        units += 1
        if not more(clock() - start, references[-1] + dt, seconds):
            break
    reference_s = statistics.median(references)
    layer = tracer.metrics(units, traced_s, reference_s)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    covered = sum(v for name, (v, _) in layer.items() if name.endswith(".self_s"))
    lines = [f"{name:<40} {v:.6g} {u}" for name, (v, u) in layer.items()]
    lines.append(f"self times sum to {covered:.9g} s of {layer['trace.unit_s'][0]:.9g} s "
                 f"per traced unit ({units} units, untraced reference {reference_s:.6g} s)")
    return metrics, tallies, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gdcycles" / "__init__.py").is_file():
        print(f"error: no gdcycles package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    # One BLAS thread unless the caller chose otherwise, set before numpy
    # loads: with OpenBLAS's default of one thread per CPU, importing numpy
    # took 0.21 s against 0.14 s with one, and the gap changed between sets
    # of runs; no workload's matrices are large enough to gain from a second
    # thread.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import gdcycles
    import workloads
    from gdcycles.losses import logistic

    if Path(gdcycles.__file__).resolve().parent != (SRC / "gdcycles").resolve():
        print(f"error: imported gdcycles from {gdcycles.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    sampler = hostspeed.Sampler()
    if args.trace:
        metrics, tallies, lines = traced(wl, logistic(), args.seed, args.seconds)
    else:
        metrics, tallies, lines = untraced(wl, logistic(), args.seed, args.seconds, sampler)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    outputs = {}
    for t in tallies:
        outputs.update(t.outputs)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(tallies)}")
    for line in lines:
        print(line)
    print(f"error_rate   {failed / attempted:.6g}  ({failed} of {attempted} tasks failed)")
    for f in failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"machine": machine_block(loadavg, sampler.samples), "outputs_sha256": outputs}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
