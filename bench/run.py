"""envdiag benchmark: one workload, timed, checked, one JSON result line.

    python3 bench/run.py --workload lm-smoother --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced pass, measured against an untraced pass over the same
inputs.  The line before it is a JSON record of the environment, the
sample counts and the correctness gate.  The library is imported from
``src/`` of the checkout this file sits in, never from an installed copy.
"""

import os
import sys

# Thread budget, fixed before numpy loads: one BLAS thread per process,
# so the two-worker power-study cell runs two threads on two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3

# name -> (unit, better); the order is the order of the printed metrics
END_TO_END = {
    "dataset_ms.p50": ("ms", "lower"),
    "dataset_ms.tail": ("ms", "lower"),
    "datasets_per_s": ("1/s", "higher"),
    "cpu_s_per_dataset": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("ratio", "higher"),
}
# The tail of dataset_ms.  Higher percentiles mostly measured other tenants
# of the shared 2-core machine, not envdiag: p90 of lm-smoother varied by
# 1.5% between runs in a quiet hour and by 14% in a busy one, p99 by up to
# 22%; p75 varied by at most 3%.  At least 20 samples lie beyond it.
TAIL_PERCENTILE = 75.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run the set-up alone, for timing it in a fresh process
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workers: int, seed: int) -> dict:
    import scipy

    import envdiag

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workers": workers,
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(
            _git("status", "--porcelain", "--untracked-files=no")),
        "seed": seed,
        "envdiag_file": envdiag.__file__,
    }


def probe_setup(workload: str, seed: int) -> list[float]:
    """Seconds fresh processes take from start to ready to measure.

    Not calibrated: set-up is mostly process start and imports, which did
    not follow the kernel's speed; scaled medians moved by up to 34%
    between sets of runs, raw ones by up to 18%.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed with code {proc.returncode}")
    return times


def _timings(p, per_dataset, per_unit) -> dict:
    """Time metrics of a pass, each time scaled by the factor for its moment."""
    lat = np.asarray(p.latency) * per_dataset
    units = np.asarray(p.units)
    return {
        "dataset_ms.p50": 1e3 * float(np.median(lat)),
        "dataset_ms.tail": 1e3 * float(np.percentile(lat, TAIL_PERCENTILE)),
        "datasets_per_s": lat.size / float(np.sum(units[:, 1] * per_unit)),
        "cpu_s_per_dataset": float(np.sum(units[:, 2] * per_unit)) / lat.size,
    }


def measure(w, seed, seconds, inputs, work_dir, setup_times):
    """Untraced run: the end-to-end metrics."""
    import workloads
    from gate import Checker

    checker = Checker()
    calibration = workloads.Calibration()
    calibration.sample(calibration.NEAREST)
    if w.is_cell:
        # the workers sample the kernel themselves: samples taken here,
        # between cells, with one core busy, made the figures less steady
        p = workloads.cell_pass(w, seed, work_dir, checker,
                                workloads.for_seconds(seconds), calibration)
    else:
        p = workloads.client_pass(w, inputs, checker,
                                  workloads.for_seconds(seconds),
                                  calibration=calibration)
    per_dataset = calibration.factors(p.starts)
    per_unit = calibration.factors([t0 + wall / 2 for t0, wall, _ in p.units])
    if not p.latency:
        raise SystemExit("no dataset completed: " + "; ".join(p.errors[:3]))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + p.worker_rss_kb
    metrics = dict(
        _timings(p, per_dataset, per_unit),
        setup_s=float(np.median(setup_times)),
        peak_rss_mb=rss_kb / 1024.0,
        ok_share=1.0 - p.failed / p.attempted,
    )
    lat = np.asarray(p.latency) * per_dataset
    problems = (p.problems + checker.violations
                + checker.against_reference(w.name, workloads.ALPHA))
    record = {
        "errors": p.errors[:20],
        "samples": len(p.latency),
        "cells": len(p.units) if w.is_cell else 0,
        "tail": {"percentile": TAIL_PERCENTILE,
                 "beyond": int(np.count_nonzero(
                     lat > np.percentile(lat, TAIL_PERCENTILE)))},
        "dataset_ms_percentiles": {
            q: 1e3 * float(np.percentile(lat, q)) for q in (50, 75, 90, 95, 99)},
        "calibration_factor": float(np.median(per_dataset)),
        "raw": _timings(p, 1.0, 1.0),
        "setup_s_samples": setup_times,
        "rates": checker.summary(),
    }
    return metrics, record, problems, p.attempted, p.failed


def trace(w, seed, seconds, inputs, work_dir):
    """Untraced and traced runs of the same inputs, alternating: per-layer metrics.

    Alternating dataset by dataset (cell by cell) exposes both to the
    same drift of the machine, so their wall-time ratio is the tracing
    overhead.  For the power-study cell the traced copy runs in one
    process, because spans recorded in worker processes would be lost;
    so does an untraced copy, and the cell also runs on its workers for
    the parallel efficiency and the correctness gate.
    """
    import workloads
    from gate import Checker
    from layers import Tracer, layer_metrics

    checker = Checker()
    tracer = Tracer()
    if w.is_cell:
        p = workloads.Pass()     # the cells on their workers, checked
        out = work_dir / "out"
        single, traced = [], []
        for i in workloads.for_seconds(seconds):
            cell = workloads.cell_seed(seed, i)
            csv = workloads.captured_cell(w, cell, work_dir, checker, p)
            single.append(workloads.run_cell(w, cell, 1, out))
            tracer.current_unit = i
            with tracer:
                traced.append(workloads.run_cell(w, cell, 1, out))
            if not csv == single[-1][2] == traced[-1][2]:
                p.problems.append(f"cell {cell}: rates differ between the "
                                  "workers, one process and the traced run")
        n_traced = len(traced) * w.cell
        one_process = sum(c[0] for c in single)
        parallel = one_process / (w.workers * p.wall)
        overhead = sum(c[0] for c in traced) / one_process
        passes = [p]
    else:
        plain, traced = workloads.Pass(), workloads.Pass()
        traced_checker = Checker()
        for i in workloads.for_seconds(seconds):
            workloads.client_pass(w, inputs, checker, [i], p=plain)
            with tracer:
                workloads.client_pass(w, inputs, traced_checker, [i], p=traced,
                                      tracer=tracer)
        if traced_checker.digest.digest() != checker.digest.digest():
            plain.problems.append("traced results differ from untraced results")
        n_traced = traced.attempted
        parallel = 0.0
        overhead = traced.wall / plain.wall
        passes = [plain, traced]
    layers = layer_metrics(tracer, n_traced)
    layers["harness.parallel_efficiency"] = parallel
    layers["trace.overhead_share"] = overhead
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{w.name}.jsonl")
    # the traced checker's results are identical to the untraced ones
    problems = [m for p in passes for m in p.problems] + checker.violations \
        + checker.against_reference(w.name, workloads.ALPHA)
    record = {"errors": [m for p in passes for m in p.errors][:20],
              "spans": len(tracer), "unbound_layers": tracer.unbound}
    return (layers, record, problems, sum(p.attempted for p in passes),
            sum(p.failed for p in passes))


def load_library():
    """Import envdiag from this checkout's ``src/``; an error message if not."""
    if not (SRC / "envdiag" / "__init__.py").is_file():
        return f"no envdiag sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import envdiag

    if Path(envdiag.__file__).resolve().parent != SRC / "envdiag":
        return f"imported envdiag from {envdiag.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    error = load_library()
    if error:
        print(error, file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    work_dir = WORK / f"run-{os.getpid()}"
    try:
        if args.setup_only:
            workloads.setup(w, args.seed, work_dir)
            print("ready", flush=True)
            return 0
        if args.trace:
            inputs = workloads.setup(w, args.seed, work_dir)
            values, record, problems, attempted, failed = trace(
                w, args.seed, args.seconds, inputs, work_dir)
            units = layers.PER_LAYER
        else:
            setup_times = probe_setup(w.name, args.seed)
            inputs = workloads.setup(w, args.seed, work_dir)
            values, record, problems, attempted, failed = measure(
                w, args.seed, args.seconds, inputs, work_dir, setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record.update(workload=w.name, seconds=args.seconds, trace=args.trace,
                  problems=problems[:20],
                  environment=environment(w.workers, args.seed))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
