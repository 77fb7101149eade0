"""The benchmark's three workloads and the loops that time them.

* ``lm-smoother``: linear model, null, n=80, B=199, one client in a
  closed loop.  The P-spline smoother dominates; refits are cheap.
* ``glmm-refit``: random-intercept Poisson, null, n=40, B=99, one client
  in a closed loop.  Quasi-Newton refits dominate.
* ``poisson-power-cell``: Poisson GLM, mixture, n=80, B=99, cells of a
  power study run through ``io.run_power_study`` with two worker
  processes.  IRLS refits and the smoother share the cost, in two
  processes at once.

Every dataset gets all four plots plus the log-likelihood baseline.
Single-client datasets come from ``harness.generate_dataset`` with the
per-dataset streams a power study with the workload seed would use, and
are generated before timing starts; the power study generates its own.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.optimize import minimize, rosen

from envdiag import diagnostics, fitters, harness, io
from envdiag.data import Dataset, EnvdiagError, ModelKind
from envdiag.diagnostics import PlotKind
from envdiag.harness import ScenarioSpec, Violation

from gate import Checker

ALPHA = 0.05
M_GRID = 64
WARMUP_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    model: ModelKind
    violation: Violation
    n: int
    B: int
    # single client: datasets generated before timing, cycled if a run
    # gets through all of them
    pool: int = 0
    # power study: datasets per cell and worker processes
    cell: int = 0
    workers: int = 1

    @property
    def is_cell(self) -> bool:
        return self.cell > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lm-smoother", ModelKind.LM, Violation.NULL_OK, n=80, B=199,
                 pool=4096),
        Workload("glmm-refit", ModelKind.GLMM_POISSON_RI, Violation.NULL_OK,
                 n=40, B=99, pool=512),
        Workload("poisson-power-cell", ModelKind.GLM_POISSON, Violation.MIXTURE,
                 n=80, B=99, cell=160, workers=2),
    )
}


@dataclass
class Pass:
    """What one timed pass over a workload's inputs measured."""

    # per completed dataset: when it started and its wall time, s
    starts: list[float] = field(default_factory=list)
    latency: list[float] = field(default_factory=list)
    # per unit of work (a dataset for one client, a cell for the power
    # study): start, wall s, CPU s of this process and its workers
    units: list[tuple[float, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0               # raised EnvdiagError or broke the gate
    errors: list[str] = field(default_factory=list)      # EnvdiagError raised
    worker_rss_kb: int = 0        # largest summed peak of one cell's workers
    problems: list[str] = field(default_factory=list)    # wrong outputs

    @property
    def wall(self) -> float:
        return sum(u[1] for u in self.units)


class Calibration:
    """How fast the machine runs, moment by moment, from a kernel outside envdiag.

    On a shared machine the same code runs several percent slower or
    faster from one minute to the next, and up to 1.6 times slower for a
    few seconds at a time; code of the same kind slows alike.  The kernel
    (small least-squares solves and L-BFGS-B fits with finite-difference
    gradients, the operations the pipeline is made of) is timed between
    datasets, outside their timed intervals.  ``factors`` scales a time
    measured at a given moment to a machine on which the kernel takes
    ``REFERENCE_MS``, using the median of the samples nearest that moment.
    """

    # median kernel time on the 2-core AMD EPYC VM the benchmark was
    # defined on, one BLAS thread
    REFERENCE_MS = 8.0
    # seconds of measured work between two samples, and samples per estimate
    EVERY = 0.25
    NEAREST = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((80, 10))
        self._b = rng.standard_normal(80)
        self.times: list[float] = []
        self.durations: list[float] = []
        self._since = 0.0

    def _kernel(self) -> None:
        for _ in range(3):
            minimize(rosen, np.full(4, 1.3), method="L-BFGS-B")
        for _ in range(30):
            np.linalg.lstsq(self._A, self._b, rcond=None)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.durations.append(t1 - t0)

    def after(self, seconds: float) -> None:
        """Take one sample per ``EVERY`` seconds of measured work."""
        self._since += seconds
        while self._since >= self.EVERY:
            self._since -= self.EVERY
            self.sample()

    def add(self, samples) -> None:
        """Take ``(time, duration)`` samples made in another process."""
        for t, d in samples:
            self.times.append(t)
            self.durations.append(d)

    def factors(self, at) -> np.ndarray:
        """Scale factors for times measured from the moments ``at``."""
        order = np.argsort(self.times)
        times = np.asarray(self.times)[order]
        dur = np.asarray(self.durations)[order]
        last = max(dur.size - self.NEAREST, 0)
        lo = np.clip(np.searchsorted(times, at) - self.NEAREST // 2, 0, last)
        local = np.array([np.median(dur[i:i + self.NEAREST]) for i in lo])
        return self.REFERENCE_MS / (1e3 * local)


def _stream_seeds(seed: int, index: int) -> tuple[np.random.SeedSequence, int]:
    """Data stream and bootstrap seed of dataset ``index``, as in a power study."""
    boot = np.random.SeedSequence((seed, index, 1)).generate_state(1, np.uint64)
    return np.random.SeedSequence((seed, index, 0)), int(boot[0])


def make_inputs(w: Workload, seed: int,
                count: Optional[int] = None) -> list[tuple[Dataset, int]]:
    spec = ScenarioSpec(model=w.model, violation=w.violation, n=w.n, B=w.B,
                        alpha=ALPHA, seed=seed, m_grid=M_GRID)
    inputs = []
    for i in range(w.pool if count is None else count):
        data_ss, boot_seed = _stream_seeds(seed, i)
        d = harness.generate_dataset(spec, np.random.default_rng(data_ss))
        inputs.append((d, boot_seed))
    return inputs


def run_dataset(w: Workload, d: Dataset, boot_seed: int):
    """``fit_model`` plus ``diagnose_model``: what one client waits for."""
    m = fitters.fit_model(d, w.model)
    return diagnostics.diagnose_model(
        m, kinds=tuple(PlotKind), B=w.B, alpha=ALPHA, seed=boot_seed,
        m_grid=M_GRID, with_gof=True)


def for_seconds(seconds: float):
    """Indices 0, 1, 2, ... until ``seconds`` have passed; at least one."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        yield i
        i += 1


def client_pass(w: Workload, inputs, checker: Checker, indices, *,
                p: Optional[Pass] = None, tracer=None,
                calibration: Optional[Calibration] = None) -> Pass:
    """Closed loop, one client: the next dataset starts when one is done.

    Runs the inputs at ``indices`` (cycling through the pool), adding to
    ``p``.  Each dataset is checked, and the calibration sampled, after
    its timed interval ends.
    """
    p = Pass() if p is None else p
    for i in indices:
        d, boot_seed = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.current_unit = i
        p.attempted += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            results, gof = run_dataset(w, d, boot_seed)
        except EnvdiagError as exc:
            p.units.append((t0, time.perf_counter() - t0,
                            time.process_time() - c0))
            p.failed += 1
            p.errors.append(f"dataset {i}: {exc!r}")
            continue
        dt = time.perf_counter() - t0
        p.units.append((t0, dt, time.process_time() - c0))
        p.starts.append(t0)
        p.latency.append(dt)
        p.failed += not checker.add(results, gof)
        if calibration is not None:
            calibration.after(dt)
    return p


# ---------------------------------------------------------------------
# power-study cells
# ---------------------------------------------------------------------


def cell_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_cell(w: Workload, seed: int, workers: int, out_dir: Path,
             n_datasets: Optional[int] = None) -> tuple[float, float, str, int]:
    """One power-study cell: (wall s, CPU s, rates.csv text, datasets ok)."""
    config = {
        "scenarios": [{"model": w.model.value, "violation": w.violation.value,
                       "n": w.n}],
        "n_datasets": n_datasets or w.cell,
        "B": w.B,
        "alpha": ALPHA,
        "seed": seed,
        "m_grid": M_GRID,
    }
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    csv_path, manifest_path = io.run_power_study(config, str(out_dir),
                                                 workers=workers)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - c0
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    return (wall, cpu, Path(csv_path).read_text(encoding="utf-8"),
            int(manifest["scenarios"][0]["n_ok"]))


class WorkerCapture:
    """Times and keeps every dataset a power-study worker completes.

    Rebinds ``harness.fit_model`` and ``harness.diagnose_model`` before
    the worker pool forks, so each worker inherits the wrappers.  A
    worker appends ``(start, seconds, peak RSS kB, calibration samples,
    results)`` per dataset to its own file; the results are checked by the
    parent after the cell.  With a calibration, each worker samples the
    kernel after its datasets, so the samples see both cores busy, as the
    datasets do.
    """

    def __init__(self, directory: Path,
                 calibration: Optional[Calibration] = None):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.calibration = calibration
        self._t0 = 0.0

    def __enter__(self) -> "WorkerCapture":
        self._fit, self._diagnose = harness.fit_model, harness.diagnose_model
        harness.fit_model, harness.diagnose_model = self._timed_fit, self._kept
        return self

    def __exit__(self, *exc) -> None:
        harness.fit_model, harness.diagnose_model = self._fit, self._diagnose

    def _timed_fit(self, *args, **kwargs):
        self._t0 = time.perf_counter()
        return self._fit(*args, **kwargs)

    def _kept(self, *args, **kwargs):
        out = self._diagnose(*args, **kwargs)
        dt = time.perf_counter() - self._t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples = []
        if self.calibration is not None:
            cal = self.calibration
            n = len(cal.times)
            cal.after(dt)
            samples = list(zip(cal.times[n:], cal.durations[n:]))
        with open(self.directory / f"{os.getpid()}.pkl", "ab") as fh:
            pickle.dump((self._t0, dt, rss, samples, out), fh)
        return out

    def drain(self):
        """Yield ``(worker, start, seconds, peak RSS kB, samples, results, gof)``.

        Consumes and deletes the workers' files.
        """
        for path in sorted(self.directory.glob("*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        t0, dt, rss, samples, (results, gof) = pickle.load(fh)
                    except EOFError:
                        break
                    yield path.stem, t0, dt, rss, samples, results, gof
            path.unlink()


def _rates(csv_text: str) -> dict[str, float]:
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    col_m, col_r = header.index("method"), header.index("rate")
    return {row[col_m]: float(row[col_r])
            for row in (line.split(",") for line in lines[1:])}


def captured_cell(w: Workload, seed: int, work_dir: Path, checker: Checker,
                  p: Pass, calibration: Optional[Calibration] = None) -> str:
    """Run one cell on the workload's workers and check what they computed.

    Adds to ``p`` and returns the cell's rates.csv.  Time the workers
    spent on calibration samples is taken out of the cell's wall and CPU
    time, spread evenly over the workers.
    """
    capture = WorkerCapture(work_dir / "capture", calibration)
    start = time.perf_counter()
    with capture:
        wall, cpu, csv, n_ok = run_cell(w, seed, w.workers, work_dir / "out")
    kernel = 0.0
    p.attempted += w.cell
    p.failed += w.cell - n_ok
    rejects = dict.fromkeys(_rates(csv), 0)
    peak_rss: dict[str, int] = {}
    n_kept = 0
    for worker, t0, dt, rss, samples, results, gof in capture.drain():
        if calibration is not None:
            calibration.add(samples)
            kernel += sum(d for _, d in samples)
        n_kept += 1
        peak_rss[worker] = rss
        p.starts.append(t0)
        p.latency.append(dt)
        p.failed += not checker.add(results, gof)
        for kind in PlotKind:
            rejects[kind.value] += results[kind].reject
        rejects["loglik_gof"] += gof.reject
    p.worker_rss_kb = max(p.worker_rss_kb, sum(peak_rss.values()))
    p.units.append((start, wall - kernel / w.workers, cpu - kernel))
    if n_kept != n_ok:
        p.problems.append(f"cell {seed}: workers kept {n_kept} datasets, "
                          f"the power study completed {n_ok}")
    elif n_ok and {m: c / n_ok for m, c in rejects.items()} != _rates(csv):
        p.problems.append(f"cell {seed}: rates.csv disagrees with the "
                          "per-dataset results")
    return csv


def cell_pass(w: Workload, seed: int, work_dir: Path, checker: Checker,
              indices, calibration: Optional[Calibration] = None) -> Pass:
    """The power-study cells at ``indices``, one after another."""
    p = Pass()
    for i in indices:
        captured_cell(w, cell_seed(seed, i), work_dir, checker, p, calibration)
    return p


def setup(w: Workload, seed: int, work_dir: Path):
    """Generate the inputs and run one untimed warm-up dataset (or cell).

    The warm-up input is the same for every seed: a random-intercept
    dataset can take twice as long as another, which would make set-up
    time depend on the seed.
    """
    if w.is_cell:
        run_cell(w, cell_seed(WARMUP_SEED, 0), w.workers, work_dir / "out",
                 n_datasets=2)
        return None
    run_dataset(w, *make_inputs(w, WARMUP_SEED, count=1)[0])
    return make_inputs(w, seed)
