#!/usr/bin/env python3
"""Print what the ``poisson-ri`` optimizer costs per kernel call.

Runs ``fit_model`` and ``diagnose_model`` (all four plots plus the
log-likelihood goodness-of-fit baseline) on the first N datasets of a
``poisson-ri`` null power-study stream, with that study's dataset and
bootstrap seeds, and reports two lines: the observed fits
(``fit_model``) and the bootstrap refits (everything
``diagnose_model`` fits).  Each line gives, per dataset, the calls of
the likelihood kernel ``fitters._glmm_objective`` and the rows they
evaluated, then, per kernel call, the milliseconds spent inside the
kernel and those spent inside ``fitters.glmm_rows`` but outside the
kernel: the optimizer's own bookkeeping.  Both functions are counted
and timed by rebinding the module attributes, as
``scripts/output_digest.py`` counts the kernel.

The call and row counts are exact: the same on every run.  The times are
raw wall clock from the last of ``--passes`` passes over the datasets,
with one BLAS thread; read them only as shares within one run (inside
against outside the kernel, fits against refits).  Do not compare the
times of two versions from two separate runs: on a shared 2-core
machine, separate-process runs gave per-pair ratios of 0.39 to 1.69 for
the same quantity.  To compare two versions, capture the ``glmm_rows``
calls once and replay them through both versions' ``fitters`` in one
process, the two interleaved per call in random order, over several
rounds, as ``call_cost_final_revision`` in ``BENCH_23.json`` records.
Run it as:

    python3 scripts/glmm_call_cost.py --n 40 --B 99
    python3 scripts/glmm_call_cost.py --n 10 --B 99 --datasets 40

The library is imported from ``src/`` next to this script.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# one BLAS thread, as the benchmark runs, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from envdiag import (  # noqa: E402
    EnvdiagError,
    ModelKind,
    PlotKind,
    diagnose_model,
    fit_model,
    fitters,
)
from envdiag.harness import (  # noqa: E402
    ScenarioSpec,
    Violation,
    _dataset_seeds,
    generate_dataset,
)


class Tally:
    """Kernel calls, rows and seconds; seconds in ``glmm_rows``, and the
    kernel's seconds within them."""

    def __init__(self):
        self.calls = self.rows = 0
        self.kernel_s = self.optimizer_s = self.kernel_in_optimizer_s = 0.0

    def line(self, label: str, datasets: int) -> str:
        per_call = 1e3 / max(self.calls, 1)
        outside = self.optimizer_s - self.kernel_in_optimizer_s
        return (f"{label:<9} {self.calls / datasets:9.2f} "
                f"{self.rows / datasets:9.1f} "
                f"{self.kernel_s * per_call:9.3f} "
                f"{outside * per_call:9.3f}")


class Timed:
    """Rebinds ``fitters._glmm_objective`` and ``fitters.glmm_rows`` to
    count into ``self.tally``, the tally of the phase being run."""

    def __init__(self):
        self.tally = Tally()
        self.in_optimizer = False
        kernel, optimizer = fitters._glmm_objective, fitters.glmm_rows

        def counted_kernel(X, group, Y, *rest):
            start = time.perf_counter()
            out = kernel(X, group, Y, *rest)
            seconds = time.perf_counter() - start
            self.tally.kernel_s += seconds
            if self.in_optimizer:
                self.tally.kernel_in_optimizer_s += seconds
            self.tally.calls += 1
            self.tally.rows += Y.shape[0]
            return out

        def timed_optimizer(*args):
            self.in_optimizer = True
            start = time.perf_counter()
            try:
                return optimizer(*args)
            finally:
                self.tally.optimizer_s += time.perf_counter() - start
                self.in_optimizer = False

        fitters._glmm_objective = counted_kernel
        fitters.glmm_rows = timed_optimizer


def one_pass(spec: ScenarioSpec, timed: Timed) -> tuple[Tally, Tally, int]:
    """Tallies of the observed fits and of the refits over the stream's
    first ``spec.n_datasets`` datasets, and the datasets that failed."""
    fits, refits = Tally(), Tally()
    failed = 0
    for i in range(spec.n_datasets):
        data_ss, boot_seed = _dataset_seeds(spec, i)
        d = generate_dataset(spec, np.random.default_rng(data_ss))
        try:
            timed.tally = fits
            m = fit_model(d, spec.model)
            timed.tally = refits
            diagnose_model(m, kinds=tuple(PlotKind), B=spec.B,
                           alpha=spec.alpha, seed=boot_seed,
                           m_grid=spec.m_grid, with_gof=True)
        except EnvdiagError:
            failed += 1
    return fits, refits, failed


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=40)
    ap.add_argument("--B", type=int, default=99)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--datasets", type=int, default=40)
    ap.add_argument("--passes", type=int, default=2)
    args = ap.parse_args()
    if args.datasets < 1 or args.passes < 1:
        ap.error("--datasets and --passes must be at least 1")

    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=args.n,
                        n_datasets=args.datasets, B=args.B, seed=args.seed)
    timed = Timed()
    for _ in range(args.passes):
        fits, refits, failed = one_pass(spec, timed)
    print(f"poisson-ri null n={args.n} B={args.B} seed={args.seed}: "
          f"{args.datasets} datasets ({failed} failed), "
          f"last of {args.passes} passes")
    print(f"{'':<9} {'calls/ds':>9} {'rows/ds':>9} {'in ms':>9} "
          f"{'out ms':>9}")
    print(fits.line("fit", args.datasets))
    print(refits.line("refits", args.datasets))
    return 0


if __name__ == "__main__":
    sys.exit(main())
