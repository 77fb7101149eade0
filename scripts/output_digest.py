#!/usr/bin/env python3
"""Print a SHA-256 digest of the diagnose outputs of a power-study stream.

Runs ``fit_model`` and ``diagnose_model`` (all four plots plus the
log-likelihood goodness-of-fit baseline) on the first N datasets of the
stream a power study with the given seed draws, with that study's
dataset and bootstrap seeds.  Prints one digest per dataset and one over
all of them.  Each digest covers every array of a plot that the CSV
and SVG writers and the benchmark's correctness gate read: the grid, the
observed curve, the scatter points, the envelope's center, lower and
upper bands, statistics, critical value and degenerate grid points, and
the p-value and reject flag; then the GOF p-value and flag.  A dataset
that fails is hashed by its exception class and message.  Each dataset
line then gives the dataset's calls of the ``poisson-ri`` likelihood
kernel and the rows they evaluated (0 for ``lm`` and ``poisson``); the
``all`` line hashes the digests only.  Two versions of the library whose
digests agree produced bit-identical outputs.  Digests of versions of
this script that hashed fewer arrays are not comparable with these:

    python3 scripts/output_digest.py --model lm --violation null --n 80 --B 199
    python3 scripts/output_digest.py --model poisson --violation mixture --n 80 --B 99
    python3 scripts/output_digest.py --model poisson-ri --violation null --n 40 --B 99
    python3 scripts/output_digest.py --model poisson-ri --violation null --n 10 --B 99

The library is imported from ``src/`` next to this script.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

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


def _update(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())


class KernelCount:
    """Calls of ``fitters._glmm_objective`` and the rows they evaluated,
    counted by rebinding the module attribute."""

    def __init__(self):
        self.calls = self.rows = 0
        self._kernel = fitters._glmm_objective
        fitters._glmm_objective = self

    def __call__(self, X, group, Y, *rest):
        self.calls += 1
        self.rows += Y.shape[0]
        return self._kernel(X, group, Y, *rest)


def dataset_digest(spec: ScenarioSpec, index: int) -> str:
    """Digest of one dataset's diagnose outputs."""
    data_ss, boot_seed = _dataset_seeds(spec, index)
    d = generate_dataset(spec, np.random.default_rng(data_ss))
    h = hashlib.sha256()
    try:
        m = fit_model(d, spec.model)
        results, gof = diagnose_model(
            m, kinds=tuple(PlotKind), B=spec.B, alpha=spec.alpha,
            seed=boot_seed, m_grid=spec.m_grid, with_gof=True)
    except EnvdiagError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    for kind in PlotKind:
        r, env = results[kind], results[kind].envelope
        h.update(kind.value.encode())
        _update(h, r.grid, r.observed, r.points, env.center, env.lower,
                env.upper, env.stats, [env.critical], env.degenerate_points,
                [r.p_value, float(r.reject)])
    _update(h, [gof.p_value, float(gof.reject)])
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--model", required=True,
                    choices=[k.value for k in ModelKind])
    ap.add_argument("--violation", default="null",
                    choices=[v.value for v in Violation])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--B", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--datasets", type=int, default=40)
    args = ap.parse_args()

    spec = ScenarioSpec(model=ModelKind(args.model),
                        violation=Violation(args.violation), n=args.n,
                        n_datasets=args.datasets, B=args.B, seed=args.seed)
    total = hashlib.sha256()
    count = KernelCount()
    for i in range(args.datasets):
        count.calls = count.rows = 0
        digest = dataset_digest(spec, i)
        total.update(digest.encode())
        print(f"{i} {digest} {count.calls} {count.rows}")
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
