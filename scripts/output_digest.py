#!/usr/bin/env python3
"""Print a SHA-256 digest of the diagnose outputs of a power-study stream.

Runs ``fit_model`` and ``diagnose_model`` (all four plots plus the
log-likelihood goodness-of-fit baseline) on the first N datasets of the
stream a power study with the given seed draws, with that study's
dataset and bootstrap seeds.  Prints one digest per dataset and one over
all of them.  Each digest covers the observed curves, the lower and upper
bands, the envelope statistics, the p-values and reject flags of every
plot, and the GOF p-value and flag; a dataset that fails is hashed by
its exception class and message.  Two versions of the library whose
digests agree produced bit-identical outputs:

    python3 scripts/output_digest.py --model lm --violation null --n 80 --B 199
    python3 scripts/output_digest.py --model poisson --violation mixture --n 80 --B 99
    python3 scripts/output_digest.py --model poisson-ri --violation null --n 40 --B 99

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
        r = results[kind]
        h.update(kind.value.encode())
        _update(h, r.observed, r.envelope.lower, r.envelope.upper,
                r.envelope.stats, [r.p_value, float(r.reject)])
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
    for i in range(args.datasets):
        digest = dataset_digest(spec, i)
        total.update(digest.encode())
        print(f"{i} {digest}")
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
