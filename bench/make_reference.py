"""Record the reference rejection rates and p-values of every workload.

    python3 bench/make_reference.py

Runs each workload untimed over four fixed seeds, checks every dataset
with the correctness gate, and writes ``reference.json`` next to this
file: per method the rejection rate, the mean and the standard deviation
of the p-value, and the number of datasets behind them.  Rerun it only when a change is
meant to move these figures.
"""

import json
import shutil
import sys

import run  # fixes the BLAS thread budget before numpy loads

SEEDS = (1001, 1002, 1003, 1004)
# datasets (single client) or cells (power study) per seed
PER_SEED = {"lm-smoother": 500, "glmm-refit": 100, "poisson-power-cell": 3}


def main() -> int:
    error = run.load_library()
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads
    from gate import REFERENCE, Checker

    out = {}
    work_dir = run.WORK / "reference"
    try:
        for name, w in workloads.WORKLOADS.items():
            checker = Checker()
            failed = 0
            for seed in SEEDS:
                indices = range(PER_SEED[name])
                if w.is_cell:
                    p = workloads.cell_pass(w, seed, work_dir, checker, indices)
                else:
                    p = workloads.client_pass(w, workloads.make_inputs(w, seed),
                                              checker, indices)
                failed += p.failed
                if p.problems or checker.violations:
                    print(name, p.problems, checker.violations, file=sys.stderr)
                    return 1
            out[name] = {"n": checker.n, "failed": failed, "seeds": list(SEEDS),
                         "methods": checker.summary()}
            print(name, json.dumps(out[name]), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
