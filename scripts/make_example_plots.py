#!/usr/bin/env python3
"""Generate example envelope plots from overdispersed count data.

Simulates a 9:1 rate-inflated Poisson sample, fits a plain log-linear
model, and writes the three diagnostic plots with 95% global envelopes.
The quantile plot shows points escaping above the band in the upper tail
and the scale-location trend exits its band: both signatures of
overdispersion.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from envdiag import (  # noqa: E402
    Dataset,
    ModelKind,
    PlotKind,
    diagnose_model,
    fit_model,
)
from envdiag.svg import render_diagnostic  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="example_plots")
    ap.add_argument("--n", type=int, default=80)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--B", type=int, default=199)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    n = args.n
    x = (np.arange(1, n + 1) - 0.5) / n
    inflate = rng.random(n) < 0.1
    y = rng.poisson(np.exp(-2 + 4 * x) * np.where(inflate, 4.0, 1.0))
    d = Dataset(y=y.astype(float), X=np.column_stack([np.ones(n), x]))
    m = fit_model(d, ModelKind.GLM_POISSON)

    kinds = (PlotKind.RES_VS_FITS, PlotKind.QQ, PlotKind.SCALE_LOCATION)
    results, _ = diagnose_model(m, kinds=kinds, B=args.B, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for kind in kinds:
        res = results[kind]
        path = out / f"{kind.value}.svg"
        path.write_text(render_diagnostic(res, title=f"poisson: {kind.value}"),
                        encoding="utf-8")
        verdict = "outside" if res.reject else "inside"
        print(f"{kind.value:15s} p={res.p_value:.4f} ({verdict}) -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
