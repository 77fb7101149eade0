"""Command line: fit, diagnose, power-study.

Flags override config-file fields.  Exit status reflects pipeline
success; a diagnostic that rejects is a result, not an error.
``ENVDIAG_THREADS`` caps worker concurrency for power studies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import EnvdiagError, ModelKind, validate_dataset
from .fitters import fit_model
from .io import RunConfig, load_csv, run_diagnose, run_power_study

_MODEL_CHOICES = [k.value for k in ModelKind]


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="CSV file with a header row")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--model", choices=_MODEL_CHOICES)
    p.add_argument("--response", help="response column name")
    p.add_argument("--predictors",
                   help="comma-separated predictor column names")
    p.add_argument("--group", help="grouping column name")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envdiag",
        description="Regression diagnostics with global simulation envelopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and print its summary")
    _add_shared_flags(p_fit)

    p_diag = sub.add_parser(
        "diagnose", help="fit a model and emit envelope plots"
    )
    _add_shared_flags(p_diag)
    p_diag.add_argument(
        "--plots", help="comma-separated subset of qq,pp,res_vs_fits,scale_location"
    )
    p_diag.add_argument("--B", type=int, help="ensemble size (default 199)")
    p_diag.add_argument("--alpha", type=float, help="envelope level (default 0.05)")
    p_diag.add_argument("--grid", type=int, dest="m_grid",
                        help="smoother evaluation grid size (default 64)")

    p_pow = sub.add_parser("power-study", help="run a simulation grid")
    p_pow.add_argument("--config", required=True, help="JSON grid config")
    p_pow.add_argument("--out", default="envdiag_power", help="output directory")
    p_pow.add_argument("--seed", type=int, help="override the config seed")
    p_pow.add_argument("--B", type=int, help="override the config B")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    base = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = RunConfig.from_dict(json.load(fh))
    overrides = {
        "data": args.data,
        "model": args.model,
        "response": args.response,
        "group": args.group,
        "seed": args.seed,
        "out": args.out,
    }
    if args.predictors is not None:
        overrides["predictors"] = [
            c.strip() for c in args.predictors.split(",") if c.strip()
        ]
    for name in ("plots", "B", "alpha", "m_grid"):
        if hasattr(args, name):
            val = getattr(args, name)
            if name == "plots" and val is not None:
                val = [p.strip() for p in val.split(",") if p.strip()]
            overrides[name] = val
    return base.merged(overrides)


def _cmd_fit(args: argparse.Namespace) -> int:
    config = _load_config(args)
    config.validate()
    d = load_csv(config.data, config.response, config.predictors, config.group)
    validate_dataset(d)
    m = fit_model(d, ModelKind(config.model))
    summary = {
        "model": m.kind.value,
        "n": m.n,
        "p": m.p,
        "beta": [float(b) for b in m.beta],
        "loglik": float(m.loglik),
    }
    if m.sigma is not None:
        summary["sigma"] = float(m.sigma)
        summary["degenerate"] = m.degenerate
    if m.omega is not None:
        summary["omega"] = float(m.omega)
        summary["boundary_omega"] = m.boundary_omega
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "fit.json").write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    config = _load_config(args)
    artifacts = run_diagnose(config)
    for art in artifacts:
        verdict = "reject" if art.reject else "ok"
        print(f"{art.kind}: p={art.p_value:.4g} [{verdict}] -> {art.svg_path}")
    return 0


def _cmd_power_study(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    overrides = {k: v for k, v in (("seed", args.seed), ("B", args.B))
                 if v is not None}
    if isinstance(cfg, dict):  # run_power_study rejects any other config
        cfg.update(overrides)
    csv_path, manifest_path = run_power_study(cfg, args.out)
    print(f"rates -> {csv_path}")
    print(f"manifest -> {manifest_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "fit": _cmd_fit,
        "diagnose": _cmd_diagnose,
        "power-study": _cmd_power_study,
    }
    try:
        return handlers[args.command](args)
    except (EnvdiagError, ValueError, OSError) as exc:
        print(f"envdiag: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
