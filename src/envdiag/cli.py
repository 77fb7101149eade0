"""Command line: fit, diagnose, power-study.

Flags override config-file fields.  Exit status reflects pipeline
success; a diagnostic that rejects is a result, not an error.
``ENVDIAG_THREADS`` caps worker concurrency for power studies.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .data import EnvdiagError, ModelKind
from .diagnostics import DEFAULT_ALPHA, DEFAULT_B, DEFAULT_GRID
from .io import RunConfig, load_and_fit, run_diagnose, run_power_study

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
    p_diag.add_argument("--B", type=int,
                        help=f"ensemble size (default {DEFAULT_B})")
    p_diag.add_argument("--alpha", type=float,
                        help=f"envelope level (default {DEFAULT_ALPHA})")
    p_diag.add_argument("--grid", type=int, dest="m_grid",
                        help=f"smoother evaluation grid size "
                             f"(default {DEFAULT_GRID})")

    p_pow = sub.add_parser("power-study", help="run a simulation grid")
    p_pow.add_argument("--config", required=True, help="JSON grid config")
    p_pow.add_argument("--out", default="envdiag_power", help="output directory")
    p_pow.add_argument("--seed", type=int, help="override the config seed")
    p_pow.add_argument("--B", type=int, help="override the config B")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's settings, if any, with every given flag over them."""
    config = RunConfig()
    if args.config:
        # utf-8-sig: some editors write a byte-order mark before the JSON
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            config = RunConfig.from_dict(json.load(fh))
    # every flag but --config is named after the field it sets
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    for name in ("predictors", "plots"):
        if flags[name] is not None:
            flags[name] = [c.strip() for c in flags[name].split(",")
                           if c.strip()]
    return replace(config, **{k: v for k, v in flags.items() if v is not None})


def _cmd_fit(args: argparse.Namespace) -> int:
    config = _load_config(args)
    m = load_and_fit(config)
    summary = {
        "model": m.kind.value,
        "n": m.n,
        "p": m.p,
        "beta": [float(b) for b in m.beta],
        "loglik": float(m.loglik),
    }
    # the scale under its name, and whether it is 0 (see FittedModel)
    names = {ModelKind.LM: ("sigma", "degenerate"),
             ModelKind.GLMM_POISSON_RI: ("omega", "boundary_omega")}
    if m.kind in names:
        scale, at_zero = names[m.kind]
        summary[scale] = m.scale
        summary[at_zero] = m.scale == 0.0
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if config.out:
        out = Path(config.out)
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
    with open(args.config, "r", encoding="utf-8-sig") as fh:
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
