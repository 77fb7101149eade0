"""File formats and pipeline runners behind the command line.

CSV in (header row, numeric columns, optional group labels), SVG plus a
companion CSV out per diagnostic plot, and a rates CSV plus JSON manifest
for power studies.  Floats are serialized with 17 significant digits so
reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .data import Dataset, EnvdiagError, ModelKind, validate_dataset
from .diagnostics import DiagnosticResult, PlotKind, diagnose_model
from .envelope import _critical_index
from .fitters import fit_model
from .harness import (
    ScenarioSpec,
    Violation,
    resolve_workers,
    run_grid,
    scenario_grid,
)
from .svg import render_diagnostic


class MissingColumn(EnvdiagError):
    pass


class NonNumericCell(EnvdiagError):
    def __init__(self, msg: str, row: int, column: str):
        super().__init__(msg)
        self.row = row
        self.column = column


class EmptyFile(EnvdiagError):
    pass


class RaggedRow(EnvdiagError):
    pass


_MODEL_NAMES = {k.value: k for k in ModelKind}
_PLOT_NAMES = {k.value: k for k in PlotKind}
_VIOLATION_NAMES = {v.value: v for v in Violation}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _of_type(*types):
    """``_value`` converter accepting only values of exactly ``types``."""
    def check(v):
        if type(v) not in types:
            raise TypeError(v)
        return v
    return check


def _list_of(t):
    """``_value`` converter accepting only a list of values of exactly ``t``."""
    def check(v):
        if type(v) is not list or any(type(x) is not t for x in v):
            raise TypeError(v)
        return v
    return check


# what each JSON field of RunConfig may hold
_RUN_FIELD_TYPES = {
    "data": _of_type(str),
    "response": _of_type(str),
    "predictors": lambda v: None if v is None else _list_of(str)(v),
    "group": _of_type(str, type(None)),
    "model": _of_type(str),
    "plots": _list_of(str),
    "B": _of_type(int),
    "alpha": _of_type(float),
    "seed": _of_type(int),
    "m_grid": _of_type(int),
    "out": _of_type(str),
}


@dataclass
class RunConfig:
    """Settings for one diagnose run; JSON fields match attribute names."""

    data: str = ""
    response: str = "y"
    predictors: Optional[list[str]] = None  # default: every other column
    group: Optional[str] = None
    model: str = "lm"
    plots: list[str] = field(
        default_factory=lambda: ["res_vs_fits", "qq"]
    )
    B: int = 199
    alpha: float = 0.05
    seed: int = 0
    m_grid: int = 64
    out: str = "envdiag_out"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Config from JSON fields; ValueError names a bad or unknown field."""
        if not isinstance(raw, dict):
            raise ValueError(
                f"diagnose config must be a JSON object, not {raw!r}")
        unknown = set(raw) - set(_RUN_FIELD_TYPES)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{k: _value(raw, k, _RUN_FIELD_TYPES[k], "config")
                      for k in raw})

    def merged(self, overrides: dict) -> "RunConfig":
        """New config with non-None override values taking precedence."""
        data = asdict(self)
        data.update({k: v for k, v in overrides.items() if v is not None})
        return RunConfig.from_dict(data)

    def validate(self) -> "RunConfig":
        if not self.data:
            raise ValueError("config must name a data file")
        if self.model not in _MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}")
        if not self.plots:
            raise ValueError("plots must name at least one plot kind")
        for i, p in enumerate(self.plots):
            if p not in _PLOT_NAMES:
                raise ValueError(f"unknown plot kind {p!r}")
            if p in self.plots[:i]:
                raise ValueError(f"plots names {p!r} twice")
        if self.B < 19:
            raise ValueError("B must be at least 19")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        _critical_index(self.alpha, self.B)   # raises if no rejection
        if self.m_grid < 1:
            raise ValueError("m_grid must be positive")
        return self


def load_csv(
    path: str,
    response: str = "y",
    predictors: Optional[list[str]] = None,
    group: Optional[str] = None,
) -> Dataset:
    """Read a header CSV into a Dataset, prepending the intercept column.

    Group labels may be arbitrary strings; they are re-encoded to
    contiguous integers in order of first appearance.  Blank lines are
    skipped; a row with fewer or more cells than the header raises
    :class:`RaggedRow`.  Errors name rows by their line in the file.
    """
    # utf-8-sig: spreadsheets write a byte-order mark before the header
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} has no header row") from None
        header = [h.strip() for h in header]
        rows = [(reader.line_num, r) for r in reader
                if r and any(cell.strip() for cell in r)]
    if not rows:
        raise EmptyFile(f"{path} has no data rows")

    if predictors is None:
        predictors = [
            c for c in header if c != response and c != group
        ]
    for col in [response, *predictors] + ([group] if group else []):
        if col not in header:
            raise MissingColumn(f"column {col!r} not found in {path}")
    idx = {c: header.index(c) for c in header}

    def parse(cell: str, line: int, col: str) -> float:
        try:
            val = float(cell)
        except ValueError:
            raise NonNumericCell(
                f"cell {cell!r} at row {line}, column {col!r} is not numeric",
                row=line,
                column=col,
            ) from None
        if not np.isfinite(val):
            raise NonNumericCell(
                f"cell {cell!r} at row {line}, column {col!r} is not finite",
                row=line,
                column=col,
            )
        return val

    n = len(rows)
    y = np.empty(n)
    X = np.ones((n, 1 + len(predictors)))
    grp = None
    labels: dict[str, int] = {}
    if group:
        grp = np.empty(n, dtype=int)
    for i, (line, row) in enumerate(rows):
        if len(row) != len(header):
            raise RaggedRow(
                f"row {line} of {path} has {len(row)} cells but the header "
                f"has {len(header)}")
        y[i] = parse(row[idx[response]].strip(), line, response)
        for j, col in enumerate(predictors):
            X[i, 1 + j] = parse(row[idx[col]].strip(), line, col)
        if group:
            label = row[idx[group]].strip()
            grp[i] = labels.setdefault(label, len(labels))
    return Dataset(y=y, X=X, group=grp)


@dataclass(frozen=True)
class PlotArtifact:
    kind: str
    svg_path: str
    csv_path: str
    reject: bool
    p_value: float


def _write_artifact_csv(path: Path, result: DiagnosticResult) -> None:
    env = result.envelope
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("grid,observed,center,lower,upper\n")
        for g, o, c, lo, up in zip(
            result.grid, result.observed, env.center, env.lower, env.upper
        ):
            fh.write(
                f"{_fmt(g)},{_fmt(o)},{_fmt(c)},{_fmt(lo)},{_fmt(up)}\n"
            )


def run_diagnose(config: RunConfig) -> list[PlotArtifact]:
    """Fit the configured model and emit SVG + CSV per requested plot.

    On any failure every file written so far is removed, so an output
    directory never holds a partial run.
    """
    config.validate()
    d = load_csv(config.data, config.response, config.predictors, config.group)
    validate_dataset(d)
    kind = _MODEL_NAMES[config.model]
    if kind is ModelKind.GLMM_POISSON_RI and d.group is None:
        raise ValueError("model poisson-ri needs a group column")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    written: list[Path] = []
    artifacts: list[PlotArtifact] = []
    try:
        m = fit_model(d, kind)
        plot_kinds = tuple(_PLOT_NAMES[p] for p in config.plots)
        results, _ = diagnose_model(
            m,
            kinds=plot_kinds,
            B=config.B,
            alpha=config.alpha,
            seed=config.seed,
            m_grid=config.m_grid,
        )
        for pk in plot_kinds:
            res = results[pk]
            csv_path = out_dir / f"{pk.value}.csv"
            svg_path = out_dir / f"{pk.value}.svg"
            _write_artifact_csv(csv_path, res)
            written.append(csv_path)
            svg_path.write_text(
                render_diagnostic(res, title=f"{config.model}: {pk.value}",
                                  alpha=config.alpha),
                encoding="utf-8",
            )
            written.append(svg_path)
            artifacts.append(
                PlotArtifact(
                    kind=pk.value,
                    svg_path=str(svg_path),
                    csv_path=str(csv_path),
                    reject=res.reject,
                    p_value=res.p_value,
                )
            )
    except Exception:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return artifacts


# ---------------------------------------------------------------------
# power study
# ---------------------------------------------------------------------


_CELL_AXES = ("model", "violation", "n")
# the other ScenarioSpec fields, which a power-study config may set, each
# checked by the exact JSON type of its default (a bool is not an int)
_SETTING_TYPES = {
    f.name: _of_type(type(f.default)) for f in fields(ScenarioSpec)
    if f.name not in _CELL_AXES
}


def _value(raw: dict, key: str, convert, where: str):
    """``convert(raw[key])``, or ValueError naming a missing key or bad value."""
    if key not in raw:
        raise ValueError(f"{where} is missing {key!r}")
    try:
        return convert(raw[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"bad {key} {raw[key]!r} in {where}") from None


def _settings(raw: dict, where: str) -> dict:
    return {k: _value(raw, k, kind, where)
            for k, kind in _SETTING_TYPES.items() if k in raw}


def _specs_from_config(cfg: dict) -> list[ScenarioSpec]:
    """Scenarios of a power-study config; unset settings keep their defaults.

    A malformed config raises ValueError naming the bad value, field or
    missing key.
    """
    common = _settings(cfg, "config")
    if "scenarios" not in cfg:
        return scenario_grid(
            _value(cfg, "models", lambda ms: [_MODEL_NAMES[m] for m in ms],
                   "config"),
            _value(cfg, "violations",
                   lambda vs: [_VIOLATION_NAMES[v] for v in vs], "config"),
            _value(cfg, "sample_sizes", _list_of(int), "config"),
            **common,
        )
    if not isinstance(cfg["scenarios"], list):
        raise ValueError("config scenarios must be a list of objects")
    specs = []
    for i, cell in enumerate(cfg["scenarios"]):
        where = f"scenario {i}"
        if not isinstance(cell, dict):
            raise ValueError(f"{where} is not an object: {cell!r}")
        unknown = sorted(set(cell) - set(_CELL_AXES) - set(_SETTING_TYPES))
        if unknown:
            raise ValueError(f"unknown fields in {where}: {unknown}")
        specs += scenario_grid(
            [_value(cell, "model", _MODEL_NAMES.__getitem__, where)],
            [_value(cell, "violation", _VIOLATION_NAMES.__getitem__, where)],
            [_value(cell, "n", _of_type(int), where)],
            **{**common, **_settings(cell, where)},
        )
    return specs


def run_power_study(
    config: dict,
    out_dir: str,
    workers: Optional[int] = None,
) -> tuple[str, str]:
    """Run a scenario grid; write rates.csv and manifest.json.

    ``config`` either lists explicit ``scenarios`` cells or gives the
    cross product of ``models`` x ``violations`` x ``sample_sizes``.
    """
    if not isinstance(config, dict):
        raise ValueError(
            f"power-study config must be a JSON object, not {config!r}")
    cfg = dict(config)
    specs = _specs_from_config(cfg)
    table, results = run_grid(specs, workers=workers)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "rates.csv"
    manifest_path = out / "manifest.json"
    csv_path.write_text(table.to_csv(), encoding="utf-8")
    manifest = {
        "version": __version__,
        "config": cfg,
        "workers": resolve_workers(workers),
        "scenarios": [
            {
                "model": r.spec.model.value,
                "violation": r.spec.violation.value,
                "n": r.spec.n,
                "n_datasets": r.spec.n_datasets,
                "B": r.spec.B,
                "alpha": r.spec.alpha,
                "seed": r.spec.seed,
                "n_ok": r.n_ok,
                "n_failed": r.n_failed,
            }
            for r in results
        ],
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return str(csv_path), str(manifest_path)
