"""File formats and pipeline runners behind the command line.

CSV in (header row, numeric columns, optional group labels), SVG plus a
companion CSV out per diagnostic plot, and a rates CSV plus JSON manifest
for power studies.  Floats are serialized with 17 significant digits so
reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import csv
import enum
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, harness
from .data import (
    Dataset,
    EnvdiagError,
    FittedModel,
    ModelKind,
    validate_dataset,
)
from .diagnostics import (
    DEFAULT_ALPHA,
    DEFAULT_B,
    DEFAULT_GRID,
    DiagnosticResult,
    PlotKind,
    _check_settings,
    diagnose_model,
)
from .fitters import fit_model
from .harness import METHODS, ScenarioSpec, Violation, resolve_workers
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
    """Converter accepting only values of exactly ``types``."""
    def check(v):
        if type(v) not in types:
            raise TypeError(v)
        return v
    return check


def _list_of(t):
    """Converter accepting only a list of values of exactly ``t``."""
    def check(v):
        if type(v) is not list or any(type(x) is not t for x in v):
            raise TypeError(v)
        return v
    return check


def _fields(raw, types: dict, where: str, required=()) -> dict:
    """The fields of the JSON object ``raw``, each through its converter.

    ``types`` maps every field ``raw`` may hold to a converter, which
    raises KeyError or TypeError on a bad value (ValueError passes
    through with its own message).  ValueError names a top level that is
    not an object, the unknown fields, a missing ``required`` key or the
    bad value, in that order.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, not {raw!r}")
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ValueError(f"unknown fields in {where}: {unknown}")
    for key in required:
        if key not in raw:
            raise ValueError(f"{where} is missing {key!r}")
    out = {}
    for key, value in raw.items():
        try:
            out[key] = types[key](value)
        except (KeyError, TypeError):
            raise ValueError(f"bad {key} {value!r} in {where}") from None
    return out


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
    B: int = DEFAULT_B
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    m_grid: int = DEFAULT_GRID
    out: Optional[str] = None  # diagnose writes to envdiag_out if unset

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Config from JSON fields; ValueError names a bad or unknown field."""
        return cls(**_fields(raw, _RUN_FIELD_TYPES, "diagnose config"))

    def _check_fit_fields(self) -> None:
        if not self.data:
            raise ValueError("config must name a data file")
        if self.model not in _MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}")

    def validate(self) -> "RunConfig":
        """Check every field a diagnose run reads; ValueError names a bad one."""
        self._check_fit_fields()
        if not self.plots:
            raise ValueError("plots must name at least one plot kind")
        for i, p in enumerate(self.plots):
            if p not in _PLOT_NAMES:
                raise ValueError(f"unknown plot kind {p!r}")
            if p in self.plots[:i]:
                raise ValueError(f"plots names {p!r} twice")
        _check_settings(self.B, self.alpha, self.seed, self.m_grid)
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
    :class:`RaggedRow`.  A header that names a column twice, and a column
    given two roles (the response, a predictor twice, or the group),
    raise ``ValueError``.  Errors name rows by their line in the file.
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
    for i, col in enumerate(header):
        if col in header[:i]:
            raise ValueError(f"column {col!r} appears twice in the header "
                             f"of {path}")
    if not rows:
        raise EmptyFile(f"{path} has no data rows")

    if predictors is None:
        predictors = [
            c for c in header if c != response and c != group
        ]
    roles = ([("the response", response)]
             + [("a predictor", c) for c in predictors]
             + ([("the group", group)] if group else []))
    for i, (role, col) in enumerate(roles):
        for other, earlier in roles[:i]:
            if col == earlier:
                raise ValueError(
                    f"predictors name {col!r} twice" if role == other
                    else f"column {col!r} is both {other} and {role}")
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


def load_and_fit(config: RunConfig) -> FittedModel:
    """Read the configured CSV and fit the configured model to it: the fit
    of both ``envdiag fit`` and ``envdiag diagnose``.  Reads only the data
    and model fields of ``config``."""
    config._check_fit_fields()
    d = load_csv(config.data, config.response, config.predictors, config.group)
    validate_dataset(d)
    return fit_model(d, _MODEL_NAMES[config.model])


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
    m = load_and_fit(config)
    out_dir = Path("envdiag_out" if config.out is None else config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    written: list[Path] = []
    artifacts: list[PlotArtifact] = []
    try:
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
                render_diagnostic(res, title=f"{config.model}: {pk.value}"),
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
_CELL_TYPES = {
    "model": _MODEL_NAMES.__getitem__,
    "violation": _VIOLATION_NAMES.__getitem__,
    "n": _of_type(int),
    **_SETTING_TYPES,
}
# the cross-product keys, which exclude "scenarios"
_GRID_TYPES = {
    "models": lambda ms: [_MODEL_NAMES[m] for m in _list_of(str)(ms)],
    "violations": lambda vs: [_VIOLATION_NAMES[v] for v in _list_of(str)(vs)],
    "sample_sizes": _list_of(int),
}


def _cells(cells) -> list[dict]:
    """The fields of every ``scenarios`` cell."""
    if not isinstance(cells, list):
        raise ValueError("config scenarios must be a list of objects")
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ValueError(f"scenario {i} is not an object: {cell!r}")
    return [_fields(cell, _CELL_TYPES, f"scenario {i}", _CELL_AXES)
            for i, cell in enumerate(cells)]


_STUDY_TYPES = {**_SETTING_TYPES, **_GRID_TYPES, "scenarios": _cells}


def _specs_from_config(cfg: dict) -> list[ScenarioSpec]:
    """Scenarios of a power-study config; unset settings keep their defaults.

    A malformed config raises ValueError naming the bad value, field or
    missing key.
    """
    where = "power-study config"
    listed = isinstance(cfg, dict) and "scenarios" in cfg
    top = _fields(cfg, _STUDY_TYPES, where, () if listed else _GRID_TYPES)
    settings = {k: v for k, v in top.items() if k in _SETTING_TYPES}
    if not listed:
        return [ScenarioSpec(model=m, violation=v, n=n, **settings)
                for m in top["models"] for v in top["violations"]
                for n in top["sample_sizes"]]
    grid = [k for k in _GRID_TYPES if k in top]
    if grid:
        raise ValueError(f"{where} gives both 'scenarios' and {grid}")
    return [ScenarioSpec(**{**settings, **cell}) for cell in top["scenarios"]]


def rates_csv(results: list[harness.ScenarioResult]) -> str:
    """The ``rates.csv`` text: one row per scenario and method."""
    lines = ["model,violation,n,method,rate,se,n_datasets,B,seed"]
    for r in results:
        s = r.spec
        lines += [f"{s.model.value},{s.violation.value},{s.n},{method},"
                  f"{_fmt(r.rates[method])},{_fmt(r.ses[method])},"
                  f"{s.n_datasets},{s.B},{s.seed}" for method in METHODS]
    return "\n".join(lines) + "\n"


def _scenario_record(r: harness.ScenarioResult) -> dict:
    """A scenario's manifest entry: every ScenarioSpec field (enums by
    their values) plus the counts of datasets that ran and failed."""
    record = {}
    for f in fields(ScenarioSpec):
        value = getattr(r.spec, f.name)
        record[f.name] = value.value if isinstance(value, enum.Enum) else value
    return {**record, "n_ok": r.n_ok, "n_failed": r.n_failed}


def run_power_study(
    config: dict,
    out_dir: str,
    workers: Optional[int] = None,
) -> tuple[str, str]:
    """Run a scenario grid; write rates.csv and manifest.json.

    ``config`` either lists explicit ``scenarios`` cells or gives the
    cross product of ``models`` x ``violations`` x ``sample_sizes``.
    """
    specs = _specs_from_config(config)
    # through the module, so that a rebinding of harness.run_scenario holds
    results = [harness.run_scenario(spec, workers=workers) for spec in specs]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "rates.csv"
    manifest_path = out / "manifest.json"
    csv_path.write_text(rates_csv(results), encoding="utf-8")
    manifest = {
        "version": __version__,
        "config": config,
        "workers": resolve_workers(workers),
        "scenarios": [_scenario_record(r) for r in results],
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return str(csv_path), str(manifest_path)
