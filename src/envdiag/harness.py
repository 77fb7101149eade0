"""Power-study harness: simulate, fit, diagnose, tabulate rejection rates.

Nine scenarios (three model classes crossed with three data
configurations) at configurable sample sizes.  Every dataset gets all
five methods (four plot envelopes plus the log-likelihood
goodness-of-fit baseline) from a single shared set of bootstrap
replicates.  Per-dataset seeds are derived from (seed, dataset index),
so rates are reproducible bit-exactly and independent of worker count.
"""

from __future__ import annotations

import enum
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .data import Dataset, EnvdiagError, ModelKind, validate_dataset
from .diagnostics import PlotKind, _check_settings, diagnose_model
from .fitters import fit_model

logger = logging.getLogger(__name__)

METHODS = ("qq", "pp", "res_vs_fits", "scale_location", "loglik_gof")

_N_GROUPS = 5  # random intercepts cycle through five values


class Violation(enum.Enum):
    NULL_OK = "null"
    MIXTURE = "mixture"
    QUADRATIC = "quadratic"


# simulation truth per configuration: (beta0, beta1, beta2)
_COEFS = {
    Violation.NULL_OK: (-2.0, 4.0, 0.0),
    Violation.MIXTURE: (-2.0, 4.0, 0.0),
    Violation.QUADRATIC: (1.0, 4.0, -4.0),
}
_SIGMA = 0.25
_OMEGA = 1.0
_MIX_PROB = 0.1
_MIX_SCALE = 4.0


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the simulation grid."""

    model: ModelKind
    violation: Violation
    n: int
    n_datasets: int = 200
    B: int = 99
    alpha: float = 0.05
    seed: int = 0
    x_design: str = "equispaced"   # or "uniform"
    m_grid: int = 64

    def __post_init__(self):
        if self.n_datasets < 1:
            raise ValueError("n_datasets must be positive")
        if self.model is ModelKind.GLMM_POISSON_RI and self.n < 10:
            raise ValueError("random-intercept scenarios need n >= 10")
        if self.n < 3:
            raise ValueError("n must be at least 3")
        if self.x_design not in ("equispaced", "uniform"):
            raise ValueError(f"unknown x_design {self.x_design!r}")
        _check_settings(self.B, self.alpha, self.seed, self.m_grid)


def generate_dataset(s: ScenarioSpec, stream: np.random.Generator) -> Dataset:
    """Draw one dataset for the scenario.

    The linear predictor is ``beta0 + 4 x + beta2 x^2`` on x equispaced in
    (0, 1) (or uniform draws, sorted); the fitted design is always
    ``[1, x]``, so the quadratic configuration misspecifies the mean on
    purpose.  The mixture configuration inflates a random tenth of the
    responses by a factor-4 scale (sd for the linear model, rate for the
    Poisson models), leaving the marginal mean model correct.
    """
    n = s.n
    if s.x_design == "uniform":
        x = np.sort(stream.uniform(0.0, 1.0, size=n))
    else:
        x = (np.arange(1, n + 1) - 0.5) / n
    b0, b1, b2 = _COEFS[s.violation]
    eta = b0 + b1 * x + b2 * x * x

    group = None
    if s.model is ModelKind.GLMM_POISSON_RI:
        group = np.arange(n) % _N_GROUPS
        eps = stream.normal(0.0, _OMEGA, size=_N_GROUPS)
        eta = eta + eps[group]

    if s.violation is Violation.MIXTURE:
        inflate = stream.random(n) < _MIX_PROB
    else:
        inflate = np.zeros(n, dtype=bool)

    if s.model is ModelKind.LM:
        sd = _SIGMA * np.where(inflate, _MIX_SCALE, 1.0)
        y = eta + sd * stream.standard_normal(n)
    else:
        rate = np.exp(eta) * np.where(inflate, _MIX_SCALE, 1.0)
        y = stream.poisson(rate).astype(float)

    X = np.column_stack([np.ones(n), x])
    return Dataset(y=y, X=X, group=group)


@dataclass(frozen=True)
class PowerRow:
    model: str
    violation: str
    n: int
    method: str
    rate: float
    se: float
    n_datasets: int
    B: int
    seed: int


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    rates: dict[str, float]
    ses: dict[str, float]
    n_ok: int
    n_failed: int

    def rows(self) -> list[PowerRow]:
        return [
            PowerRow(
                model=self.spec.model.value,
                violation=self.spec.violation.value,
                n=self.spec.n,
                method=method,
                rate=self.rates[method],
                se=self.ses[method],
                n_datasets=self.spec.n_datasets,
                B=self.spec.B,
                seed=self.spec.seed,
            )
            for method in METHODS
        ]


@dataclass
class PowerTable:
    rows: list[PowerRow] = field(default_factory=list)

    CSV_HEADER = "model,violation,n,method,rate,se,n_datasets,B,seed"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.model},{r.violation},{r.n},{r.method},"
                f"{r.rate:.17g},{r.se:.17g},{r.n_datasets},{r.B},{r.seed}"
            )
        return "\n".join(lines) + "\n"


def _dataset_seeds(spec: ScenarioSpec, ds_idx: int) -> tuple:
    data_ss = np.random.SeedSequence((spec.seed, ds_idx, 0))
    boot_seed = int(
        np.random.SeedSequence((spec.seed, ds_idx, 1)).generate_state(
            1, dtype=np.uint64
        )[0]
    )
    return data_ss, boot_seed


def _run_one_dataset(spec: ScenarioSpec, ds_idx: int) -> Optional[dict[str, bool]]:
    """Rejection flags for all five methods on one dataset, or None."""
    data_ss, boot_seed = _dataset_seeds(spec, ds_idx)
    stream = np.random.default_rng(data_ss)
    d = generate_dataset(spec, stream)
    try:
        validate_dataset(d)
        m = fit_model(d, spec.model)
        results, gof = diagnose_model(
            m,
            kinds=tuple(PlotKind),
            B=spec.B,
            alpha=spec.alpha,
            seed=boot_seed,
            m_grid=spec.m_grid,
            with_gof=True,
        )
    except EnvdiagError as exc:
        logger.warning("dataset %d failed: %s", ds_idx, exc)
        return None
    out = {kind.value: results[kind].reject for kind in PlotKind}
    out["loglik_gof"] = gof.reject
    return out


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument (at least 1), else ENVDIAG_THREADS,
    else 1.  Raises ValueError, naming the variable, unless
    ENVDIAG_THREADS is an integer >= 1."""
    if workers is not None:
        return max(1, workers)
    value = os.environ.get("ENVDIAG_THREADS", "1")
    if not (value.strip().isdecimal() and int(value) >= 1):
        raise ValueError(
            f"ENVDIAG_THREADS must be an integer >= 1, got {value!r}")
    return int(value)


def run_scenario(spec: ScenarioSpec,
                 workers: Optional[int] = None) -> ScenarioResult:
    """Rejection rate of every method over the scenario's datasets.

    Failed datasets (either the observed fit or too many bootstrap
    refits) are logged and excluded from the denominator.  Aggregation
    is over per-dataset flags in dataset order, so any worker count
    produces the same result.
    """
    n_workers = resolve_workers(workers)
    job = partial(_run_one_dataset, spec)
    indices = range(spec.n_datasets)
    if n_workers > 1:
        chunk = max(1, spec.n_datasets // (4 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(job, indices, chunksize=chunk))
    else:
        outcomes = [job(i) for i in indices]

    counts = {method: 0 for method in METHODS}
    n_ok = 0
    for outcome in outcomes:
        if outcome is None:
            continue
        n_ok += 1
        for method in METHODS:
            counts[method] += int(outcome[method])
    if n_ok == 0:
        raise EnvdiagError("every dataset in the scenario failed")
    rates = {method: counts[method] / n_ok for method in METHODS}
    ses = {
        method: float(np.sqrt(r * (1.0 - r) / n_ok))
        for method, r in rates.items()
    }
    return ScenarioResult(
        spec=spec,
        rates=rates,
        ses=ses,
        n_ok=n_ok,
        n_failed=spec.n_datasets - n_ok,
    )


def run_grid(specs: list[ScenarioSpec],
             workers: Optional[int] = None) -> tuple[PowerTable, list[ScenarioResult]]:
    """Run every scenario and stack the rows into one table."""
    table = PowerTable()
    results = []
    for spec in specs:
        res = run_scenario(spec, workers=workers)
        results.append(res)
        table.rows.extend(res.rows())
    return table, results

