"""Bootstrap construction of global envelopes around residual plots.

For a fitted model the pipeline is: simulate new responses from the
fitted parameters, refit, recompute residuals, reduce them to the plot's
functional, and repeat to build an ensemble for the envelope engine.
The B-1 draws are refitted as one batch when the model capability
offers ``refit_many`` (the built-in classes do), one at a time
otherwise; either way each draw has its own random stream, and failed
refits are replaced by spare draws in a fixed order.
Four functionals are provided: sorted residuals against normal quantiles
(QQ), sorted residual probabilities against uniform positions (PP), and
smoothers of residuals or absolute residuals against the observed linear
predictors (residuals-vs-fits, scale-location).  Smoother functionals
keep the linear predictors fixed at their observed values; only the
residuals are resampled.

A maximized-log-likelihood goodness-of-fit test against the same
simulated null distribution is included as a baseline comparator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .data import EnvdiagError, FittedModel, ModelCapability, linear_predictors
from .envelope import (
    EnvelopeMode,
    FunctionEnsemble,
    GlobalEnvelope,
    global_envelope,
)
from .fitters import refit, simulate_response
from .residuals import refit_many, residuals_for
from .smoother import PSplineDesign

DEFAULT_B = 199
DEFAULT_ALPHA = 0.05
DEFAULT_GRID = 64

# fraction of B whose refit failures may be patched by fresh simulations
_MAX_FAILURE_FRACTION = 0.10


class TooManyRefitFailures(EnvdiagError):
    """More than 10% of bootstrap refits failed; the model is too fragile."""


class PlotKind(enum.Enum):
    QQ = "qq"
    PP = "pp"
    RES_VS_FITS = "res_vs_fits"
    SCALE_LOCATION = "scale_location"


@dataclass(frozen=True, eq=False)
class DiagnosticResult:
    """One diagnostic plot's envelope plus everything needed to draw it."""

    kind: PlotKind
    grid: np.ndarray
    observed: np.ndarray
    envelope: GlobalEnvelope
    reject: bool
    p_value: float
    B: int
    seed: int
    points: Optional[np.ndarray] = None  # (n, 2) scatter overlay


class GofResult(NamedTuple):
    p_value: float
    reject: bool


def default_capability() -> ModelCapability:
    """The built-in model classes' simulate / refit / residuals, with the
    batched refit."""
    return ModelCapability(
        simulate=simulate_response,
        refit=refit,
        residuals=residuals_for,
        refit_many=refit_many,
    )


# ---------------------------------------------------------------------
# plot functionals
# ---------------------------------------------------------------------


def pp_grid(n: int) -> np.ndarray:
    """Uniform plotting positions (i - 0.5) / n."""
    if n < 3:
        raise ValueError("need n >= 3")
    return (np.arange(1, n + 1) - 0.5) / n


def qq_grid(n: int) -> np.ndarray:
    """Theoretical normal quantiles Phi^-1((i - 0.5) / n); depends on n only."""
    return ndtri(pp_grid(n))


def _plot_functional(kind: PlotKind, E: np.ndarray, eta,
                     m_grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid, values and scatter points of one plot kind; its one definition.

    Row r of the values is the plot of residual row ``E[r]``; the points
    overlay row 0.  Smoother kinds use ``m_grid`` equispaced points
    spanning the linear predictors ``eta``; sorted kinds ignore both.
    """
    if kind in (PlotKind.QQ, PlotKind.PP):
        grid = qq_grid(E.shape[1]) if kind is PlotKind.QQ else pp_grid(E.shape[1])
        values = np.sort(E, axis=1)
        if kind is PlotKind.PP:
            values = ndtr(values)
        return grid, values, np.column_stack([grid, values[0]])
    if kind is PlotKind.SCALE_LOCATION:
        E = np.abs(E)
    grid = np.linspace(np.min(eta), np.max(eta), m_grid)
    values = PSplineDesign(eta).smooth_matrix(E, grid)
    return grid, values, np.column_stack([eta, E[0]])


def _single_row(kind: PlotKind, e, eta=None,
                m_grid: int = DEFAULT_GRID) -> tuple[np.ndarray, np.ndarray]:
    E = np.asarray(e, dtype=float)[None, :]
    grid, values, _ = _plot_functional(kind, E, eta, m_grid)
    return grid, values[0]


def qq_function(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted residuals over their theoretical normal quantiles."""
    return _single_row(PlotKind.QQ, e)


def pp_function(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted residual probabilities Phi(e) over uniform positions.

    Mapping to the unit interval compresses the tails, which is exactly
    why the quantile-scale plot tends to detect more; this variant exists
    for comparison studies.
    """
    return _single_row(PlotKind.PP, e)


def resfit_function(
    eta: np.ndarray, e: np.ndarray, m_grid: int = DEFAULT_GRID
) -> tuple[np.ndarray, np.ndarray]:
    """Smoother of residuals against linear predictors, on an even grid."""
    return _single_row(PlotKind.RES_VS_FITS, e, eta, m_grid)


def scalelocation_function(
    eta: np.ndarray, e: np.ndarray, m_grid: int = DEFAULT_GRID
) -> tuple[np.ndarray, np.ndarray]:
    """Smoother of absolute residuals against linear predictors."""
    return _single_row(PlotKind.SCALE_LOCATION, e, eta, m_grid)


# ---------------------------------------------------------------------
# bootstrap pipeline
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BootstrapReplicates:
    """Residual vectors and maximized log-likelihoods of B-1 refits."""

    residuals: np.ndarray    # (B-1, n)
    logliks: np.ndarray      # (B-1,)
    n_failed: int


def simulate_replicates(
    m: FittedModel,
    B: int,
    seed: int,
    capability: Optional[ModelCapability] = None,
) -> BootstrapReplicates:
    """Run the simulate -> refit -> residuals pipeline B-1 times.

    Replicate streams are derived deterministically from (seed, index),
    so results do not depend on execution order.  The first B-1 draws are
    refitted as one batch (:meth:`ModelCapability.refit_rows`); a failed
    refit (for example a simulated response on the likelihood boundary)
    is replaced by the next spare draws, in order, so the accepted rows
    and their order are those of refitting the draws one by one and
    skipping failures.  More than 10% of B failures aborts.
    """
    if B < 19:
        raise ValueError("need B >= 19")
    cap = capability or default_capability()
    n_needed = B - 1
    max_extra = int(_MAX_FAILURE_FRACTION * B)
    children = np.random.SeedSequence(seed).spawn(n_needed + max_extra)

    resid_rows, loglik_rows = [], []
    done = failed = start = 0
    while done < n_needed and start < len(children):
        batch = children[start:start + n_needed - done]
        start += len(batch)
        Y = np.array([cap.simulate(m, np.random.default_rng(c)) for c in batch])
        E, logliks, bad = cap.refit_rows(m, Y)
        resid_rows.append(E[~bad])
        loglik_rows.append(logliks[~bad])
        done += int(np.count_nonzero(~bad))
        failed += int(np.count_nonzero(bad))
    if done < n_needed:
        raise TooManyRefitFailures(
            f"{failed} of {n_needed + max_extra} bootstrap refits failed"
        )
    return BootstrapReplicates(residuals=np.concatenate(resid_rows),
                               logliks=np.concatenate(loglik_rows),
                               n_failed=failed)


def plot_envelope(
    m: FittedModel,
    kind: PlotKind,
    B: int = DEFAULT_B,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    m_grid: int = DEFAULT_GRID,
    capability: Optional[ModelCapability] = None,
) -> DiagnosticResult:
    """Global simulation envelope around one diagnostic plot.

    Row one of the ensemble is the observed functional; the rest come
    from the parametric bootstrap.  Smoother functionals are evaluated
    against the observed linear predictors for every replicate.
    """
    results, _ = diagnose_model(m, kinds=(kind,), B=B, alpha=alpha, seed=seed,
                                m_grid=m_grid, capability=capability)
    return results[kind]


def loglik_gof_test(
    m: FittedModel,
    B: int = DEFAULT_B,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
    capability: Optional[ModelCapability] = None,
) -> GofResult:
    """Goodness-of-fit from the maximized log-likelihood's null distribution.

    Each refit's maximized log-likelihood on its own simulated data forms
    the reference; an observed value in the low tail indicates lack of
    fit.  ``p = (1 + #{loglik_b <= loglik_obs}) / B``.
    """
    _, gof = diagnose_model(m, kinds=(), B=B, alpha=alpha, seed=seed,
                            capability=capability, with_gof=True)
    return gof


def _gof_from_logliks(observed: float, null_logliks: np.ndarray,
                      alpha: float) -> GofResult:
    B = null_logliks.size + 1
    p = (1 + int(np.count_nonzero(null_logliks <= observed))) / B
    return GofResult(p_value=p, reject=bool(p <= alpha))


def diagnose_model(
    m: FittedModel,
    kinds: tuple[PlotKind, ...] = tuple(PlotKind),
    B: int = DEFAULT_B,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    m_grid: int = DEFAULT_GRID,
    capability: Optional[ModelCapability] = None,
    with_gof: bool = False,
) -> tuple[dict[PlotKind, DiagnosticResult], Optional[GofResult]]:
    """All requested diagnostics from a single set of bootstrap replicates.

    Every band is the Studentized MAD global envelope.  Sharing the
    replicate residuals across plot kinds (and the goodness-of-fit
    baseline) gives results identical to calling :func:`plot_envelope`
    per kind with the same seed, at a fraction of the cost.
    """
    cap = capability or default_capability()
    # first, so a model whose residuals are undefined fails with the
    # reason rather than through B refits that all fail the same way
    observed = cap.residuals(m)
    reps = simulate_replicates(m, B, seed, cap)
    results = {}
    if kinds:
        # row 0 is the observed residual vector, the rest the replicates
        E = np.vstack([observed, reps.residuals])
        eta = linear_predictors(m)
        for kind in kinds:
            grid, values, points = _plot_functional(kind, E, eta, m_grid)
            ensemble = FunctionEnsemble(grid=grid, values=values)
            env = global_envelope(ensemble, alpha,
                                  EnvelopeMode.STUDENTIZED_MAD)
            results[kind] = DiagnosticResult(
                kind=kind,
                grid=ensemble.grid,
                observed=ensemble.values[0],
                envelope=env,
                reject=env.observed_outside,
                p_value=env.p_value,
                B=E.shape[0],
                seed=seed,
                points=points,
            )
    gof = _gof_from_logliks(m.loglik, reps.logliks, alpha) if with_gof else None
    return results, gof
