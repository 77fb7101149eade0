"""Bootstrap construction of global envelopes around residual plots.

:func:`diagnose_model` runs in two stages.  The bootstrap stage
(:func:`simulate_replicates`) uses the model's capability to simulate
new responses from the fitted parameters, refit and recompute residuals,
B-1 times.  The verdict stage (``_verdicts``) reads no model, only the
residual rows, the observed linear predictors and the log-likelihoods:
it reduces each row to each plot's functional and ranks the observed
curve in a global envelope.
All draws of a dataset, the B-1 and the spares, come from one random
stream in one batched ``simulate`` call; the B-1 are refitted as one
batch by the model capability's ``refit_many``, and failed refits are
replaced by the spare draws in a fixed order.
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

from .data import EnvdiagError, FittedModel, ModelCapability
from .envelope import (
    FunctionEnsemble,
    GlobalEnvelope,
    _critical_index,
    studentized_mad_envelope,
)
from .fitters import simulate_response
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
    points: Optional[np.ndarray] = None  # (n, 2) scatter overlay

    @property
    def reject(self) -> bool:
        """Whether the observed curve leaves the envelope."""
        return self.envelope.observed_outside

    @property
    def p_value(self) -> float:
        """The Monte Carlo p-value of the envelope test."""
        return self.envelope.p_value


class GofResult(NamedTuple):
    p_value: float
    reject: bool


def default_capability() -> ModelCapability:
    """The built-in model classes' simulate, batched refit and residuals."""
    return ModelCapability(
        simulate=simulate_response,
        refit_many=refit_many,
        residuals=residuals_for,
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


def _plot_functionals(kinds, E: np.ndarray, eta, m_grid: int
                      ) -> dict[PlotKind, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Grid, values and scatter points of each plot kind; their one definition.

    Row r of a kind's values is the plot of residual row ``E[r]``; the
    points overlay row 0.  Smoother kinds use ``m_grid`` equispaced points
    spanning the linear predictors ``eta`` and share one P-spline design:
    residuals-vs-fits smooths E and scale-location |E|, in one
    :meth:`~envdiag.smoother.PSplineDesign.smooth_matrix` call, which fits
    every row on its own.  Sorted kinds ignore ``eta`` and ``m_grid``.
    """
    out = {}
    smoothed = []
    ordered = None    # the rows of E sorted, shared by QQ and PP
    for kind in kinds:
        if kind in (PlotKind.QQ, PlotKind.PP):
            n = E.shape[1]
            grid = qq_grid(n) if kind is PlotKind.QQ else pp_grid(n)
            if ordered is None:
                ordered = np.sort(E, axis=1)
            values = ordered if kind is PlotKind.QQ else ndtr(ordered)
            out[kind] = grid, values, np.column_stack([grid, values[0]])
        elif kind not in smoothed:
            smoothed.append(kind)
    if smoothed:
        grid = np.linspace(np.min(eta), np.max(eta), m_grid)
        R = np.vstack([np.abs(E) if kind is PlotKind.SCALE_LOCATION else E
                       for kind in smoothed])
        values = PSplineDesign(eta).smooth_matrix(R, grid)
        k = len(smoothed)
        for kind, Rk, V in zip(smoothed, np.split(R, k), np.split(values, k)):
            out[kind] = grid, V, np.column_stack([eta, Rk[0]])
    return out


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

    One call ``capability.simulate(m, B - 1 + floor(0.1 B),
    np.random.default_rng(seed))`` draws every response up front, so row
    r is a function of (seed, B, r) alone: it does not depend on which
    rows fail, on batching or on the worker count.  The first B-1 rows
    are refitted as one batch (``capability.refit_many``); a failed
    refit (for example a simulated response on the likelihood boundary)
    is replaced by the spare rows B-1, B, ..., in order, so the accepted
    rows and their order are those of refitting the rows one by one and
    skipping failures.  More than 10% of B failures aborts.
    """
    _check_B(B)
    _check_seed(seed)
    cap = capability or default_capability()
    n_needed = B - 1
    n_drawn = n_needed + int(_MAX_FAILURE_FRACTION * B)
    Y_all = cap.simulate(m, n_drawn, np.random.default_rng(seed))

    resid_rows, loglik_rows = [], []
    done = failed = start = 0
    while done < n_needed and start < n_drawn:
        Y = Y_all[start:start + n_needed - done]
        start += len(Y)
        E, logliks, bad = cap.refit_many(m, Y)
        resid_rows.append(E[~bad])
        loglik_rows.append(logliks[~bad])
        done += int(np.count_nonzero(~bad))
        failed += int(np.count_nonzero(bad))
    if done < n_needed:
        raise TooManyRefitFailures(
            f"{failed} of {n_drawn} bootstrap refits failed"
        )
    return BootstrapReplicates(residuals=np.concatenate(resid_rows),
                               logliks=np.concatenate(loglik_rows),
                               n_failed=failed)


def _check_B(B: int) -> None:
    """The one rule on the number of curves: 19 or more."""
    if B < 19:
        raise ValueError(f"B must be at least 19, got {B}")


def _check_seed(seed: int) -> None:
    """The one rule on the bootstrap seed: non-negative."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _check_settings(B: int, alpha: float, seed: int, m_grid: int) -> None:
    """Raise unless ``B >= 19``, ``seed >= 0``, ``alpha`` allows a rejection
    among B rows (:class:`~envdiag.envelope.AlphaTooSmall` otherwise) and
    ``m_grid >= 1``, checked in that order."""
    _check_B(B)
    _check_seed(seed)
    _critical_index(alpha, B)
    if m_grid < 1:
        raise ValueError(f"m_grid must be positive, got {m_grid}")


def _gof_from_logliks(observed: float, null_logliks: np.ndarray,
                      alpha: float) -> GofResult:
    B = null_logliks.size + 1
    p = (1 + int(np.count_nonzero(null_logliks <= observed))) / B
    return GofResult(p_value=p, reject=bool(p <= alpha))


def _verdicts(E: np.ndarray, eta: np.ndarray, logliks: Optional[np.ndarray],
              kinds, alpha: float, m_grid: int
              ) -> tuple[dict[PlotKind, DiagnosticResult], Optional[GofResult]]:
    """The verdict stage: each plot's envelope test and the GOF baseline.

    ``E`` (B, n) holds the observed residuals in row 0 and the replicates
    below; ``eta`` the observed linear predictors (the smoothers' x);
    ``logliks`` the observed maximized log-likelihood followed by the
    refits' own, or None for no goodness-of-fit baseline.
    """
    plots = _plot_functionals(kinds, E, eta, m_grid)
    results = {}
    for kind in kinds:
        grid, values, points = plots[kind]
        ensemble = FunctionEnsemble(grid=grid, values=values)
        results[kind] = DiagnosticResult(
            kind=kind, grid=ensemble.grid, observed=ensemble.values[0],
            envelope=studentized_mad_envelope(ensemble, alpha), points=points)
    gof = (None if logliks is None
           else _gof_from_logliks(logliks[0], logliks[1:], alpha))
    return results, gof


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

    The settings are checked before any refit (:func:`_check_settings`),
    then the bootstrap stage runs and the verdict stage (:func:`_verdicts`)
    gives the results.  Every band is the Studentized MAD global envelope.
    Sharing the replicate residuals across plot kinds (and the
    goodness-of-fit baseline) gives results identical to a call per kind
    with the same seed, at a fraction of the cost.  The goodness-of-fit
    baseline ranks the observed maximized log-likelihood among the
    refits' own: an observed value in the low tail indicates lack of fit,
    ``p = (1 + #{loglik_b <= loglik_obs}) / B``.
    """
    _check_settings(B, alpha, seed, m_grid)
    cap = capability or default_capability()
    # first, so a model whose residuals are undefined fails with the
    # reason rather than through B refits that all fail the same way
    observed = cap.residuals(m)
    reps = simulate_replicates(m, B, seed, cap)
    logliks = np.append(m.loglik, reps.logliks) if with_gof else None
    return _verdicts(np.vstack([observed, reps.residuals]), m.eta, logliks,
                     kinds, alpha, m_grid)
