"""Residual constructors for the three model classes.

Standardized residuals for the linear model, deviance residuals (the
default for the diagnostics pipeline) and Pearson residuals for the
Poisson models.  For the random-intercept model, residuals are taken
against the conditional means ``exp(eta + u_g)`` at the posterior modes
of the group intercepts; with marginal means the group effects dominate
the residuals and drown out everything the diagnostics look for.  The
plot x-axis (the linear predictor) stays marginal either way.

``refit_many`` refits a batch of bootstrap responses by
:func:`~envdiag.fitters.fit_rows` and takes their default residuals by
the one rule that ``residuals_for`` also runs, so row r is bit for bit
``residuals_for(refit(m, Y[r]))``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .data import Dataset, EnvdiagError, FittedModel, ModelKind, RefitRows
from .fitters import _group_modes, _group_sums, fit_rows


class LeverageOne(EnvdiagError):
    """A hat-matrix diagonal is numerically one; the residual is undefined."""


# A hat-matrix diagonal at or above this is numerically one.
_LEVERAGE_ONE = 1.0 - 1e-12


def hat_diagonals(X: np.ndarray) -> np.ndarray:
    """Diagonal of the hat matrix, from a thin QR factorization."""
    q, _ = np.linalg.qr(X, mode="reduced")
    return np.sum(q * q, axis=1)


def standardized_residuals(m: FittedModel) -> np.ndarray:
    """Internally studentized residuals (y - eta) / (sigma sqrt(1 - h)).

    A degenerate fit (zero residual variance) returns exact zeros.
    """
    if m.kind is not ModelKind.LM:
        raise ValueError("standardized residuals are defined for LM fits only")
    return residuals_for(m)


def fitted_means(m: FittedModel) -> np.ndarray:
    """Fitted Poisson means used for residuals.

    ``exp(eta)`` for the GLM; for the random-intercept model the group
    intercepts are set to their conditional posterior modes given the
    data, so ``exp(eta + u_g)``.
    """
    if m.kind not in (ModelKind.GLM_POISSON, ModelKind.GLMM_POISSON_RI):
        raise ValueError("Poisson residuals require a Poisson model kind")
    return _poisson_means(m.dataset.group, m.dataset.y[None, :],
                          m.eta[None, :], np.array([_scale(m)]))[0]


def _scale(m: FittedModel) -> float:
    """sigma of an ``lm`` fit, omega of a ``poisson-ri`` one, else 0: the
    scale of :class:`~envdiag.fitters.Fits`."""
    return m.sigma if m.kind is ModelKind.LM else m.omega or 0.0


def _poisson_means(group: np.ndarray, Y: np.ndarray, eta: np.ndarray,
                   omega: np.ndarray) -> np.ndarray:
    """Fitted means of every row of ``Y`` (R, n) at linear predictors
    ``eta`` (R, n): ``exp(eta)`` if the random-intercept sd ``omega``
    (R,) is 0 on every row (a GLM), else ``exp(eta + u_g)`` with ``u_g``
    at its conditional mode given ``eta`` and ``omega``."""
    if not omega.any():
        return np.exp(eta)
    G = int(group.max()) + 1
    S = _group_sums(group, G, Y)
    E = _group_sums(group, G, np.exp(eta))
    u, _ = _group_modes(S, E, omega)
    return np.exp(eta + u[:, group])


def deviance_residuals(m: FittedModel) -> np.ndarray:
    """sign(y - mu) * sqrt(2 [y log(y/mu) - (y - mu)]), with 0 log 0 = 0."""
    return _deviance_residuals(m.dataset.y, fitted_means(m))


def _deviance_residuals(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    dev = 2.0 * (xlogy(y, y / mu) - (y - mu))
    # tiny negative values from cancellation at y == mu
    dev = np.maximum(dev, 0.0)
    return np.sign(y - mu) * np.sqrt(dev)


def pearson_residuals(m: FittedModel) -> np.ndarray:
    """(y - mu) / sqrt(mu)."""
    y = m.dataset.y
    mu = fitted_means(m)
    return (y - mu) / np.sqrt(mu)


def residuals_for(m: FittedModel) -> np.ndarray:
    """Default residual choice per model class: standardized residuals
    for the linear model, deviance residuals for both Poisson models.

    The one-row case of the rule :func:`refit_many` applies to every
    refit.
    """
    return _default_residuals(m.kind, m.dataset, m.dataset.y[None, :],
                              m.eta[None, :], np.array([_scale(m)]))[0]


def _default_residuals(kind: ModelKind, d: Dataset, Y: np.ndarray,
                       eta: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Default residuals of every row of ``Y`` (R, n) fitted on ``d`` with
    linear predictors ``eta`` (R, n) and scales (R,), as in
    :class:`~envdiag.fitters.Fits`: deviance residuals at the fitted
    means for the Poisson models; for ``lm``, ``(y - eta) / (sigma
    sqrt(1 - h))``, 0 where sigma is 0, and :class:`LeverageOne` if some
    h is 1."""
    if kind is not ModelKind.LM:
        return _deviance_residuals(Y, _poisson_means(d.group, Y, eta, scale))
    h = hat_diagonals(d.X)
    if np.any(h >= _LEVERAGE_ONE):
        raise LeverageOne("a leverage is numerically 1")
    E = np.zeros(Y.shape)
    live = scale > 0.0
    E[live] = (Y - eta)[live] / (scale[live, None] * np.sqrt(1.0 - h))
    return E


def refit_many(m: FittedModel, Y: np.ndarray) -> RefitRows:
    """Refit every row of ``Y`` (R, n) and take its default residuals.

    Returns the residuals (R, n), maximized log-likelihoods (R,) and the
    mask (R,) of rows that failed, all zero on a failed row.  Row r is
    bit for bit what :func:`residuals_for` and the log-likelihood of
    ``refit(m, Y[r])`` give, whatever the other rows: the rows are
    fitted by :func:`~envdiag.fitters.fit_rows` from ``m``, and a row
    that would raise :class:`~envdiag.data.EnvdiagError` there, in the
    fit or in its residuals, is marked failed here.
    """
    Y = np.asarray(Y, dtype=float)
    d = m.dataset
    fits = fit_rows(m.kind, d, Y, start=m)
    failed = fits.failed
    live = np.flatnonzero(~failed)
    E = np.zeros(Y.shape)
    logliks = np.zeros(Y.shape[0])
    try:
        E[live] = _default_residuals(m.kind, d, Y[live], fits.eta[live],
                                     fits.scale[live])
    except LeverageOne:
        return E, logliks, np.ones(Y.shape[0], dtype=bool)
    logliks[live] = fits.loglik[live]
    return E, logliks, failed
