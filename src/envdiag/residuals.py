"""Residual constructors for the three model classes.

Standardized residuals for the linear model, deviance residuals (the
default for the diagnostics pipeline) and Pearson residuals for the
Poisson models.  For the random-intercept model, residuals are taken
against the conditional means ``exp(eta + u_g)`` at the posterior modes
of the group intercepts; with marginal means the group effects dominate
the residuals and drown out everything the diagnostics look for.  The
plot x-axis (the linear predictor) stays marginal either way.

``refit_many`` refits a batch of bootstrap responses by each class's
batch kernel and takes their default residuals by the same rules as a
single fit, so row r is bit for bit ``residuals_for(refit(m, Y[r]))``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .data import EnvdiagError, FittedModel, ModelKind, RefitRows
from .fitters import (
    _group_modes,
    _group_sums,
    _log_omega_start,
    _no_mle_rows,
    _rows_eta,
    glm_rows,
    glmm_rows,
    lm_rows,
)


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
    raw = (m.dataset.y - m.eta)[None, :]
    return _studentized(raw, np.array([m.sigma]), m.dataset.X)[0]


def _studentized(raw: np.ndarray, sigma: np.ndarray,
                 X: np.ndarray) -> np.ndarray:
    """Rows of ``raw`` (R, n) over ``sigma sqrt(1 - h)``, ``sigma`` (R,);
    zeros where ``sigma == 0``, :class:`LeverageOne` where h is 1."""
    h = hat_diagonals(X)
    if np.any(h >= _LEVERAGE_ONE):
        raise LeverageOne("a leverage is numerically 1")
    E = np.zeros(raw.shape)
    live = sigma > 0.0
    E[live] = raw[live] / (sigma[live, None] * np.sqrt(1.0 - h))
    return E


def fitted_means(m: FittedModel) -> np.ndarray:
    """Fitted Poisson means used for residuals.

    ``exp(eta)`` for the GLM; for the random-intercept model the group
    intercepts are set to their conditional posterior modes given the
    data, so ``exp(eta + u_g)``.
    """
    if m.kind not in (ModelKind.GLM_POISSON, ModelKind.GLMM_POISSON_RI):
        raise ValueError("Poisson residuals require a Poisson model kind")
    if m.kind is ModelKind.GLM_POISSON or m.omega == 0.0:
        return np.exp(m.eta)
    return _conditional_means(m.dataset.group, m.dataset.y[None, :],
                              m.eta[None, :], np.array([m.omega]))[0]


def _conditional_means(group: np.ndarray, Y: np.ndarray, eta: np.ndarray,
                       omega: np.ndarray) -> np.ndarray:
    """``exp(eta + u_g)`` of every row of ``Y`` (R, n), with ``u_g`` at
    its conditional mode given ``eta`` (R, n) and ``omega`` (R,)."""
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
    """Default residual choice per model class.

    Standardized residuals for the linear model, deviance residuals for
    both Poisson models.
    """
    if m.kind is ModelKind.LM:
        return standardized_residuals(m)
    return deviance_residuals(m)


def refit_many(m: FittedModel, Y: np.ndarray) -> RefitRows:
    """Refit every row of ``Y`` (R, n) and take its default residuals.

    Returns the residuals (R, n), maximized log-likelihoods (R,) and the
    mask (R,) of rows that failed.  Row r is bit for bit what
    :func:`residuals_for` and the log-likelihood of ``refit(m, Y[r])``
    give, whatever the other rows; a row that would raise
    :class:`~envdiag.data.EnvdiagError` there is marked failed here.
    Rows are refitted by :func:`~envdiag.fitters.lm_rows`, or, after one
    batched existence check, by :func:`~envdiag.fitters.glm_rows` or
    :func:`~envdiag.fitters.glmm_rows` from the parent's estimates.
    """
    Y = np.asarray(Y, dtype=float)
    R = Y.shape[0]
    d = m.dataset
    if m.kind is ModelKind.LM:
        _, eta, sigma, logliks = lm_rows(d.X, Y)
        try:
            E = _studentized(Y - eta, sigma, d.X)
        except LeverageOne:
            return np.zeros(Y.shape), np.zeros(R), np.ones(R, dtype=bool)
        return E, logliks, np.zeros(R, dtype=bool)

    E = np.zeros(Y.shape)
    logliks = np.zeros(R)
    failed = np.zeros(R, dtype=bool)
    failed[list(_no_mle_rows(d.X, Y))] = True
    live = np.flatnonzero(~failed)
    if m.kind is ModelKind.GLMM_POISSON_RI:
        x0 = np.append(m.beta, _log_omega_start(m.omega))
        fits = glmm_rows(d.X, d.group, Y[live], np.tile(x0, (live.size, 1)))
        ok = ~fits.failed
        params = fits.params[ok]
        mu = _conditional_means(d.group, Y[live[ok]],
                                _rows_eta(d.X, params[:, :-1]),
                                np.exp(params[:, -1]))
    else:
        fits = glm_rows(d.X, Y[live])
        ok = ~fits.failed
        mu = np.exp(fits.eta[ok])
    failed[live[~ok]] = True
    live = live[ok]
    E[live] = _deviance_residuals(Y[live], mu)
    logliks[live] = fits.loglik[ok]
    return E, logliks, failed
