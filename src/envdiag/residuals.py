"""Residual constructors for the three model classes.

Standardized residuals for the linear model, deviance residuals (the
default for the diagnostics pipeline) and Pearson residuals for the
Poisson models.  For the random-intercept model, residuals are taken
against the conditional means ``exp(eta + u_g)`` at the posterior modes
of the group intercepts; with marginal means the group effects dominate
the residuals and drown out everything the diagnostics look for.  The
plot x-axis (the linear predictor) stays marginal either way.

``refit_many`` refits a batch of bootstrap responses and returns their
default residuals: in closed form for the linear model, and for the two
Poisson models after one batched existence check, through the lockstep
IRLS of the GLM or the lockstep random-intercept optimizer (reusing its
conditional modes).
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .data import EnvdiagError, FittedModel, ModelKind, RefitRows
from .fitters import (
    _gaussian_loglik,
    _group_modes,
    _lm_sigma,
    _log_omega_start,
    _no_mle_rows,
    _rows_eta,
    glm_rows,
    glmm_rows,
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
    h = hat_diagonals(m.dataset.X)
    if np.any(h >= _LEVERAGE_ONE):
        raise LeverageOne("a leverage is numerically 1")
    if m.sigma == 0.0:
        return np.zeros(m.n)
    raw = m.dataset.y - m.eta
    return raw / (m.sigma * np.sqrt(1.0 - h))


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
    d = m.dataset
    G = d.n_groups
    S = np.bincount(d.group, weights=d.y, minlength=G)
    E = np.bincount(d.group, weights=np.exp(m.eta), minlength=G)
    u, _ = _group_modes(S[None, :], E[None, :], np.array([m.omega]))
    return np.exp(m.eta + u[0, d.group])


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
    mask (R,) of rows that failed; row r is what :func:`residuals_for`
    and the log-likelihood of ``refit(m, Y[r])`` give, and a row that
    would raise :class:`~envdiag.data.EnvdiagError` there is marked
    failed here.  The linear model is refitted in closed form from one
    thin QR of the fixed design.  Poisson rows without a finite estimate
    are found by one batched existence check; the others are refitted
    in lockstep, the GLM by the IRLS of :func:`~envdiag.fitters.glm_rows`
    and the random-intercept model by the quasi-Newton of
    :func:`~envdiag.fitters.glmm_rows` from the parent's estimates, with
    residuals at the conditional modes found there.
    """
    Y = np.asarray(Y, dtype=float)
    if m.kind is ModelKind.LM:
        return _lm_rows(m, Y)
    return _poisson_rows(m, Y)


def _lm_rows(m: FittedModel, Y: np.ndarray) -> RefitRows:
    X = m.dataset.X
    R = Y.shape[0]
    E = np.zeros(Y.shape)
    q, _ = np.linalg.qr(X, mode="reduced")
    h = np.sum(q * q, axis=1)
    if np.any(h >= _LEVERAGE_ONE):     # LeverageOne on every row
        return E, np.zeros(R), np.ones(R, dtype=bool)
    fitted = (Y @ q) @ q.T
    raw = Y - fitted
    sigma = _lm_sigma(np.sum(raw * raw, axis=1), Y, X.shape[1])
    live = sigma > 0.0
    E[live] = raw[live] / (sigma[live, None] * np.sqrt(1.0 - h))
    return E, _gaussian_loglik(Y, fitted, sigma), np.zeros(R, dtype=bool)


def _poisson_rows(m: FittedModel, Y: np.ndarray) -> RefitRows:
    d = m.dataset
    R = Y.shape[0]
    E = np.zeros(Y.shape)
    logliks = np.zeros(R)
    failed = np.zeros(R, dtype=bool)
    failed[list(_no_mle_rows(d.X, Y))] = True
    live = np.flatnonzero(~failed)
    if m.kind is ModelKind.GLMM_POISSON_RI:
        x0 = np.append(m.beta, _log_omega_start(m.omega))
        fits = glmm_rows(d.X, d.group, Y[live], np.tile(x0, (live.size, 1)))
        ok = ~fits.failed
        eta = (_rows_eta(d.X, fits.params[ok, :-1])
               + fits.modes[ok][:, d.group])    # at the conditional modes
    else:
        fits = glm_rows(d.X, Y[live])
        ok = ~fits.failed
        eta = fits.eta[ok]
    failed[live[~ok]] = True
    live = live[ok]
    E[live] = _deviance_residuals(Y[live], np.exp(eta))
    logliks[live] = fits.loglik[ok]
    return E, logliks, failed
