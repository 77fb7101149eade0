"""Residual constructors for the three model classes.

Standardized residuals for the linear model, deviance residuals (the
default for the diagnostics pipeline) and Pearson residuals for the
Poisson models.  For the random-intercept model, residuals are taken
against the conditional means ``exp(eta + u_g)`` at the posterior modes
of the group intercepts; with marginal means the group effects dominate
the residuals and drown out everything the diagnostics look for.  The
plot x-axis (the linear predictor) stays marginal either way.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .data import EnvdiagError, FittedModel, ModelKind
from .fitters import _group_modes


class LeverageOne(EnvdiagError):
    """A hat-matrix diagonal is numerically one; the residual is undefined."""


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
    if np.any(h >= 1.0 - 1e-12):
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
    u, _ = _group_modes(S, E, m.omega)
    return np.exp(m.eta + u[d.group])


def deviance_residuals(m: FittedModel) -> np.ndarray:
    """sign(y - mu) * sqrt(2 [y log(y/mu) - (y - mu)]), with 0 log 0 = 0."""
    y = m.dataset.y
    mu = fitted_means(m)
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
