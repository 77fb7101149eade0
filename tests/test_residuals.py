import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envdiag import (
    Dataset,
    FittedModel,
    ModelKind,
    fit_model,
    hat_diagonals,
    residuals_for,
)
from envdiag.residuals import _poisson_means


def _poisson_model(y, mu):
    y = np.asarray(y, dtype=float)
    eta = np.log(np.asarray(mu, dtype=float))
    d = Dataset(y=y, X=np.ones((y.size, 1)))
    return FittedModel(kind=ModelKind.GLM_POISSON, beta=[0.0], eta=eta,
                       loglik=0.0, dataset=d, scale=0.0)


def test_hat_diagonals_balanced_three_point_design():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    h = hat_diagonals(X)
    assert np.allclose(h, [5.0 / 6.0, 1.0 / 3.0, 5.0 / 6.0], atol=1e-12)


def test_standardized_residuals_perfect_fit_are_zero():
    d = Dataset(y=[1.0, 2.0, 3.0, 4.0], X=[[1, 0], [1, 1], [1, 2], [1, 3]])
    m = fit_model(d, ModelKind.LM)
    assert m.scale == 0.0
    assert np.array_equal(residuals_for(m), np.zeros(4))


def test_standardized_residuals_match_direct_formula(rng):
    n = 30
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=n)
    m = fit_model(Dataset(y=y, X=X), ModelKind.LM)
    h = hat_diagonals(X)
    expected = (y - m.eta) / (m.scale * np.sqrt(1 - h))
    assert np.allclose(residuals_for(m), expected, atol=1e-12)


def test_standardized_residuals_mean_zero_monte_carlo(rng):
    n = 10
    X = np.column_stack([np.ones(n), np.linspace(0, 1, n)])
    total, count = 0.0, 0
    for _ in range(10_000):
        y = 1.0 + 2.0 * X[:, 1] + rng.normal(0, 0.5, n)
        m = fit_model(Dataset(y=y, X=X), ModelKind.LM)
        total += residuals_for(m).sum()
        count += n
    assert abs(total / count) < 0.02


def test_standardized_residuals_variance_near_one(rng):
    n = 200
    X = np.column_stack([np.ones(n), np.linspace(0, 1, n)])
    vars_ = []
    for _ in range(200):
        y = 1.0 + 2.0 * X[:, 1] + rng.normal(0, 0.5, n)
        m = fit_model(Dataset(y=y, X=X), ModelKind.LM)
        vars_.append(residuals_for(m).var())
    assert abs(np.mean(vars_) - 1.0) < 0.1


def test_deviance_zero_at_mean():
    # y exactly equal to the fitted mean exp(eta) gives exact zeros
    eta = np.array([0.7, 1.6])
    mu = np.exp(eta)
    d = Dataset(y=mu, X=np.ones((2, 1)))
    m = FittedModel(kind=ModelKind.GLM_POISSON, beta=[0.0], eta=eta,
                    loglik=0.0, dataset=d, scale=0.0)
    assert np.array_equal(residuals_for(m), np.zeros(2))


def test_deviance_known_values():
    m = _poisson_model([0.0, 3.0], [1.0, 1.0])
    e = residuals_for(m)
    assert e[0] == pytest.approx(-math.sqrt(2.0), abs=1e-12)
    # formula value for y=3, mu=1: sqrt(2 (3 ln 3 - 2))
    assert e[1] == pytest.approx(math.sqrt(2.0 * (3.0 * math.log(3.0) - 2.0)),
                                 abs=1e-12)
    assert e[1] > 0


@given(
    st.integers(0, 40),
    st.floats(0.05, 30.0, allow_nan=False),
)
def test_deviance_sign_matches_raw_residual(y, mu):
    m = _poisson_model([float(y)], [mu])
    mu_eff = float(np.exp(m.eta[0]))  # the mean the residual actually sees
    e = float(residuals_for(m)[0])
    if y == mu_eff:
        assert e == 0.0
    else:
        assert math.copysign(1.0, e) == math.copysign(1.0, y - mu_eff)


def test_deviance_magnitude_monotone_in_distance():
    mu = 2.0
    ys = np.arange(0.0, 15.0)
    m = _poisson_model(ys, np.full(ys.size, mu))
    e = np.abs(residuals_for(m))
    below = e[ys < mu][::-1]   # moving away from mu downward
    above = e[ys > mu]
    assert np.all(np.diff(below) > 0)
    assert np.all(np.diff(above) > 0)


def test_glmm_fitted_means_use_conditional_modes(rng):
    # two groups with very different levels: the conditional means track
    # the group data, the marginal means cannot
    y = np.array([0.0, 1.0, 0.0, 8.0, 9.0, 10.0])
    d = Dataset(y=y, X=np.ones((6, 1)), group=[0, 0, 0, 1, 1, 1])
    m = FittedModel(kind=ModelKind.GLMM_POISSON_RI, beta=[1.0],
                    eta=np.full(6, 1.0), loglik=-20.0, dataset=d, scale=1.5)
    mu = _poisson_means(m.dataset.group, m.dataset.y[None, :],
                        m.eta[None, :], np.array([m.scale]))[0]
    assert mu[0] < np.exp(1.0) < mu[3]
    assert np.allclose(mu[:3], mu[0]) and np.allclose(mu[3:], mu[3])
