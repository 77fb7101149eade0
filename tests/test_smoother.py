import math

import numpy as np
import pytest

from envdiag import DegenerateX, PSplineDesign

LAMBDAS = [1e-8, 1e-4, 1.0, 1e4, 1e8]


@pytest.fixture()
def xgrid(rng):
    return np.sort(rng.uniform(0.0, 1.0, 60))


def test_linear_data_reproduced_at_every_lambda(xgrid):
    y = 2.0 - 3.0 * xgrid
    design = PSplineDesign(xgrid)
    for lam in LAMBDAS:
        f = design.fit(y, lam=lam)
        assert np.max(np.abs(f(xgrid) - y)) < 1e-8
    f = design.fit(y)  # ML-selected lambda included
    assert np.max(np.abs(f(xgrid) - y)) < 1e-8


def test_constant_data_reproduced(xgrid):
    y = np.full(xgrid.size, 3.7)
    for lam in LAMBDAS:
        f = PSplineDesign(xgrid).fit(y, lam=lam)
        assert np.max(np.abs(f(xgrid) - 3.7)) < 1e-8


def test_large_lambda_limit_is_ols_line(xgrid, rng):
    y = 1.0 + 0.5 * xgrid + rng.normal(0, 0.3, xgrid.size)
    A = np.column_stack([np.ones(xgrid.size), xgrid])
    c = np.linalg.lstsq(A, y, rcond=None)[0]
    f = PSplineDesign(xgrid).fit(y, lam=1e8)
    dense = np.linspace(xgrid.min(), xgrid.max(), 2000)
    assert np.max(np.abs(f(dense) - (c[0] + c[1] * dense))) < 1e-4


def test_sine_recovery_with_small_noise(rng):
    x = np.linspace(0.0, 1.0, 200)
    y = np.sin(2 * np.pi * x) + rng.normal(0, 0.1, 200)
    f = PSplineDesign(x).fit(y)
    assert np.max(np.abs(f(x) - np.sin(2 * np.pi * x))) < 0.15


def test_affine_reparameterization_invariance(rng):
    x = np.sort(rng.uniform(0.0, 1.0, 80))
    y = np.sin(6.0 * x) + rng.normal(0, 0.2, 80)
    fa = PSplineDesign(x).fit(y)
    fb = PSplineDesign(5.0 + 2.0 * x).fit(y)
    grid = np.linspace(x.min(), x.max(), 300)
    assert np.max(np.abs(fa(grid) - fb(5.0 + 2.0 * grid))) < 1e-6


def test_profile_loglik_unimodal_on_fixtures(rng):
    x = np.linspace(0.0, 1.0, 80)
    design = PSplineDesign(x)
    for y in (
        np.sin(2 * np.pi * x) + rng.normal(0, 0.2, 80),
        1.0 + x + rng.normal(0, 0.5, 80),
        (x - 0.5) ** 2 + rng.normal(0, 0.1, 80),
    ):
        prof = design.profile_loglik(y, np.linspace(-8, 8, 65))
        maxima = np.sum(np.diff(np.sign(np.diff(prof))) < 0)
        assert maxima <= 1


def test_few_distinct_x_falls_back_to_line():
    x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    y = np.array([0.0, 0.2, 1.0, 1.2, 2.0, 2.2])
    f = PSplineDesign(x).fit(y)
    assert f.fallback_linear
    assert f.basis_dim == 2
    # least squares line through the data
    assert f(np.array([1.0]))[0] == pytest.approx(1.1, abs=1e-12)


def test_all_equal_x_raises():
    with pytest.raises(DegenerateX):
        PSplineDesign(np.ones(6)).fit(np.arange(6.0))


def test_too_short_input_raises():
    with pytest.raises(ValueError):
        PSplineDesign(np.array([0.0, 1.0, 2.0])).fit(np.array([0.0, 1.0, 2.0]))


def test_basis_dimension_rule(rng):
    x = np.sort(rng.uniform(0, 1, 50))
    assert PSplineDesign(x).basis_dim == 10
    x10 = np.sort(rng.uniform(0, 1, 10))
    assert PSplineDesign(x10).basis_dim == 8
    x5 = np.sort(rng.uniform(0, 1, 5))
    assert PSplineDesign(x5).fallback  # k < 4 means line fallback


def test_smooth_matrix_matches_per_row_fits(rng):
    x = np.sort(rng.uniform(0, 1, 40))
    design = PSplineDesign(x)
    Y = np.vstack([np.sin(5 * x) + rng.normal(0, 0.2, 40) for _ in range(8)])
    grid = np.linspace(x.min(), x.max(), 31)
    M = design.smooth_matrix(Y, grid)
    for b in range(Y.shape[0]):
        assert np.max(np.abs(M[b] - design.fit(Y[b])(grid))) < 1e-12


def test_lambda_bound_flag(rng):
    # pure noise pushes the optimum toward maximal smoothing
    x = np.linspace(0, 1, 40)
    y = rng.normal(0, 1.0, 40)
    f = PSplineDesign(x).fit(y)
    assert 1e-8 <= f.lam <= 1e8


def _pls_reference(design, y, lam):
    """Penalized least squares as one stacked least squares system."""
    aug = np.vstack([design.B, math.sqrt(lam) * design.D])
    rhs = np.concatenate([y, np.zeros(design.basis_dim - 2)])
    return np.linalg.lstsq(aug, rhs, rcond=None)[0]


@pytest.mark.parametrize("n", [10, 20, 40, 80])
def test_closed_form_coefs_match_stacked_least_squares(rng, n):
    x = np.sort(rng.uniform(0, 1, n))
    design = PSplineDesign(x)
    assert design.basis_dim == min(10, n - 2)
    Y = np.vstack([
        np.sin(5 * x) + rng.normal(0, 0.2, n),
        rng.normal(0, 1.0, n),
        1.0 + 2.0 * x + rng.normal(0, 0.05, n),
    ])
    G = design.grid_design(np.linspace(x.min(), x.max(), 64))
    ml_lams = np.array([design.fit(y).lam for y in Y])
    for lams in [np.full(len(Y), lam) for lam in LAMBDAS] + [ml_lams]:
        C = design.coefs(Y, lams)
        assert C.shape == (len(Y), design.basis_dim)
        for c, y, lam in zip(C, Y, lams):
            ref = _pls_reference(design, y, lam)
            assert np.max(np.abs(G @ c - G @ ref)) < 1e-8
