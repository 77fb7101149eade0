import math

import numpy as np
import pytest
from scipy.interpolate import BSpline
from scipy.optimize import minimize_scalar

from envdiag import DegenerateX, PSplineDesign
from envdiag.smoother import _NEWTON_STEPS, _SCAN

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


def _search_terms(design, Y):
    """What the lambda search reads of the rows of Y: the squares of
    their U'y, and their y'Py."""
    Uy, _, yPy = design._profile_terms(Y)
    return Uy * Uy, yPy


def _profile_loglik(design, y, log10_lams):
    """Profile log-likelihood of one response at each log10 lambda: the
    per-row reference of the batched profile the lambda search uses."""
    u = np.atleast_1d(np.asarray(log10_lams, dtype=float))
    return design._profile_at(u, *_search_terms(design, y[None, :]))


def test_profile_loglik_unimodal_on_fixtures(rng):
    x = np.linspace(0.0, 1.0, 80)
    design = PSplineDesign(x)
    for y in (
        np.sin(2 * np.pi * x) + rng.normal(0, 0.2, 80),
        1.0 + x + rng.normal(0, 0.5, 80),
        (x - 0.5) ** 2 + rng.normal(0, 0.1, 80),
    ):
        prof = _profile_loglik(design, y, np.linspace(-8, 8, 65))
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


def test_ml_fit_takes_the_profile_terms_once(rng, monkeypatch):
    """``fit(y)`` projects its response once: the lambda search and the
    coefficients read the same profile terms."""
    x = np.sort(rng.uniform(0, 1, 40))
    design = PSplineDesign(x)
    calls = []
    terms = design._profile_terms

    def counted(Y):
        calls.append(Y.shape[0])
        return terms(Y)

    monkeypatch.setattr(design, "_profile_terms", counted)
    design.fit(np.sin(5 * x) + rng.normal(0, 0.2, 40))
    assert calls == [1]


@pytest.mark.parametrize("lam", [-5.0, 0.0, 1e-9, 1e9, 1e30, math.nan])
@pytest.mark.parametrize("n", [5, 40])
def test_lambda_out_of_range_raises_on_every_design(rng, lam, n):
    """A given lambda outside [1e-8, 1e8] is refused by ``fit`` and
    ``coefs`` alike, on the straight-line fallback (n = 5) as on a spline
    design, before any fit."""
    x = np.sort(rng.uniform(0, 1, n))
    design = PSplineDesign(x)
    assert design.fallback == (n == 5)
    Y = rng.normal(0, 1.0, (2, n))
    with pytest.raises(ValueError, match="lam must lie in"):
        design.fit(Y[0], lam=lam)
    with pytest.raises(ValueError, match="lam must lie in"):
        design.coefs(Y, lams=[1.0, lam])


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
        assert np.array_equal(M[b], design.fit(Y[b])(grid))


def test_lambda_bound_flag(rng):
    # pure noise pushes the optimum to maximal smoothing, flagged
    x = np.linspace(0, 1, 40)
    y = rng.normal(0, 1.0, 40)
    f = PSplineDesign(x).fit(y)
    assert f.lam == 1e8 and f.lam_at_bound


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
    G = BSpline.design_matrix(np.linspace(x.min(), x.max(), 64), design.t,
                              3, extrapolate=False).toarray()
    ml_lams = np.array([design.fit(y).lam for y in Y])
    for lams in [np.full(len(Y), lam) for lam in LAMBDAS] + [ml_lams]:
        C = design.coefs(Y, lams)
        assert C.shape == (len(Y), design.basis_dim)
        for c, y, lam in zip(C, Y, lams):
            ref = _pls_reference(design, y, lam)
            assert np.max(np.abs(G @ c - G @ ref)) < 1e-8


# -- the lambda search -------------------------------------------------


def _fixture_rows(x, rng):
    n = x.size
    return np.vstack(
        [np.sin(2 * np.pi * x) + rng.normal(0, 0.2, n),
         (x - 0.5) ** 2 + rng.normal(0, 0.1, n),
         1.0 + x + rng.normal(0, 0.5, n)]
        + [rng.normal(0, 1.0, n) for _ in range(12)]
    )


@pytest.mark.parametrize("u", [-6.0, -1.0, 0.5, 3.0, 7.0])
def test_profile_derivatives_match_central_differences(rng, u):
    x = np.sort(rng.uniform(0, 1, 60))
    design = PSplineDesign(x)
    terms = _search_terms(design, _fixture_rows(x, rng))
    at = np.full(terms[1].size, u)
    d1, d2 = design._profile_slope(at, *terms)

    def prof(v):
        return design._profile_at(v, *terms)

    h1, h2 = 1e-5, 1e-3
    c1 = (prof(at + h1) - prof(at - h1)) / (2 * h1)
    c2 = (prof(at + h2) - 2 * prof(at) + prof(at - h2)) / h2 ** 2
    assert np.all(np.abs(d1 - c1) <= 1e-6 * (1 + np.abs(d1)))
    assert np.all(np.abs(d2 - c2) <= 1e-5 * (1 + np.abs(d2)))


def test_selected_profile_reaches_bounded_brent_maximum(rng):
    x = np.sort(rng.uniform(0, 1, 40))
    design = PSplineDesign(x)
    Y = _fixture_rows(x, rng)
    u_hat, at_bound = design._select_lams(*_search_terms(design, Y))
    scan = np.linspace(-8.0, 8.0, 17)
    for y, u, bound in zip(Y, u_hat, at_bound):
        best = int(np.argmax(_profile_loglik(design, y, scan)))
        lo, hi = scan[max(best - 1, 0)], scan[min(best + 1, 16)]
        brent = minimize_scalar(lambda v: -_profile_loglik(design, y, v)[0],
                                bounds=(lo, hi), method="bounded",
                                options={"xatol": 1e-9})
        assert _profile_loglik(design, y, u)[0] >= -brent.fun - 1e-10
        assert design.fit(y).lam_at_bound == bound
    # pure noise pushes some rows to maximal smoothing, flagged
    assert np.any(u_hat[3:] == 8.0)
    assert np.all(at_bound[u_hat == 8.0])


def test_select_lams_independent_of_batch(rng):
    x = np.sort(rng.uniform(0, 1, 80))
    design = PSplineDesign(x)
    Y = np.vstack([_fixture_rows(x, rng) for _ in range(14)])[:200]

    def select(rows):
        return design._select_lams(*_search_terms(design, rows))[0]

    u_all = select(Y)
    assert np.array_equal(select(Y[:7]), u_all[:7])
    for r in range(7):
        assert np.array_equal(select(Y[r:r + 1]), u_all[r:r + 1])
    grid = np.linspace(x.min(), x.max(), 33)
    assert np.array_equal(design.smooth_matrix(Y[:7], grid),
                          design.smooth_matrix(Y, grid)[:7])


def test_zero_response_is_an_exact_fit_at_the_upper_bound(xgrid):
    # rss = 0 at every lambda: only the log-determinant moves, and it
    # rises toward maximal smoothing
    f = PSplineDesign(xgrid).fit(np.zeros(xgrid.size))
    assert f.lam == 1e8 and f.lam_at_bound
    assert np.all(f.coefs == 0.0)


def _select_lams_all_rows(design, u2, yPy):
    """The lambda search with every row taking all the Newton steps from
    its best scan point: the reference of the search in which rows final
    at a bound skip them."""
    scan = design._profile_at(_SCAN[:, None], u2[:, None], yPy)
    best = np.argmax(scan, axis=0)
    u = _SCAN[best]
    lo = _SCAN[np.maximum(best - 1, 0)]
    hi = _SCAN[np.minimum(best + 1, _SCAN.size - 1)]
    for _ in range(_NEWTON_STEPS):
        d1, d2 = design._profile_slope(u, u2, yPy)
        lo = np.where(d1 > 0, u, lo)
        hi = np.where(d1 < 0, u, hi)
        newton = u + np.divide(d1, -d2, out=np.full_like(u, np.inf),
                               where=d2 < 0)
        u = np.where((newton >= lo) & (newton <= hi), newton,
                     0.5 * (lo + hi))
    at_bound = (u <= -8.0 + 1e-3) | (u >= 8.0 - 1e-3)
    return u, at_bound


def _bound_rows(x, rng):
    """A zero row, noise rows, rows in the span of the basis and smooth
    rows: final at the upper bound, at the lower one, and interior."""
    design = PSplineDesign(x)
    n = x.size
    return design, np.vstack(
        [np.zeros(n)]
        + [design.B @ rng.normal(0, 1.0, design.basis_dim) for _ in range(3)]
        + [_fixture_rows(x, rng)])


def _dense_profile(design, y, lam):
    """The profile log-likelihood of one response from its definition,
    by dense linear algebra: fixed effects X = B U_null, random effects
    Z = B U_pen with covariance sigma^2 / lam, so cov(y) = sigma^2 V with
    V = I + ZZ' / lam; beta by generalized least squares and sigma^2 =
    rss / n, with the library's floor on an exact fit's rss."""
    w, E = np.linalg.eigh(design.D.T @ design.D)
    X = design.B @ E[:, :2]
    Z = design.B @ (E[:, 2:] / np.sqrt(w[2:]))
    n = y.size
    L = np.linalg.cholesky(np.eye(n) + Z @ Z.T / lam)
    Xw, yw = np.linalg.solve(L, X), np.linalg.solve(L, y)
    r = yw - Xw @ np.linalg.lstsq(Xw, yw, rcond=None)[0]
    logdet_v = 2.0 * np.sum(np.log(np.diag(L)))
    sig2 = max(r @ r, 1e-300) / n
    return -0.5 * (n * (math.log(2.0 * math.pi * sig2) + 1.0) + logdet_v)


def test_profile_matches_its_dense_definition(rng):
    x = np.sort(rng.uniform(0, 1, 60))
    design, Y_bound = _bound_rows(x, rng)
    us = np.concatenate([_SCAN, [-5.5, -2.3, 0.7, 3.1, 6.4]])
    for Y in (_fixture_rows(x, rng), Y_bound):
        u2, yPy = _search_terms(design, Y)
        prof = design._profile_at(us[:, None], u2[:, None], yPy)
        for i, y in enumerate(Y):
            ref = np.array([_dense_profile(design, y, 10.0 ** u) for u in us])
            assert np.all(np.abs(prof[:, i] - ref) <= 1e-10 * np.abs(ref))


def test_rows_final_at_a_bound_skip_the_newton_steps(rng, monkeypatch):
    x = np.sort(rng.uniform(0, 1, 60))
    design, Y = _bound_rows(x, rng)
    terms = _search_terms(design, Y)
    u, at_bound = design._select_lams(*terms)
    u_ref, at_bound_ref = _select_lams_all_rows(design, *terms)
    assert np.array_equal(u, u_ref) and np.array_equal(at_bound, at_bound_ref)

    # the batch holds every kind of row: final at each end, and interior
    scan = design._profile_at(_SCAN[:, None], terms[0][:, None], terms[1])
    best = np.argmax(scan, axis=0)
    d1 = design._profile_slope(_SCAN[best], *terms)[0]
    upper = (best == _SCAN.size - 1) & (d1 > 0)
    lower = (best == 0) & (d1 < 0)
    assert upper[0] and np.all(lower[1:4])
    assert np.all(u[upper] == 8.0) and np.all(u[lower] == -8.0)
    assert np.any(~at_bound)

    # final rows cost the one slope at their scan point; the others
    # take all the steps
    calls = []
    slope = design._profile_slope

    def counted(*args):
        calls.append(args[0].size)
        return slope(*args)

    monkeypatch.setattr(design, "_profile_slope", counted)
    final = np.flatnonzero(upper | lower)
    design._select_lams(*_search_terms(design, Y[final]))
    assert calls == [final.size]
    calls.clear()
    design._select_lams(*terms)
    moving = int(np.sum(~(upper | lower)))
    assert calls == [Y.shape[0]] + [moving] * (_NEWTON_STEPS - 1)


@pytest.mark.parametrize("row, end", [(0, 8.0), (1, -8.0)])
def test_a_row_at_a_bound_with_zero_slope_takes_the_newton_steps(
        rng, monkeypatch, row, end):
    # d1 == 0 with a profile that is not concave: each step goes to the
    # midpoint of the one-unit bracket, off the bound
    x = np.sort(rng.uniform(0, 1, 60))
    design, Y = _bound_rows(x, rng)
    terms = _search_terms(design, Y[row:row + 1])
    assert design._select_lams(*terms)[0][0] == end
    monkeypatch.setattr(design, "_profile_slope",
                        lambda u, *t: (np.zeros_like(u), np.zeros_like(u)))
    u, at_bound = design._select_lams(*terms)
    assert u[0] == end - math.copysign(0.5, end) and not at_bound[0]
    u_ref, at_bound_ref = _select_lams_all_rows(design, *terms)
    assert np.array_equal(u, u_ref) and np.array_equal(at_bound, at_bound_ref)
