import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import gammaln, xlogy
from scipy.stats import norm, poisson

from envdiag import (
    Dataset,
    FittedModel,
    ModelKind,
    NonConvergence,
    RankDeficient,
    Separation,
    fit_model,
    glmm_marginal_loglik,
    refit,
    refit_many,
    residuals_for,
    simulate_response,
)
from envdiag.diagnostics import simulate_replicates
from envdiag.fitters import (
    _glmm_loglik_grad,
    _log_omega_start,
    fit_rows,
    glm_rows,
    glmm_rows,
    lm_rows,
)
from envdiag.harness import ScenarioSpec, Violation, generate_dataset

# ------------------------------------------------------------------ #
# independent oracles
# ------------------------------------------------------------------ #


def newton_poisson_mle(X, y, iters=60):
    """Plain Newton on the Poisson log-likelihood, gradient/Hessian form."""
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        mu = np.exp(X @ beta)
        grad = X.T @ (y - mu)
        hess = X.T @ (X * mu[:, None])
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13:
            break
    return beta


def gh_fixed_loglik(beta0, omega, y_groups, points=201):
    """Non-adaptive Gauss-Hermite marginal log-likelihood, intercept-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    u = math.sqrt(2.0) * omega * nodes
    total = 0.0
    for ys in y_groups:
        ys = np.asarray(ys, dtype=float)
        f = np.sum(
            ys[:, None] * (beta0 + u[None, :])
            - np.exp(beta0 + u[None, :])
            - gammaln(ys + 1.0)[:, None],
            axis=0,
        )
        total += math.log(np.sum(weights * np.exp(f)) / math.sqrt(math.pi))
    return total


# ------------------------------------------------------------------ #
# linear model
# ------------------------------------------------------------------ #


def test_lm_exact_linear_data_is_degenerate():
    d = Dataset(y=[1.0, 2.0, 3.0], X=[[1, 1], [1, 2], [1, 3]])
    m = fit_model(d, ModelKind.LM)
    assert np.allclose(m.beta, [0.0, 1.0], atol=1e-12)
    assert m.sigma == 0.0
    assert m.degenerate
    assert np.allclose(m.dataset.y - m.eta, 0.0)


def test_lm_hand_solved_normal_equations():
    d = Dataset(y=[1.0, 2.0, 4.0], X=[[1, 0], [1, 1], [1, 2]])
    m = fit_model(d, ModelKind.LM)
    assert np.allclose(m.beta, [5.0 / 6.0, 3.0 / 2.0], atol=1e-12)


def test_lm_constant_response_degenerate():
    d = Dataset(y=[2.0, 2.0, 2.0, 2.0], X=[[1, 0], [1, 1], [1, 2], [1, 7]])
    m = fit_model(d, ModelKind.LM)
    assert np.allclose(m.beta, [2.0, 0.0], atol=1e-12)
    assert m.sigma == 0.0 and m.degenerate


def test_lm_matches_closed_form_on_random_data(rng):
    for _ in range(20):
        n = int(rng.integers(5, 40))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=n)
        m = fit_model(Dataset(y=y, X=X), ModelKind.LM)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.max(np.abs(m.beta - beta)) < 1e-10


def test_lm_residuals_orthogonal_to_design(rng):
    n = 50
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    y = rng.normal(size=n)
    m = fit_model(Dataset(y=y, X=X), ModelKind.LM)
    resid = y - m.eta
    assert np.max(np.abs(X.T @ resid)) < 1e-8 * max(1.0, np.abs(y).sum())


# ------------------------------------------------------------------ #
# Poisson GLM
# ------------------------------------------------------------------ #


def test_glm_intercept_only_is_log_mean():
    d = Dataset(y=[1.0, 2.0, 3.0], X=np.ones((3, 1)))
    m = fit_model(d, ModelKind.GLM_POISSON)
    assert abs(m.beta[0] - math.log(2.0)) < 1e-10


def assert_separation_certificate(X, y, direction):
    """``direction`` proves that no finite Poisson MLE exists: a unit
    vector d with X_i d = 0 on positive counts, X_i d <= 0 on zeros and
    X_i d < 0 on at least one row."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    assert abs(np.linalg.norm(direction) - 1.0) <= 1e-12
    v = X @ direction
    assert np.all(np.abs(v[y > 0]) <= 1e-9)
    assert np.all(v[y == 0] <= 1e-9)
    assert v.min() < 0.0


def test_glm_all_zero_response_reports_boundary():
    d = Dataset(y=[0.0, 0.0, 0.0], X=np.ones((3, 1)))
    with pytest.raises(Separation) as exc:
        fit_model(d, ModelKind.GLM_POISSON)
    assert_separation_certificate(d.X, d.y, exc.value.direction)


def test_glm_matches_newton_oracle_small_example():
    d = Dataset(y=[1.0, 3.0, 9.0], X=[[1, 0], [1, 1], [1, 2]])
    m = fit_model(d, ModelKind.GLM_POISSON)
    oracle = newton_poisson_mle(np.asarray(d.X), np.asarray(d.y))
    assert np.max(np.abs(m.beta - oracle)) < 1e-8


def test_glm_matches_newton_oracle_random_datasets(rng):
    hits = 0
    while hits < 20:
        n = int(rng.integers(10, 35))
        x = rng.uniform(-1.0, 1.0, n)
        X = np.column_stack([np.ones(n), x])
        beta_true = np.array([rng.uniform(0.2, 1.2), rng.uniform(-1.0, 1.0)])
        y = rng.poisson(np.exp(X @ beta_true)).astype(float)
        if y.sum() == 0:
            continue
        m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
        oracle = newton_poisson_mle(X, y)
        assert np.max(np.abs(m.beta - oracle)) < 1e-8
        hits += 1


# ------------------------------------------------------------------ #
# GLMM with random intercept
# ------------------------------------------------------------------ #


def test_glmm_nests_glm_when_variance_is_zero(rng):
    n = 40
    x = (np.arange(1, n + 1) - 0.5) / n
    X = np.column_stack([np.ones(n), x])
    y = rng.poisson(np.exp(-2 + 4 * x)).astype(float)  # omega = 0 truth
    d = Dataset(y=y, X=X, group=np.arange(n) % 5)
    mm = fit_model(d, ModelKind.GLMM_POISSON_RI)
    mg = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
    assert mm.omega < 1e-4
    assert np.max(np.abs(mm.beta - mg.beta)) < 1e-4


def test_glmm_single_observation_matches_fixed_quadrature():
    X = np.ones((1, 1))
    y = np.array([2.0])
    group = np.array([0])
    for beta0 in (0.0, 0.5, math.log(2.0)):
        ours = glmm_marginal_loglik(np.array([beta0]), 1.0, X, y, group)
        oracle = gh_fixed_loglik(beta0, 1.0, [[2.0]])
        assert abs(ours - oracle) < 1e-6


def test_glmm_two_groups_matches_grid_search_oracle():
    d = Dataset(y=[1.0, 1.0, 5.0, 5.0], X=np.ones((4, 1)), group=[0, 0, 1, 1])
    m = fit_model(d, ModelKind.GLMM_POISSON_RI)

    def objective(b0, om):
        return glmm_marginal_loglik(np.array([b0]), om, d.X, d.y, d.group)

    b_lo, b_hi, w_lo, w_hi = -1.0, 3.0, 0.05, 3.0
    for _ in range(3):
        bs = np.linspace(b_lo, b_hi, 61)
        ws = np.linspace(w_lo, w_hi, 61)
        vals = np.array([[objective(b, w) for w in ws] for b in bs])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        db, dw = bs[1] - bs[0], ws[1] - ws[0]
        b_lo, b_hi = bs[i] - db, bs[i] + db
        w_lo, w_hi = max(ws[j] - dw, 1e-4), ws[j] + dw
    assert abs(m.beta[0] - bs[i]) < 1e-3
    assert abs(m.omega - ws[j]) < 1e-3


def test_glmm_collapse_at_zero_omega_is_exact(rng):
    n = 20
    X = np.column_stack([np.ones(n), np.linspace(0, 1, n)])
    y = rng.poisson(2.0, n).astype(float)
    group = np.arange(n) % 4
    beta = np.array([0.3, 0.1])
    glm_ll = float(np.sum(y * (X @ beta) - np.exp(X @ beta) - gammaln(y + 1)))
    assert glmm_marginal_loglik(beta, 0.0, X, y, group) == glm_ll


def _central_differences(f, theta, rel_step=1e-5):
    grad = np.empty(theta.size)
    for j in range(theta.size):
        h = rel_step * max(1.0, abs(theta[j]))
        e = np.zeros(theta.size)
        e[j] = h
        grad[j] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return grad


def test_glmm_gradient_matches_central_differences(rng):
    """Exact (beta, log omega) gradient of the quadrature kernel.

    Relative error (absolute below magnitude 1) at most 1e-4 over 240
    random points: omega free, at the floor and at the ceiling, crossed
    with several groups, one group and single-observation groups.  At the
    ceiling the widest nodes overflow e^t and carry zero weight.
    """
    log_omegas = ("free", math.log(1e-6), math.log(1e4))
    layouts = ("groups", "one-group", "singletons")
    points = 0
    for trial in range(240):
        n = int(rng.integers(2, 40))
        layout = layouts[trial % 3]
        G = {"groups": int(rng.integers(2, n + 1)), "one-group": 1,
             "singletons": n}[layout]
        group = np.arange(n) % G
        X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, n)])
        beta = rng.uniform(-2.0, 2.0, 2)
        log_omega = log_omegas[(trial // 3) % 3]
        if log_omega == "free":
            log_omega = rng.uniform(-4.0, 3.0)
        eps = rng.normal(0.0, 1.0, G)[group]
        y = rng.poisson(np.exp(X @ beta + eps)).astype(float)
        theta = np.append(beta, log_omega)

        def kernel(th):
            v, g, _ = _glmm_loglik_grad(th[None, :-1],
                                        np.array([math.exp(th[-1])]), X,
                                        y[None, :], group)
            return v[0], g[0]

        def value(th):
            return kernel(th)[0]

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v, grad = kernel(theta)
        assert v == glmm_marginal_loglik(beta, math.exp(log_omega), X, y,
                                         group)
        fd = _central_differences(value, theta)
        err = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        assert np.all(np.isfinite(grad)) and np.all(err <= 1e-4), (
            trial, layout, theta, grad, fd)
        points += 1
    assert points == 240


def _stream_fit(spec: ScenarioSpec, dataset: int):
    """Fit of dataset ``dataset`` of the spec's data stream at seed 1 and
    its bootstrap seed, as a power study draws them."""
    d = generate_dataset(
        spec, np.random.default_rng(np.random.SeedSequence((1, dataset, 0))))
    boot = np.random.SeedSequence((1, dataset, 1)).generate_state(1, np.uint64)
    return fit_model(d, spec.model), int(boot[0])


def _bootstrap_draws(m, boot_seed: int, count: int) -> np.ndarray:
    """The first ``count`` bootstrap responses of ``m``, one child stream
    each, as :func:`simulate_replicates` draws them."""
    children = np.random.SeedSequence(boot_seed).spawn(count)
    return np.array([simulate_response(m, np.random.default_rng(c))
                     for c in children])


def _glmm_refit_case(dataset: int, child: int, n: int = 40):
    """Parent fit and one bootstrap response of the poisson-ri null data
    stream at seed 1 (n=40: the glmm-refit stream), as a power study
    draws them.
    """
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=n)
    m, boot_seed = _stream_fit(spec, dataset)
    return m, _bootstrap_draws(m, boot_seed, child + 1)[child]


def test_glmm_warm_refit_does_not_stop_early():
    """Warm-started refit reaches the cold-start optimum.

    At this child some quadrature nodes overflow e^t while their weight
    underflows; a 0 * inf in the gradient once stopped L-BFGS-B at a point
    2.0 lower in log-likelihood.
    """
    m, y = _glmm_refit_case(dataset=31, child=35)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warm = refit(m, y)
    cold = fit_model(Dataset(y=y, X=m.dataset.X, group=m.dataset.group),
                     ModelKind.GLMM_POISSON_RI)
    assert abs(warm.loglik - cold.loglik) <= 1e-6


def _lbfgsb_reference(m, y):
    """Maximized log-likelihood of a poisson-ri refit by scipy's L-BFGS-B,
    from the parent start, with the floor probe: the optimizer the
    lockstep quasi-Newton replaced, kept as its reference."""
    X, group = m.dataset.X, m.dataset.group
    log_floor, log_ceil = math.log(1e-6), math.log(1e4)

    def nll(th):
        if np.max(X @ th[:-1]) > 500.0:
            return 1e12, np.zeros(th.size)
        v, g, _ = _glmm_loglik_grad(th[None, :-1], np.array([math.exp(th[-1])]),
                                    X, y[None, :], group)
        if not np.isfinite(v[0]):
            return 1e12, np.zeros(th.size)
        return -v[0], -g[0]

    x0 = np.append(m.beta, math.log(min(max(m.omega, 0.05), 3.0)))
    res = minimize(nll, x0, method="L-BFGS-B", jac=True,
                   bounds=[(None, None)] * m.p + [(log_floor, log_ceil)],
                   options={"maxiter": 200, "ftol": 1e-9, "gtol": 1e-7})
    x = res.x
    if res.jac[-1] > 0.0 and x[-1] > log_floor:
        at_floor = np.append(x[:-1], log_floor)
        if nll(at_floor)[0] <= res.fun:
            x = at_floor
    return -nll(x)[0]


def _glmm_refit_batch(dataset: int, B: int = 99):
    """Parent fit and its first B - 1 bootstrap responses, as
    :func:`_glmm_refit_case` draws them one at a time."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=40)
    m, boot_seed = _stream_fit(spec, dataset)
    return m, _bootstrap_draws(m, boot_seed, B - 1)


def test_glmm_refit_many_reaches_lbfgsb_optimum():
    """On the first five datasets of the glmm-refit stream, every row's
    maximized log-likelihood is at least the L-BFGS-B value - 1e-6."""
    worst = math.inf
    for dataset in range(5):
        m, Y = _glmm_refit_batch(dataset)
        _, logliks, failed = refit_many(m, Y)
        assert not failed.any()
        for r, y in enumerate(Y):
            worst = min(worst, logliks[r] - _lbfgsb_reference(m, y))
    assert worst >= -1e-6, worst


def test_glmm_refit_all_zero_response_raises_separation():
    """An all-zero response has its estimate on the boundary, as the GLM
    start used to report; so the replaced bootstrap draws of a sparse
    random-intercept model are exactly its all-zero draws."""
    n = 12
    X = np.column_stack([np.ones(n), np.linspace(0.0, 1.0, n)])
    d = Dataset(y=[0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1], X=X,
                group=np.arange(n) % 3)
    m = fit_model(d, ModelKind.GLMM_POISSON_RI)
    with pytest.raises(Separation):
        refit(m, np.zeros(n))
    B, seed = 99, 4
    reps = simulate_replicates(m, B, seed)
    children = np.random.SeedSequence(seed).spawn(B - 1 + reps.n_failed)
    zero = [not np.any(simulate_response(m, np.random.default_rng(c)))
            for c in children]
    assert reps.n_failed == sum(zero) > 0
    assert not zero[-1]  # the last child drawn filled the last slot


def test_poisson_response_without_finite_mle_raises_separation():
    """Positive counts only at the largest x: the likelihood keeps rising
    as the slope grows, so the estimate lies on the boundary.  The GLM,
    the random-intercept fit and a warm refit from any parent report it,
    with a separating direction, instead of returning a diverged slope."""
    n = 40
    X = np.column_stack([np.ones(n), (np.arange(1, n + 1) - 0.5) / n])
    y = np.zeros(n)
    y[-1] = 3.0
    d = Dataset(y=y, X=X, group=np.arange(n) % 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind in (ModelKind.GLM_POISSON, ModelKind.GLMM_POISSON_RI):
            with pytest.raises(Separation) as err:
                fit_model(d, kind)
            assert_separation_certificate(X, y, err.value.direction)
        for dataset in range(4):
            m, _ = _glmm_refit_case(dataset=dataset, child=0)
            with pytest.raises(Separation):
                refit(m, y)


def test_separation_with_positive_counts_on_one_covariate_level():
    """Design ``[1, 1{i >= 20}]`` with counts positive only where the
    indicator is 1: sending its coefficient to +inf and the intercept to
    -inf drives the zero rows' means to 0 and leaves the others fixed.
    IRLS meets its deviance tolerance long before any mean underflows,
    so only the exact rule catches this in the GLM, the random-intercept
    fit and a warm refit from a parent fitted on the same design."""
    n = 40
    X = np.column_stack([np.ones(n), (np.arange(n) >= n // 2).astype(float)])
    rng = np.random.default_rng(7)
    y = np.where(X[:, 1] > 0, rng.poisson(3.0, size=n), 0).astype(float)
    assert np.any(y[n // 2:] > 0)
    group = np.arange(n) % 5
    parent = fit_model(
        Dataset(y=rng.poisson(2.0, size=n).astype(float), X=X, group=group),
        ModelKind.GLMM_POISSON_RI)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fit in (lambda d: fit_model(d, ModelKind.GLM_POISSON),
                    lambda d: fit_model(d, ModelKind.GLMM_POISSON_RI),
                    lambda d: refit(parent, d.y)):
            with pytest.raises(Separation) as err:
                fit(Dataset(y=y, X=X, group=group))
            assert_separation_certificate(X, y, err.value.direction)


def test_small_n_bootstrap_draw_without_mle_raises_separation():
    """Child 56 of dataset 18 in the n=10 poisson-ri null stream is
    y = (0, ..., 0, 6): its refit once ran off to a slope near 250 with
    an overflow warning and joined the null ensemble."""
    m, y = _glmm_refit_case(dataset=18, child=56, n=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Separation) as err:
            refit(m, y)
    assert_separation_certificate(m.dataset.X, y, err.value.direction)


def test_rank_deficient_positive_rows_with_finite_mle_fit():
    """One positive count in the middle of x: the positive rows do not
    pin down beta, yet zero rows on both sides bound the likelihood, so
    the estimate exists and IRLS finds it."""
    x = (np.arange(10) + 0.5) / 10
    X = np.column_stack([np.ones(10), x])
    y = np.zeros(10)
    y[4] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
    assert np.max(np.abs(m.beta - newton_poisson_mle(X, y))) < 1e-8


def test_all_zero_response_is_separated_without_linprog(monkeypatch):
    """With no positive count, minus the unit vector of a column that is
    positive on every row is the certificate; the LP runs only on a
    design without such a column."""
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    n = 12
    x = np.linspace(0.0, 1.0, n)
    y = np.zeros(n)
    with monkeypatch.context() as mp:
        mp.setattr("envdiag.fitters.linprog", no_lp)
        for X in (np.column_stack([np.ones(n), x]),
                  np.column_stack([x - 0.5, 1.0 + x])):
            with pytest.raises(Separation) as err:
                fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
            assert_separation_certificate(X, y, err.value.direction)
    X = np.column_stack([-np.ones(n), x - 0.5])    # no positive column
    with pytest.raises(Separation) as err:
        fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
    assert_separation_certificate(X, y, err.value.direction)


# ------------------------------------------------------------------ #
# lockstep IRLS
# ------------------------------------------------------------------ #


def _irls_reference(X, y):
    """Poisson GLM estimate by per-response IRLS with one ``lstsq`` per
    iteration: the fitter that the lockstep :func:`glm_rows` replaced,
    kept as its reference."""
    def deviance(mu):
        return float(2.0 * np.sum(xlogy(y, y / mu) - (y - mu)))

    beta = np.zeros(X.shape[1])
    beta[0] = math.log(float(np.mean(y)) + 0.1)
    eta = X @ beta
    mu = np.exp(eta)
    dev = deviance(mu)
    for _ in range(100):
        z = eta + (y - mu) / mu
        w = np.sqrt(mu)
        beta_new, _, rank, _ = np.linalg.lstsq(X * w[:, None], z * w,
                                               rcond=None)
        assert rank == X.shape[1]
        step = beta_new - beta
        dev_new = math.inf
        for _half in range(30):
            with np.errstate(over="ignore"):
                mu_new = np.exp(X @ (beta + step))
            if mu_new.max() < math.inf:
                dev_new = deviance(mu_new)
                if dev_new <= dev:
                    break
            step *= 0.5
        if not dev_new <= dev:
            break
        beta = beta + step
        eta = X @ beta
        mu = np.exp(eta)
        dev_prev, dev = dev, dev_new
        if abs(dev_prev - dev) < 1e-9 * (abs(dev) + 0.1):
            break
    else:
        raise AssertionError("reference IRLS did not converge")
    z = eta + (y - mu) / mu
    w = np.sqrt(mu)
    beta_pol = np.linalg.lstsq(X * w[:, None], z * w, rcond=None)[0]
    with np.errstate(over="ignore"):
        mu_pol = np.exp(X @ beta_pol)
    if np.all(np.isfinite(mu_pol)) and deviance(mu_pol) <= dev + 1e-9:
        beta = beta_pol
    return beta


_POWER_CELL = ScenarioSpec(model=ModelKind.GLM_POISSON,
                           violation=Violation.MIXTURE, n=80)


def test_glm_rows_match_lstsq_irls_reference():
    """On the bootstrap draws of the first ten datasets of the
    poisson-power-cell stream, every lockstep estimate is within 1e-10 of
    the per-response lstsq IRLS, and so is every top-level fit."""
    worst = 0.0
    for dataset in range(10):
        m, boot_seed = _stream_fit(_POWER_CELL, dataset)
        X = m.dataset.X
        worst = max(worst, np.max(np.abs(
            m.beta - _irls_reference(X, m.dataset.y))))
        Y = _bootstrap_draws(m, boot_seed, 98)
        rows = glm_rows(X, Y)
        assert not rows.failed.any()
        for r, y in enumerate(Y):
            worst = max(worst, np.max(np.abs(
                rows.beta[r] - _irls_reference(X, y))))
    assert worst <= 1e-10, worst


# spec of each class's stream (dataset 0 at seed 1) and its batch
# kernel's estimates of the rows of Y
_BATCH_CASES = {
    ModelKind.LM: (
        ScenarioSpec(model=ModelKind.LM, violation=Violation.NULL_OK, n=80),
        lambda m, Y: lm_rows(m.dataset.X, Y).beta),
    ModelKind.GLM_POISSON: (
        _POWER_CELL, lambda m, Y: glm_rows(m.dataset.X, Y).beta),
    ModelKind.GLMM_POISSON_RI: (
        ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                     violation=Violation.NULL_OK, n=40),
        lambda m, Y: glmm_rows(
            m.dataset.X, m.dataset.group, Y,
            np.tile(np.append(m.beta, _log_omega_start(m.omega)),
                    (Y.shape[0], 1))).beta),
}


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_refit_many_rows_equal_refit_alone_and_in_a_batch(kind):
    """Each row of the batch kernel and of ``refit_many`` is bit-identical
    fitted alone or among 98, and equals, bit for bit, the estimate,
    log-likelihood and ``residuals_for`` of ``refit(m, Y[r])``.  Without
    a parent, each row of ``fit_rows`` is ``fit_model`` of its response."""
    spec, kernel = _BATCH_CASES[kind]
    m, boot_seed = _stream_fit(spec, 0)
    Y = _bootstrap_draws(m, boot_seed, 98)
    beta = kernel(m, Y)
    E, logliks, failed = refit_many(m, Y)
    assert not failed.any()
    fresh = fit_rows(kind, m.dataset, Y)
    assert not fresh.errors
    for r, y in enumerate(Y):
        m_r = fit_model(Dataset(y=y, X=m.dataset.X, group=m.dataset.group),
                        kind)
        assert np.array_equal(m_r.beta, fresh.beta[r])
        assert m_r.loglik == fresh.loglik[r]
        assert np.array_equal(kernel(m, Y[r:r + 1])[0], beta[r])
        e1, l1, f1 = refit_many(m, Y[r:r + 1])
        assert np.array_equal(e1[0], E[r]) and l1[0] == logliks[r]
        assert not f1[0]
        m_r = refit(m, y)
        assert np.array_equal(m_r.beta, beta[r])
        assert m_r.loglik == logliks[r]
        assert np.array_equal(residuals_for(m_r), E[r])


def test_glm_rows_halve_steps_that_overshoot():
    """A steep response whose full Newton steps from the start raise the
    deviance (plain Newton from zero even breaks down) needs step
    halving; batched with a response that does not, each row matches the
    reference and is bit-identical alone."""
    x = np.array([0.855, 1.07, 1.354, 1.417, 2.549, 2.711, 3.067, 3.502,
                  6.259])
    X = np.column_stack([np.ones(x.size), x])
    Y = np.array([[1, 0, 2, 0, 4, 7, 5, 7, 78],
                  [1, 2, 1, 3, 2, 4, 3, 5, 6]], dtype=float)
    rows = glm_rows(X, Y)
    assert not rows.failed.any()
    for r, y in enumerate(Y):
        assert np.max(np.abs(rows.beta[r] - _irls_reference(X, y))) <= 1e-10
        assert np.array_equal(glm_rows(X, Y[r:r + 1]).beta[0], rows.beta[r])
        assert np.array_equal(fit_model(Dataset(y=y, X=X),
                                        ModelKind.GLM_POISSON).beta,
                              rows.beta[r])


def _failure_case(case: str, monkeypatch):
    """Parent fit, responses, the rows that fail and their error type."""
    n = 20
    x = (np.arange(n) + 0.5) / n
    y = np.random.default_rng(3).poisson(np.exp(1.0 + x)).astype(float)
    X = np.column_stack([np.ones(n), x])
    if case in ("lm-rank-loss", "glm-rank-loss"):
        # a duplicated column: the design, and every weighted design, is
        # singular, but the Poisson MLE exists (X_i d = 0 along the tie)
        lm = case == "lm-rank-loss"
        m = FittedModel(
            kind=ModelKind.LM if lm else ModelKind.GLM_POISSON,
            beta=np.zeros(3), eta=np.zeros(n), loglik=0.0,
            dataset=Dataset(y=y, X=np.column_stack([X, x])),
            sigma=1.0 if lm else None)
        return m, np.vstack([y, y]), [0, 1], RankDeficient
    if case == "glm-max-iter-1":
        m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
        monkeypatch.setattr("envdiag.fitters._MAX_ITER", 1)
        return m, np.vstack([y, y]), [0, 1], NonConvergence
    if case == "glm-separated":
        # every positive count at the largest x
        m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
        return m, np.vstack([y, np.eye(n)[-1] * 4.0, y]), [1], Separation
    m, draw = _glmm_refit_case(0, 0)
    return m, np.vstack([draw, np.zeros(m.n)]), [1], Separation


@pytest.mark.parametrize("case", [
    "lm-rank-loss", "glm-rank-loss", "glm-max-iter-1", "glm-separated",
    "poisson-ri-all-zero"])
def test_glm_rows_flag_rank_loss_and_nonconvergence(case, monkeypatch):
    """Every class reports a failed row one way: ``fit_rows`` maps it to
    an exception of exactly the type that refitting, or fitting, that
    response alone raises, and ``refit_many`` marks exactly those rows.
    A duplicated column makes the design (lm) or the weighted design
    (poisson) singular; an iteration budget too short leaves IRLS
    moving, and the error carries the last iterate; a count vector
    whose positive counts all sit at the largest x, or an all-zero one
    under the random-intercept model, has no finite MLE."""
    m, Y, bad, error = _failure_case(case, monkeypatch)
    fits = fit_rows(m.kind, m.dataset, Y, start=m)
    assert sorted(fits.errors) == bad
    assert np.array_equal(refit_many(m, Y)[2], fits.failed)
    for r, y in enumerate(Y):
        d = Dataset(y=y, X=m.dataset.X, group=m.dataset.group)
        if r not in fits.errors:
            refit(m, y)
            fit_model(d, m.kind)
            continue
        assert type(fits.errors[r]) is error
        for fit in (lambda: refit(m, y), lambda: fit_model(d, m.kind)):
            with pytest.raises(error) as err:
                fit()
            assert type(err.value) is error
            if error is NonConvergence:
                assert np.array_equal(err.value.beta, fits.errors[r].beta)


# ------------------------------------------------------------------ #
# simulate_response / maximized log-likelihood
# ------------------------------------------------------------------ #


def _toy_lm(sigma=1.0, n=4):
    d = Dataset(y=np.zeros(n), X=np.ones((n, 1)))
    return FittedModel(kind=ModelKind.LM, beta=[0.0], eta=np.zeros(n),
                       loglik=0.0, dataset=d, sigma=sigma)


def test_simulate_lm_zero_sigma_returns_eta_exactly():
    m = _toy_lm(sigma=0.0)
    out = simulate_response(m, np.random.default_rng(1))
    assert np.array_equal(out, m.eta)


def test_simulate_glm_mean_matches_rate(rng):
    d = Dataset(y=np.ones(5), X=np.ones((5, 1)))
    m = FittedModel(kind=ModelKind.GLM_POISSON, beta=[0.0], eta=np.zeros(5),
                    loglik=-5.0, dataset=d)
    draws = np.array([simulate_response(m, rng).mean() for _ in range(20000)])
    assert abs(draws.mean() - 1.0) < 0.02


def test_simulate_glmm_zero_omega_identical_to_glm():
    n = 6
    d = Dataset(y=np.ones(n), X=np.ones((n, 1)), group=np.arange(n) % 3)
    eta = np.linspace(-0.5, 0.5, n)
    mr = FittedModel(kind=ModelKind.GLMM_POISSON_RI, beta=[0.0], eta=eta,
                     loglik=-5.0, dataset=d, omega=0.0)
    mg = FittedModel(kind=ModelKind.GLM_POISSON, beta=[0.0], eta=eta,
                     loglik=-5.0, dataset=Dataset(y=np.ones(n), X=d.X))
    a = simulate_response(mr, np.random.default_rng(5))
    b = simulate_response(mg, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_simulate_is_bit_reproducible(rng):
    n = 30
    x = np.linspace(0, 1, n)
    X = np.column_stack([np.ones(n), x])
    y = rng.poisson(np.exp(1 + x)).astype(float)
    m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
    a = simulate_response(m, np.random.default_rng(123))
    b = simulate_response(m, np.random.default_rng(123))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_loglik_matches_stored_value(kind, rng):
    n = 25
    x = np.linspace(0, 1, n)
    X = np.column_stack([np.ones(n), x])
    group = np.arange(n) % 5 if kind is ModelKind.GLMM_POISSON_RI else None
    if kind is ModelKind.LM:
        y = 1 + x + rng.normal(0, 0.3, n)
    elif kind is ModelKind.GLM_POISSON:
        y = rng.poisson(np.exp(0.5 + x)).astype(float)
    else:
        eps = rng.normal(0, 0.8, 5)
        y = rng.poisson(np.exp(0.5 + x + eps[np.arange(n) % 5])).astype(float)
    d = Dataset(y=y, X=X, group=group)
    m = fit_model(d, kind)
    # the likelihood at the stored estimates, from scipy's densities
    if kind is ModelKind.LM:
        want = norm.logpdf(y, loc=m.eta, scale=m.sigma).sum()
    elif kind is ModelKind.GLM_POISSON:
        want = poisson.logpmf(y, np.exp(m.eta)).sum()
    else:
        want = glmm_marginal_loglik(m.beta, m.omega, X, y, group)
    assert abs(want - m.loglik) < 1e-10


def test_refit_reproduces_fit_on_same_data(rng):
    n = 30
    x = np.linspace(0, 1, n)
    X = np.column_stack([np.ones(n), x])
    y = rng.poisson(np.exp(0.2 + x)).astype(float)
    m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
    m2 = refit(m, y)
    assert np.max(np.abs(m2.beta - m.beta)) < 1e-12

