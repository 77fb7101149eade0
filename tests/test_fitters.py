import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import gammaln, lambertw, logsumexp, xlogy
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
from envdiag import fitters
from envdiag.diagnostics import simulate_replicates
from envdiag.fitters import (
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
    assert m.scale == 0.0
    assert np.allclose(m.dataset.y - m.eta, 0.0)


def test_lm_hand_solved_normal_equations():
    d = Dataset(y=[1.0, 2.0, 4.0], X=[[1, 0], [1, 1], [1, 2]])
    m = fit_model(d, ModelKind.LM)
    assert np.allclose(m.beta, [5.0 / 6.0, 3.0 / 2.0], atol=1e-12)


def test_lm_constant_response_degenerate():
    d = Dataset(y=[2.0, 2.0, 2.0, 2.0], X=[[1, 0], [1, 1], [1, 2], [1, 7]])
    m = fit_model(d, ModelKind.LM)
    assert np.allclose(m.beta, [2.0, 0.0], atol=1e-12)
    assert m.scale == 0.0


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
    assert mm.scale < 1e-4
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
    assert abs(m.scale - ws[j]) < 1e-3


def test_glmm_collapse_at_zero_omega_is_exact(rng):
    n = 20
    X = np.column_stack([np.ones(n), np.linspace(0, 1, n)])
    y = rng.poisson(2.0, n).astype(float)
    group = np.arange(n) % 4
    beta = np.array([0.3, 0.1])
    glm_ll = float(np.sum(y * (X @ beta) - np.exp(X @ beta) - gammaln(y + 1)))
    assert glmm_marginal_loglik(beta, 0.0, X, y, group) == glm_ll


def test_glmm_marginal_loglik_rejects_a_response_fit_model_rejects():
    """A fractional or negative count raises the ValueError that
    ``fit_model`` raises for it, at omega = 0 (the Poisson
    log-likelihood) and above."""
    n = 6
    X = np.column_stack([np.ones(n), np.linspace(0.0, 1.0, n)])
    group = np.arange(n) % 2
    for bad in (0.5, -1.0):
        y = np.array([1.0, 0.0, 2.0, 1.0, 3.0, bad])
        with pytest.raises(ValueError) as fit_error:
            fit_model(Dataset(y=y, X=X, group=group),
                      ModelKind.GLMM_POISSON_RI)
        for omega in (0.0, 0.5):
            with pytest.raises(ValueError) as error:
                glmm_marginal_loglik(np.array([0.1, 0.2]), omega, X, y, group)
            assert str(error.value) == str(fit_error.value)


def test_response_constants_take_log_factorials_from_a_table():
    """sum log y! of every row equals ``gammaln(y + 1).sum()`` bit for bit,
    from the table of log k! (a refit batch, and one row) and from
    ``gammaln`` where the largest count is not below the number of
    counts."""
    rng = np.random.default_rng(4)
    group = np.arange(40) % 5
    big = np.zeros((1, 40))
    big[0, -1] = 1e6
    for Y in (rng.poisson(3.0, size=(98, 40)).astype(float),
              rng.poisson(3.0, size=(1, 40)).astype(float), big):
        S, log_fact = fitters._response_constants(group, 5, Y)
        assert np.array_equal(log_fact, gammaln(Y + 1.0).sum(axis=1))
        assert np.array_equal(S, np.array(
            [np.bincount(group, weights=y, minlength=5) for y in Y]))


def _loglik_grad(x, X, Y, group):
    """Log-likelihoods (R,), their gradients (R, p+1) and Hessians (R,
    p+1, p+1) of the rows of ``Y`` (R, n) at ``x`` (R, p+1) = ``(beta,
    v)``, v = omega^2: the kernel :func:`fitters._glmm_objective`,
    negated, with the constants of :func:`fitters._response_constants`."""
    f, g, H = fitters._glmm_objective(
        X, group, Y, x,
        *fitters._response_constants(group, int(group.max()) + 1, Y))
    return -f, -g, -H


def _central_differences(f, theta, steps):
    grad = np.empty(theta.size)
    for j, h in enumerate(steps):
        e = np.zeros(theta.size)
        e[j] = h
        grad[j] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return grad


def _check_kernel_derivatives(beta, v, X, y, group, v_step):
    """The kernel's value at ``(beta, v)`` is :func:`glmm_marginal_loglik`
    at omega = sqrt(v) (to rounding at v = 0, where that is the Poisson
    log-likelihood), with no warning; its gradient matches central
    differences of the value, and its Hessian central differences of the
    gradient, to 1e-4 relative (absolute below magnitude 1), with steps
    1e-5 max(1, |beta_j|) and ``v_step``.  The Hessian's beta columns are
    checked everywhere; its v-v entry where the kernel is the quadrature,
    and where it is the series (P <= ``_SERIES_MAX``, no curvature in v)
    against the series' next term, sum_g [E_g^2/2 - E_g (S_g - E_g +
    1/2)^2]."""
    theta = np.append(beta, v)
    q = theta.size

    def kernel(th):
        value, grad, hess = _loglik_grad(th[None, :], X, y[None, :], group)
        return value[0], grad[0], hess[0]

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, grad, hess = kernel(theta)
    ref = glmm_marginal_loglik(beta, math.sqrt(v), X, y, group)
    assert value == ref or (v == 0.0 and abs(value - ref) <= 1e-14 * abs(ref))
    steps = [1e-5 * max(1.0, abs(b)) for b in beta] + [v_step]
    fd = _central_differences(lambda th: kernel(th)[0], theta, steps)
    err = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
    assert np.all(np.isfinite(grad)) and np.all(err <= 1e-4), (
        theta, grad, fd)
    jac = np.column_stack([_central_differences(
        lambda th: kernel(th)[1][i], theta, steps) for i in range(q)]).T
    G = int(group.max()) + 1
    S = np.bincount(group, weights=y, minlength=G)
    E = np.bincount(group, weights=np.exp(X @ beta), minlength=G)
    if v * np.max(E + (S - E) ** 2) <= fitters._SERIES_MAX:
        jac[-1, -1] = np.sum(0.5 * E * E - E * (S - E + 0.5) ** 2)
    err = np.abs(hess - jac) / np.maximum(1.0, np.abs(jac))
    # the v column, but for its last entry, is the v row
    assert np.array_equal(hess[:-1, -1], hess[-1, :-1])
    err[:-1, -1] = 0.0
    assert np.all(np.isfinite(hess)) and np.all(err <= 1e-4), (
        theta, hess, jac)


def test_glmm_gradient_matches_central_differences(rng):
    """Exact (beta, v) gradient and Hessian of the quadrature kernel
    (:func:`_check_kernel_derivatives`).

    240 random points: v free, on both sides of the series bound P = v
    max_g (E_g + (S_g - E_g)^2) = ``_SERIES_MAX`` (at half and twice it,
    where the v step is 0.4 v, so the differences stay on the point's
    side), and at the ceiling 1e8, crossed with several groups, one
    group and single-observation groups.  At the ceiling the widest
    nodes overflow e^t and carry zero weight.  Then 120 more: at v = 0
    (v step 0.4 times the series bound) and v log-uniform in [1e-6, 10]
    (step 1e-3 v), moved to twice the series bound where it falls
    within a factor 2 of it.
    """
    places = ("free", 0.5, 2.0, "ceiling")    # 0.5, 2: P / _SERIES_MAX
    layouts = ("groups", "one-group", "singletons")
    points = 0
    for trial in range(360):
        n = int(rng.integers(2, 40))
        layout = layouts[trial % 3]
        G = {"groups": int(rng.integers(2, n + 1)), "one-group": 1,
             "singletons": n}[layout]
        group = np.arange(n) % G
        X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, n)])
        beta = rng.uniform(-2.0, 2.0, 2)
        place = (places[(trial // 3) % 4] if trial < 240
                 else ("zero", "low")[(trial // 3) % 2])
        if place == "free":
            omega = math.exp(rng.uniform(-4.0, 3.0))
        eps = rng.normal(0.0, 1.0, G)[group]
        y = rng.poisson(np.exp(X @ beta + eps)).astype(float)
        S = np.bincount(group, weights=y)
        E = np.bincount(group, weights=np.exp(X @ beta))
        bound = fitters._SERIES_MAX / np.max(E + (S - E) ** 2)
        near = place in (0.5, 2.0)
        if near:
            omega = math.sqrt(place * bound)
        elif place == "ceiling":
            omega = 1e4
        elif place == "zero":
            omega = 0.0
        elif place == "low":
            omega = math.sqrt(10.0 ** rng.uniform(-6.0, 1.0))
            if 0.5 <= omega ** 2 / bound <= 2.0:
                omega = math.sqrt(2.0 * bound)
        v = omega * omega
        v_step = {"zero": 0.4 * bound, "low": 1e-3 * v}.get(
            place, 0.4 * v if near else 1e-5 * max(1.0, v))
        _check_kernel_derivatives(beta, v, X, y, group, v_step)
        points += 1
    assert points == 360


def _dean_score(X, group, y, beta):
    """Poisson log-likelihood, score X'(y - mu) and Dean's (1992) score
    for the random-intercept variance, U = 1/2 sum_g [(S_g - E_g)^2 -
    E_g], at ``beta``, from plain per-group sums."""
    eta = X @ beta
    mu = np.exp(eta)
    G = int(group.max()) + 1
    S = np.array([y[group == k].sum() for k in range(G)])
    E = np.array([mu[group == k].sum() for k in range(G)])
    loglik = np.sum(y * eta - mu - gammaln(y + 1.0))
    return loglik, X.T @ (y - mu), 0.5 * np.sum((S - E) ** 2 - E)


def test_glmm_kernel_at_zero_variance_is_the_glm_and_dean_score():
    """At v = 0 the kernel is the Poisson log-likelihood
    (``_poisson_loglik``, to rounding), its beta gradient the score
    X'(y - mu) and its v gradient U, on the first five glmm-refit parents
    and their bootstrap rows, at each row's GLM fit and at the parent's
    estimates."""
    for dataset in range(5):
        m, Y = _glmm_refit_batch(dataset)
        d = m.dataset
        Y = np.vstack([d.y, Y])
        glm = glm_rows(d.X, Y)
        assert not glm.errors
        for betas in (glm.beta, np.tile(m.beta, (Y.shape[0], 1))):
            x = np.column_stack([betas, np.zeros(Y.shape[0])])
            value, grad, _ = _loglik_grad(x, d.X, Y, d.group)
            eta = fitters._rows_eta(d.X, betas)
            assert np.allclose(value, fitters._poisson_loglik(Y, eta),
                               rtol=1e-14, atol=0.0)
            for r, y in enumerate(Y):
                _, score, U = _dean_score(d.X, d.group, y, betas[r])
                assert np.allclose(grad[r, :-1], score, rtol=1e-12, atol=1e-12)
                assert abs(grad[r, -1] - U) <= 1e-12 * max(1.0, abs(U))


def _stream_fit(spec: ScenarioSpec, dataset: int):
    """Fit of dataset ``dataset`` of the spec's data stream at seed 1 and
    its bootstrap seed, as a power study draws them."""
    d = generate_dataset(
        spec, np.random.default_rng(np.random.SeedSequence((1, dataset, 0))))
    boot = np.random.SeedSequence((1, dataset, 1)).generate_state(1, np.uint64)
    return fit_model(d, spec.model), int(boot[0])


def _bootstrap_draws(m, boot_seed: int, count: int) -> np.ndarray:
    """Fixture responses of ``m``: ``count`` rows, each drawn alone from
    its own child stream of ``SeedSequence(boot_seed).spawn(count)``.
    :func:`simulate_replicates` draws one batch from one stream instead;
    the tests that use these rows need these particular responses (their
    overflows, separations and counts were found on them)."""
    children = np.random.SeedSequence(boot_seed).spawn(count)
    return np.array([simulate_response(m, 1, np.random.default_rng(c))[0]
                     for c in children])


def _glmm_refit_case(dataset: int, child: int, n: int = 40):
    """Parent fit of a dataset of the poisson-ri null data stream at
    seed 1 (n=40: the glmm-refit stream), as a power study draws it, and
    fixture response ``child`` of it (:func:`_bootstrap_draws`).
    """
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=n)
    m, boot_seed = _stream_fit(spec, dataset)
    return m, _bootstrap_draws(m, boot_seed, child + 1)[child]


def test_glmm_warm_refit_does_not_stop_early():
    """A refit reaches the cold-start optimum.

    At this child some quadrature nodes overflow e^t while their weight
    underflows; a 0 * inf in the gradient once stopped L-BFGS-B at a point
    2.0 lower in log-likelihood.  (The parent is now at omega = 0, so the
    refit starts from its own GLM fit.)
    """
    m, y = _glmm_refit_case(dataset=31, child=35)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warm = refit(m, y)
    cold = fit_model(Dataset(y=y, X=m.dataset.X, group=m.dataset.group),
                     ModelKind.GLMM_POISSON_RI)
    assert abs(warm.loglik - cold.loglik) <= 1e-6


def _lbfgsb_reference(m, y):
    """Maximized log-likelihood of a poisson-ri refit by scipy's L-BFGS-B
    over ``(beta, v)`` with v in [0, 1e8], from the parent start: the
    optimizer the lockstep fitter replaced, kept as its reference."""
    X, group = m.dataset.X, m.dataset.group
    Y = y[None, :]
    S, log_fact = fitters._response_constants(group, m.dataset.n_groups, Y)

    def nll(th):
        f, g, _ = fitters._glmm_objective(X, group, Y, th[None, :], S,
                                          log_fact)
        if not np.isfinite(f[0]):
            return 1e12, np.zeros(th.size)
        return f[0], g[0]

    res = minimize(nll, np.append(m.beta, m.scale ** 2), method="L-BFGS-B",
                   jac=True,
                   bounds=[(None, None)] * m.p + [(0.0, 1e8)],
                   options={"maxiter": 200, "ftol": 1e-9, "gtol": 1e-7})
    return -res.fun


def _glmm_refit_batch(dataset: int, B: int = 99):
    """Parent fit and its first B - 1 bootstrap responses, as
    :func:`_glmm_refit_case` draws them one at a time."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=40)
    m, boot_seed = _stream_fit(spec, dataset)
    return m, _bootstrap_draws(m, boot_seed, B - 1)


def _engine_draw(n: int, dataset: int, row: int):
    """Parent fit of a dataset of the n-point poisson-ri null stream at
    seed 1 and row ``row`` of the engine's one batched draw at B=99."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=n)
    m, boot_seed = _stream_fit(spec, dataset)
    return m, simulate_response(m, 98 + 9, np.random.default_rng(boot_seed))[row]


def test_glmm_refit_many_reaches_lbfgsb_optimum():
    """On the first five datasets of the glmm-refit stream, every row's
    maximized log-likelihood is at least the L-BFGS-B value - 1e-6, and
    so is every refit of the engine draws that the log-omega optimizer
    once left short of its optimum: rows 56 (optimum at omega 0.029) and
    3 (at omega 0) of dataset 14 of that stream, row 69 of dataset 30 of
    the n=10 stream (at omega 0), and row 32 of dataset 22 of the n=20
    stream (at omega 0.46, log-likelihood -13.6568201716; drawn when the
    parent's omega sat at the log-omega floor 1e-6, so it is given here;
    its parent is now at omega 0, so the refit starts from its GLM fit)."""
    worst = math.inf
    for dataset in range(5):
        m, Y = _glmm_refit_batch(dataset)
        _, logliks, failed = refit_many(m, Y)
        assert not failed.any()
        for r, y in enumerate(Y):
            worst = min(worst, logliks[r] - _lbfgsb_reference(m, y))
    cases = [_engine_draw(n, dataset, row)
             for n, dataset, row in ((40, 14, 56), (40, 14, 3), (10, 30, 69))]
    y = np.zeros(20)
    y[[11, 15, 17, 18, 19]] = [1.0, 3.0, 4.0, 1.0, 2.0]
    cases.append((_engine_draw(20, 22, 0)[0], y))
    for m, y in cases:
        worst = min(worst, refit(m, y).loglik - _lbfgsb_reference(m, y))
    assert refit(*cases[-1]).loglik >= -13.6568201716 - 1e-9
    assert worst >= -1e-6, worst


def test_glmm_refit_rows_at_zero_variance_are_kkt_points():
    """v = 0 is a KKT point of a refit exactly when U <= 0 at the row's
    GLM fit, U Dean's score (the slope of the log-likelihood in v there).
    Of the engine draws of dataset 0 of the n=10 poisson-ri null stream
    (B=99), every row that ends at omega = 0 has U <= 0, and none ends
    below its GLM log-likelihood; rows end on both sides of the bound."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=10)
    m, boot_seed = _stream_fit(spec, 0)
    d = m.dataset
    Y = simulate_response(m, 98 + 9, np.random.default_rng(boot_seed))
    fits = fit_rows(spec.model, d, Y, start=m)
    glm = fit_rows(ModelKind.GLM_POISSON, d, Y)
    ok = ~fits.failed & ~glm.failed
    assert np.array_equal(fits.failed, glm.failed)
    at_zero = ok & (fits.scale == 0.0)
    assert 10 <= at_zero.sum() <= ok.sum() - 10
    for r in np.flatnonzero(ok):
        U = _dean_score(d.X, d.group, Y[r], glm.beta[r])[2]
        assert not (at_zero[r] and U > 0.0), (r, U)
        assert fits.loglik[r] >= glm.loglik[r] - 1e-9, r


def test_glmm_refit_of_a_parent_at_zero_variance_starts_from_its_glm_fit():
    """A parent at omega = 0 is the GLM and says nothing of where v lies,
    so each of its refits starts from its own GLM fit and v = 0.25 and
    returns the better of its optimum and that GLM fit.  Two responses of
    the n=10 poisson-ri null stream whose refits from such a parent,
    started from its estimates at v just above 0 by a quasi-Newton
    search, ended at the worse of two modes: row 9 of the engine
    draw of dataset 6 stopped at its GLM fit, a KKT point (U = -0.38),
    0.034 below the interior mode at omega 0.51; and a response of
    dataset 22 (row 83 drawn when its parent sat at the log-omega floor)
    stopped at an interior optimum 0.0055 below its GLM fit."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=10)
    m6, y6 = _engine_draw(10, 6, 9)
    m22, _ = _stream_fit(spec, 22)
    y22 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 1.0, 1.0, 3.0])
    for m, y, best in ((m6, y6, -8.7369174579), (m22, y22, -9.6764185940)):
        assert m.scale == 0.0
        fit = refit(m, y)
        glm = fit_model(Dataset(y=y, X=m.dataset.X), ModelKind.GLM_POISSON)
        assert fit.loglik >= glm.loglik
        assert fit.loglik >= best - 1e-9, fit.loglik
    assert refit(m6, y6).scale > 0.5


def test_glmm_fit_is_at_least_its_glm_fit():
    """A fresh fit returns the better of its optimum and its GLM start,
    the model at omega = 0.  The observed fit of dataset 6 of the n=10
    poisson-ri null stream ended 0.0146 below its GLM log-likelihood, at
    omega 0.722, under the log-omega optimizer; it is now at omega = 0,
    the GLM fit."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=10)
    m, _ = _stream_fit(spec, 6)
    glm = fit_model(Dataset(y=m.dataset.y, X=m.dataset.X),
                    ModelKind.GLM_POISSON)
    assert m.loglik >= glm.loglik
    assert m.scale == 0.0
    assert np.allclose(m.beta, glm.beta, rtol=0.0, atol=1e-6)


def test_glmm_refits_of_a_built_boundary_fit_equal_those_of_the_fit():
    """A poisson-ri model built at scale 0 from the estimates of a fit at
    omega = 0 (dataset 6 of the n=10 poisson-ri null stream) is that fit:
    its refits of 20 of the fit's draws are the same, bit for bit."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=10)
    m, boot_seed = _stream_fit(spec, 6)
    assert m.scale == 0.0
    built = FittedModel(kind=m.kind, beta=m.beta, eta=m.eta,
                        loglik=m.loglik, dataset=m.dataset, scale=0.0)
    Y = simulate_response(m, 20, np.random.default_rng(boot_seed))
    for a, b in zip(refit_many(m, Y), refit_many(built, Y)):
        assert np.array_equal(a, b)


def test_glmm_line_search_ends_at_its_first_sufficient_decrease(monkeypatch):
    """A refit of dataset 9 of the n=10 poisson-ri null stream whose
    optimum is at omega 0 (row 52 of the engine's one batched draw at
    B=99 when the parent's omega sat at the log-omega fit's floor 1e-6;
    the parent is now at omega 0 and draws no intercepts, so the response
    is given here, and the refit starts from its GLM fit).  A weak Wolfe
    search at that floor grew and bisected its steps for a whole 30
    trials (37 kernel calls in all); a search that ends at the first
    sufficient decrease refits it in at most 20 (8 by quasi-Newton, 5 by
    Newton), to the same optimum."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=10)
    m, _ = _stream_fit(spec, 9)
    y = np.array([1.0, 1.0, 0.0, 1.0, 2.0, 1.0, 3.0, 5.0, 5.0, 8.0])
    calls = []

    objective = fitters._glmm_objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(fitters, "_glmm_objective", counted)
    fit = refit(m, y)
    assert len(calls) <= 20, len(calls)
    assert fit.scale == 0.0
    assert abs(fit.loglik - (-14.040167544694384)) <= 1e-9, fit.loglik


def test_glmm_failed_line_search_fails_the_row(monkeypatch):
    """A row whose line search finds no sufficient decrease in 30 trials
    is not a fit: it fails with :class:`NonConvergence`, whose message
    names the line search, at the last point it accepted (here its
    start), and the other rows of the batch are bit-identical to a run
    where every search succeeds.  Every trial of row 2 of the first
    glmm-refit batch is made to fail by adding 1e3, more than the row's
    whole decrease from its start, to its trial values."""
    m, Y = _glmm_refit_batch(0, B=6)
    d = m.dataset
    X0 = np.tile(np.append(m.beta, m.scale ** 2), (Y.shape[0], 1))
    plain = glmm_rows(d.X, d.group, Y, X0)
    assert not plain.errors
    target = 2
    objective = fitters._glmm_objective
    f0 = objective(d.X, d.group, Y[target:target + 1], X0[:1],
                   *fitters._response_constants(
                       d.group, d.n_groups, Y[target:target + 1]))[0][0]
    assert plain.loglik[target] + f0 < 1e3
    calls, trials = [], []

    def failing(X, group, Yc, x, S, log_fact):
        f, g, H = objective(X, group, Yc, x, S, log_fact)
        row = np.all(Yc == Y[target], axis=1)
        if calls and row.any():     # the first call evaluates the starts
            f = f.copy()
            f[row] += 1e3
            trials.append(1)
        calls.append(1)
        return f, g, H

    monkeypatch.setattr(fitters, "_glmm_objective", failing)
    fits = glmm_rows(d.X, d.group, Y, X0)
    assert set(fits.errors) == {target}
    error = fits.errors[target]
    assert isinstance(error, NonConvergence)
    assert str(error) == ("Newton found no finite optimum: its line search "
                          "found no sufficient decrease")
    assert len(trials) == 30
    assert np.array_equal(error.beta, X0[target, :-1])
    others = [r for r in range(Y.shape[0]) if r != target]
    for field in ("beta", "eta", "loglik", "scale"):
        assert np.array_equal(getattr(fits, field)[others],
                              getattr(plain, field)[others]), field


def test_glmm_objective_rows_out_of_range_alone():
    """In a batch where one row's linear predictors exceed 500, that row
    gets +inf and a zero gradient and Hessian, and the other rows equal a
    batch without it, bit for bit."""
    m, Y = _glmm_refit_batch(0, B=4)
    d = m.dataset
    x = np.tile(np.append(m.beta, m.scale ** 2), (3, 1))
    x[1, 0] = 600.0
    S, log_fact = fitters._response_constants(d.group, d.n_groups, Y)
    f, g, H = fitters._glmm_objective(d.X, d.group, Y, x, S, log_fact)
    assert f[1] == np.inf and np.all(g[1] == 0.0) and np.all(H[1] == 0.0)
    keep = [0, 2]
    f2, g2, H2 = fitters._glmm_objective(d.X, d.group, Y[keep], x[keep],
                                         S[keep], log_fact[keep])
    assert np.all(np.isfinite(f2))
    assert np.array_equal(f[keep], f2) and np.array_equal(g[keep], g2)
    assert np.array_equal(H[keep], H2)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("G", [1, 5])
def test_glmm_objective_row_is_the_same_alone_and_in_any_batch(G, p):
    """Row r of the kernel, its value, gradient and Hessian, is the same,
    bit for bit, alone, in a batch of two and in the whole batch of 98,
    on a batch that mixes the series about v = 0 (v = 0, and v > 0 small
    enough), the quadrature, and a row whose linear predictors exceed
    500: the node max and the node and observation sums do not depend on
    the batch, with one column (the intercept alone, where a single row's
    observation sum has no other axis) or two."""
    rng = np.random.default_rng(23)
    n, R = 40, 98
    X = np.column_stack([np.ones(n), (np.arange(n) + 0.5) / n])[:, :p]
    group = np.arange(n) % G
    Y = rng.poisson(np.exp(0.5 + (np.arange(n) + 0.5) / n),
                    size=(R, n)).astype(float)
    x = np.column_stack([rng.normal(0.5, 0.3, R), rng.normal(1.0, 0.3, R),
                         rng.uniform(0.01, 2.0, R)])[:, [*range(p), 2]]
    x[0:20:2, -1] = 0.0
    x[1:20:2, -1] = 1e-13
    x[20, 0] = 600.0
    S, log_fact = fitters._response_constants(group, G, Y)
    with np.errstate(over="ignore"):    # row 20's means overflow
        E = fitters._group_sums(group, G,
                                np.exp(fitters._rows_eta(X, x[:, :-1])))
        P = x[:, -1] * (E + (S - E) ** 2).max(axis=1)
    series = P <= fitters._SERIES_MAX
    assert series[0:20:2].all() and series[1:20:2].all()
    assert not series[21:].any()

    def kernel(rows):
        return fitters._glmm_objective(X, group, Y[rows], x[rows], S[rows],
                                       log_fact[rows])

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    f, g, H = kernel(np.arange(R))
    assert f[20] == np.inf and np.all(g[20] == 0.0) and np.all(H[20] == 0.0)
    assert np.all(np.isfinite(np.delete(f, 20)))
    for r in range(R):
        for rows in ([r], [r, (r + 37) % R], [(r + 61) % R, r]):
            fr, gr, Hr = kernel(np.array(rows))
            i = rows.index(r)
            assert same(fr[i], f[r]) and same(gr[i], g[r]), (r, rows)
            assert same(Hr[i], H[r]), (r, rows)


def test_glmm_rows_with_no_finite_start_fail_at_once():
    """A row whose start is not finite (linear predictors above 500, so
    the kernel gives +inf) fails with NonConvergence at its start, with
    no search; a batch of such rows alone returns at once."""
    m, Y = _glmm_refit_batch(0, B=3)
    d = m.dataset
    x0 = np.tile(np.append(m.beta, m.scale ** 2), (2, 1))
    x0[:, 0] = 600.0
    fits = glmm_rows(d.X, d.group, Y, x0)
    assert set(fits.errors) == {0, 1}
    assert all(isinstance(e, NonConvergence) for e in fits.errors.values())
    assert all(str(e) == "Newton found no finite optimum: the likelihood "
               "is not finite at its start" for e in fits.errors.values())
    assert np.array_equal(fits.beta, x0[:, :-1])
    assert np.all(fits.loglik == -np.inf)


def test_glmm_rows_stopped_by_the_iteration_cap_say_so(monkeypatch):
    """A row that is still moving after _MAX_ITER iterations fails with
    the message that names the cap, not the one of a start that is not
    finite."""
    m, Y = _glmm_refit_batch(0, B=9)
    d = m.dataset
    x0 = np.tile(np.append(m.beta, m.scale ** 2), (len(Y), 1))
    monkeypatch.setattr(fitters, "_MAX_ITER", 1)
    fits = glmm_rows(d.X, d.group, Y, x0)
    assert fits.errors
    for e in fits.errors.values():
        assert isinstance(e, NonConvergence)
        assert str(e) == "Newton found no finite optimum in 1 iterations"


def test_glmm_refit_kernel_calls_per_batch(monkeypatch):
    """``refit_many`` of the first five glmm-refit batches takes at most
    30 kernel calls per batch on average: 10.6 by Newton, against 14.4 by
    the quasi-Newton search it replaced, 17.0 when every row's line
    search ended before any row moved on, and 38.2 before rows with omega
    at the floor got there in one step."""
    batches = [_glmm_refit_batch(dataset) for dataset in range(5)]
    calls = []

    objective = fitters._glmm_objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(fitters, "_glmm_objective", counted)
    for m, Y in batches:
        refit_many(m, Y)
    assert len(calls) / 5 <= 30, len(calls) / 5


def test_glmm_refit_batch_takes_its_slowest_rows_kernel_calls(monkeypatch):
    """Each kernel call takes one trial of every row still moving, so
    ``refit_many`` of each of the first five glmm-refit batches takes
    exactly as many kernel calls as its slowest row refitted alone (a
    quasi-Newton batch whose line searches all ended together took 19 /
    15 / 16 / 17 / 18 calls against 16 / 14 / 14 / 14 / 14; Newton takes
    10 / 9 / 11 / 11 / 12)."""
    batches = [_glmm_refit_batch(dataset) for dataset in range(5)]
    calls = []

    objective = fitters._glmm_objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(fitters, "_glmm_objective", counted)
    for m, Y in batches:
        alone = []
        for y in Y:
            calls.clear()
            fit_rows(ModelKind.GLMM_POISSON_RI, m.dataset, y[None, :],
                     start=m)
            alone.append(len(calls))
        calls.clear()
        refit_many(m, Y)
        assert len(calls) == max(alone), (len(calls), max(alone))


def test_glmm_kernel_does_not_overflow_where_the_curvature_does():
    """At omega = 1e-6 and linear predictors up to 444.5 (inside the
    optimizer's eta <= 500 guard, so it evaluates such trials), K_g^2
    overflows; the derivative it divides is 0 and no warning is raised.
    There (S_g - E_g)^2 overflows too, so the point is no place for the
    series about v = 0: the kernel is the quadrature, and finite."""
    n = 40
    X = np.column_stack([np.ones(n), (np.arange(n) + 0.5) / n])
    y = np.array([0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 2, 1, 0, 1, 0, 1, 1, 2, 0,
                  1, 2, 2, 0, 3, 2, 2, 3, 2, 2, 5, 7, 4, 8, 5, 7, 13, 5, 15,
                  11, 10], dtype=float)
    beta = np.array([444.81024154, -24.38388091])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = glmm_marginal_loglik(beta, 1e-6, X, y, np.arange(n) % 5)
        _, grad, hess = _loglik_grad(np.append(beta, 1e-12)[None, :], X,
                                     y[None, :], np.arange(n) % 5)
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert np.all(np.isfinite(hess))


def test_glmm_kernel_uses_the_series_only_where_it_holds():
    """The series l_GLM + U v about v = 0 holds while v E_g and v (S_g -
    E_g)^2 are small, not for every small v.  At beta = (22, 0) on a
    10-point design, E_g is about 7e9 and U v about +6.4e10 at v = 5e-10,
    so the series would give a log-likelihood of +2.8e10; the kernel is
    the quadrature there.  Its value is a log-probability, at most 0, and
    at least the mean of the conditional log-likelihood over the
    intercepts (Jensen), l_GLM - sum exp(eta) (e^(v/2) - 1)."""
    n = 10
    X = np.column_stack([np.ones(n), (np.arange(n) + 0.5) / n])
    y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 8.0])
    group = np.arange(n) % 5
    beta = np.array([22.0, 0.0])
    v = 5e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = glmm_marginal_loglik(beta, math.sqrt(v), X, y, group)
    glm, _, U = _dean_score(X, group, y, beta)
    assert glm + U * v > 1e10
    jensen = glm - np.exp(X @ beta).sum() * math.expm1(0.5 * v)
    assert jensen <= value <= 0.0, (jensen, value)


def test_glmm_mode_search_converges_where_the_exponential_dominates():
    """At the overflow point above, E_g e^u dwarfs 1/omega^2 = 1e12, so a
    Newton step moves a mode by only about 1 and 50 of them stopped at
    -50 with h'(u) about -2e171, against a root near -410.  The closed
    form finds the root: |h'(u)| <= 1e-8 K_g."""
    n = 40
    X = np.column_stack([np.ones(n), (np.arange(n) + 0.5) / n])
    y = np.array([0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 2, 1, 0, 1, 0, 1, 1, 2, 0,
                  1, 2, 2, 0, 3, 2, 2, 3, 2, 2, 5, 7, 4, 8, 5, 7, 13, 5, 15,
                  11, 10], dtype=float)
    group = np.arange(n) % 5
    beta = np.array([444.81024154, -24.38388091])
    omega = np.array([1e-6])
    S = np.bincount(group, weights=y)[None, :]
    E = np.bincount(group, weights=np.exp(X @ beta))[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u, K = fitters._group_modes(S, E, omega)
    h1 = S - E * np.exp(u) - u / omega[0] ** 2
    assert np.all(u < -400.0)
    assert np.all(np.abs(h1) <= 1e-8 * K), (u, h1, K)


def test_glmm_underflowed_means_give_the_exact_mode_and_no_finite_value():
    """With every mean underflowed to 0 (E_g = 0) and omega = 1e4, the
    mode is S_g omega^2 exactly, with curvature 1/omega^2.  There e^t
    overflows at the nodes, so E_g e^t is unknown: the row's value is not
    finite and its gradient 0, with no warning, and the other row of the
    batch is computed as alone, bit for bit."""
    n = 6
    X = np.column_stack([np.ones(n), np.arange(n) / n])
    Y = np.tile([1.0, 0.0, 2.0, 0.0, 1.0, 3.0], (2, 1))
    group = np.arange(n) % 2
    beta = np.array([[-800.0, 0.0], [0.1, 0.2]])
    omega = np.array([1e4, 0.5])
    S = np.bincount(group, weights=Y[0])[None, :]
    E = np.bincount(group, weights=np.exp(X @ beta[0]))[None, :]
    assert np.all(E == 0.0) and np.all(S > 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u, K = fitters._group_modes(S, E, omega[:1])
        x = np.column_stack([beta, omega ** 2])
        value, grad, hess = _loglik_grad(x, X, Y, group)
        alone = _loglik_grad(x[1:], X, Y[1:], group)
    assert np.array_equal(u, S * omega[0] ** 2)
    assert np.array_equal(K, np.full(S.shape, 1.0 / omega[0] ** 2))
    assert not np.isfinite(value[0]) and np.all(grad[0] == 0.0)
    assert np.all(hess[0] == 0.0)
    assert value[1] == alone[0][0] and np.array_equal(grad[1], alone[1][0])
    assert np.array_equal(hess[1], alone[2][0])


def test_glmm_kernel_at_the_ceiling_with_every_node_overflowed():
    """A trial point of a refit of dataset 237 of the n=10 poisson-ri null
    stream (seed 1, B=99): omega at its ceiling and E_g subnormal, so
    E_g e^t is inf at every node and the largest node term is -inf.  The
    row gets +inf and a zero gradient, with no warning."""
    n = 10
    X = np.column_stack([np.ones(n), (np.arange(n) + 0.5) / n])
    y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 8.0])
    x = np.array([[-899.3042082689942, 173.61838669034208, 1e8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f, g, H = _loglik_grad(x, X, y[None, :], np.arange(n) % 5)
    assert f[0] == -np.inf and np.all(g[0] == 0.0) and np.all(H[0] == 0.0)


def test_glmm_kernel_where_only_the_second_node_terms_overflow():
    """At a group of zero counts with E_g = 7.5 and v about 1.5e5, the
    widest node offset y from the mode is 698.5: e^y is finite there but
    e^y y^2 is not, and the node's weight underflows to 0.  That node
    carries no derivative, so the row's value, gradient and Hessian are
    finite, and the same, bit for bit, alone and in a batch with a row
    whose widest offset is 720 (where e^y overflows too);
    ``glmm_marginal_loglik`` is finite there."""
    n = 8
    X = np.column_stack([np.ones(n), (np.arange(n) + 0.5) / n])
    group = np.arange(n) % 2
    y = np.array([0.0, 3.0, 0.0, 1.0, 0.0, 4.0, 0.0, 2.0])
    beta = np.array([0.5, 0.3])
    v = np.array([150599.8, 160784.3])
    S = np.bincount(group, weights=y)
    E = np.bincount(group, weights=np.exp(X @ beta))
    # y = z_k / sqrt(K_g), K_g the curvature at the mode
    K = fitters._group_modes(np.tile(S, (2, 1)), np.tile(E, (2, 1)),
                             np.sqrt(v))[1]
    widest = fitters._GH_Z.max() / np.sqrt(K.min(axis=1))
    assert 697.0 < widest[0] < 700.0 and widest[1] >= 700.0, widest
    x = np.column_stack([np.tile(beta, (2, 1)), v])
    Y = np.tile(y, (2, 1))
    f, g, H = _loglik_grad(x, X, Y, group)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))
    assert np.all(np.isfinite(H))
    for rows in ([0], [1, 0]):
        fr, gr, Hr = _loglik_grad(x[rows], X, Y[rows], group)
        i = rows.index(0)
        assert fr[i] == f[0] and np.array_equal(gr[i], g[0])
        assert np.array_equal(Hr[i], H[0])
    value = glmm_marginal_loglik(beta, math.sqrt(v[0]), X, y, group)
    assert value == f[0]


def _lambert_w_of_exp(L):
    """W(e^L) by an independent route: scipy's ``lambertw`` of e^L up to
    L = 700, above it 30 Newton steps on w + log w = L from L - log L."""
    if L <= 700.0:
        return lambertw(math.exp(L), tol=1e-15).real
    w = L - math.log(L)
    for _ in range(30):
        w -= (w + math.log(w) - L) / (1.0 + 1.0 / w)
    return w


def test_group_modes_lambert_w_matches_an_independent_one():
    """The modes are u = S w^2 - W(e^L), L = log(E w^2) + S w^2.  Over
    omega in {1e-6, 0.05, 1, 1e4}, S in {0, 1, 1000} and E in {0, 1e-300,
    1, 1e200}, the log-form W is within 1e-14 relative of an independent
    one wherever W is a normal double, and exactly 0 at E = 0, where u =
    S w^2; the curvatures are (W + 1) / w^2, and a Newton step on h'(u) =
    S - E e^u - u / w^2 from each mode moves it by at most 1e-14 max(1,
    |u|) (1.4e-6 at omega = 1e4, S = 1000, E = 1 from S w^2 - W, which
    cancels there)."""
    grid = np.array([(w, s, e) for w in (1e-6, 0.05, 1.0, 1e4)
                     for s in (0.0, 1.0, 1000.0)
                     for e in (0.0, 1e-300, 1.0, 1e200)])
    omega, S, E = grid[:, 0], grid[:, 1:2], grid[:, 2:3]
    w2 = omega[:, None] ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(divide="ignore"):
            L = np.log(E) + np.log(w2) + S * w2
        W = fitters._lambert_w_exp(L)
        u, K = fitters._group_modes(S, E, omega)
    assert np.array_equal(K, (W + 1.0) / w2)
    zero = E == 0.0
    assert np.all(W[zero] == 0.0)
    assert np.array_equal(u[zero], (S * w2)[zero])
    live = ~zero
    step = (S[live] - E[live] * np.exp(u[live]) - u[live] / w2[live]) / K[live]
    assert np.all(np.abs(step) <= 1e-14 * np.maximum(1.0, np.abs(u[live])))
    ref = np.array([_lambert_w_of_exp(x) for x in L[live]])
    normal = ref >= np.finfo(float).tiny
    assert normal.sum() >= 30
    rel = np.abs(W[live][normal] - ref[normal]) / ref[normal]
    assert rel.max() <= 1e-14, rel.max()


def _in_node_loglik(beta, omega, X, Y, group):
    """Adaptive Gauss-Hermite log-likelihoods of the rows of ``Y`` with
    the terms constant in t, A_g = sum_g (y eta - log y!) and the normal
    constant, inside every node term of the log-sum-exp: the formulation
    the kernel used before they moved outside it."""
    G = int(group.max()) + 1
    eta = beta @ X.T

    def sums(W):
        return np.array([np.bincount(group, weights=w, minlength=G)
                         for w in W])

    A = sums(Y * eta - gammaln(Y + 1.0))
    S, E = sums(Y), sums(np.exp(eta))
    u, K = fitters._group_modes(S, E, omega)
    w = omega[:, None, None]
    sig = 1.0 / np.sqrt(K)
    x, wts = np.polynomial.hermite.hermgauss(15)
    t = u[:, :, None] + sig[:, :, None] * math.sqrt(2.0) * x
    h = (A[:, :, None] + S[:, :, None] * t - E[:, :, None] * np.exp(t)
         - t * t / (2.0 * w * w) - np.log(w) - 0.5 * math.log(2.0 * math.pi))
    contrib = logsumexp(np.log(wts) + x ** 2 + h, axis=2)
    return np.sum(contrib + 0.5 * math.log(2.0) + np.log(sig), axis=1)


def test_glmm_constant_terms_outside_the_node_sums_keep_the_value():
    """The kernel adds y.eta - sum log y! and the normal constant outside
    the log-sum-exp over the nodes.  Its value matches the in-node
    formulation to 1e-12 relative: on the first five glmm-refit parents
    and their bootstrap rows, at the parent's estimates and at each
    row's own where the kernel is the quadrature (v max_g (E_g + (S_g -
    E_g)^2) above ``_SERIES_MAX``), and at a point with counts in the
    hundreds."""
    worst = 0.0

    def check(beta, omega, X, Y, group):
        nonlocal worst
        G = int(group.max()) + 1
        S = fitters._group_sums(group, G, Y)
        E = fitters._group_sums(group, G, np.exp(fitters._rows_eta(X, beta)))
        far = (omega ** 2 * (E + (S - E) ** 2).max(axis=1)
               > fitters._SERIES_MAX)
        beta, omega, Y = beta[far], omega[far], Y[far]
        value = _loglik_grad(np.column_stack([beta, omega ** 2]), X, Y,
                             group)[0]
        ref = _in_node_loglik(beta, omega, X, Y, group)
        worst = max(worst, np.max(np.abs(value - ref) / np.abs(ref)))

    for dataset in range(5):
        m, Y = _glmm_refit_batch(dataset)
        d = m.dataset
        Y = np.vstack([d.y, Y])
        R = Y.shape[0]
        check(np.tile(m.beta, (R, 1)), np.full(R, m.scale), d.X, Y, d.group)
        fits = fit_rows(ModelKind.GLMM_POISSON_RI, d, Y, start=m)
        assert not fits.errors
        check(fits.beta, fits.scale, d.X, Y, d.group)
    rng = np.random.default_rng(15)
    n = 60
    X = np.column_stack([np.ones(n), np.linspace(0.0, 1.0, n)])
    group = np.arange(n) % 6
    eps = rng.normal(0.0, 0.3, 6)[group]
    beta = np.array([[5.5, 1.0]])
    y = rng.poisson(np.exp(X @ beta[0] + eps)).astype(float)
    assert y.min() >= 100
    check(beta, np.array([0.3]), X, y[None, :], group)
    assert worst <= 1e-12, worst


def test_glmm_fresh_rows_with_an_indefinite_start_fit_as_alone():
    """Without a parent, a row starts from its GLM estimates and v = 0.25
    with the kernel's Hessian there.  Of the 98 engine draws of dataset 7
    of the glmm-refit stream, 2 to 10 have a start Hessian in (beta, w),
    v = a (e^w - 1), a = G / sum exp(X beta), that is not positive
    definite (4 of them), so :func:`glmm_rows` takes their first steps
    with w decoupled.  Every row of the batch equals its fit alone, bit
    for bit, and none ends more than 1e-6 below the L-BFGS-B optimum."""
    kind = ModelKind.GLMM_POISSON_RI
    spec = ScenarioSpec(model=kind, violation=Violation.NULL_OK, n=40)
    m, boot_seed = _stream_fit(spec, 7)
    d = m.dataset
    Y = simulate_response(m, 98 + 9, np.random.default_rng(boot_seed))[:98]
    glm = glm_rows(d.X, Y)
    assert not glm.errors
    v = 0.25
    _, grad, hess = _loglik_grad(
        np.column_stack([glm.beta, np.full(len(Y), v)]), d.X, Y, d.group)
    # the negated log-likelihood's Hessian in (beta, w): dv/dw = d2v/dw2
    # = v + a
    J = v + d.n_groups / np.exp(fitters._rows_eta(d.X, glm.beta)).sum(axis=1)
    H = -hess
    H[:, -1] *= J[:, None]
    H[:, :, -1] *= J[:, None]
    H[:, -1, -1] -= grad[:, -1] * J
    lam = np.linalg.eigvalsh(H)
    indefinite = lam[:, 0] <= 1e-8 * np.abs(lam).max(axis=1)
    assert 2 <= indefinite.sum() <= 10, np.flatnonzero(indefinite)
    batch = fit_rows(kind, d, Y)
    assert not batch.errors
    worst = math.inf
    for r, y in enumerate(Y):
        alone = fit_rows(kind, d, Y[r:r + 1])
        assert np.array_equal(alone.beta[0], batch.beta[r])
        assert alone.loglik[0] == batch.loglik[r]
        assert alone.scale[0] == batch.scale[r]
        worst = min(worst, batch.loglik[r] - _lbfgsb_reference(m, y))
    assert worst >= -1e-6, worst


def test_glmm_fit_kernel_calls(monkeypatch):
    """``fit_model`` of the first 40 datasets of the glmm-refit stream
    takes at most 10 kernel calls on average, the one that evaluates the
    start included: 5.53 by Newton, against 8.35 by the quasi-Newton
    search it replaced (from a central-difference curvature) and 11.25
    by that search from the identity."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=40)
    datasets = [_stream_fit(spec, i)[0].dataset for i in range(40)]
    calls = []

    objective = fitters._glmm_objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(fitters, "_glmm_objective", counted)
    for d in datasets:
        fit_model(d, ModelKind.GLMM_POISSON_RI)
    assert len(calls) / 40 <= 10, len(calls) / 40


def test_glmm_refit_all_zero_response_raises_separation():
    """An all-zero response has its estimate on the boundary, as the GLM
    start used to report; so the replaced bootstrap draws of a sparse
    random-intercept model are exactly its draws without a finite MLE,
    its all-zero draws among them."""
    n = 12
    X = np.column_stack([np.ones(n), np.linspace(0.0, 1.0, n)])
    d = Dataset(y=[0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1], X=X,
                group=np.arange(n) % 3)
    m = fit_model(d, ModelKind.GLMM_POISSON_RI)
    with pytest.raises(Separation):
        refit(m, np.zeros(n))
    B, seed = 99, 4
    reps = simulate_replicates(m, B, seed)
    Y = simulate_response(m, B - 1 + int(0.1 * B), np.random.default_rng(seed))
    drawn = Y[:B - 1 + reps.n_failed]
    no_mle = fitters._no_mle_rows(X, drawn)
    zero = np.flatnonzero(~drawn.any(axis=1))
    assert reps.n_failed == len(no_mle) and zero.size > 0
    assert set(zero) <= set(no_mle)
    # the last row drawn filled the last slot
    assert len(drawn) - 1 not in no_mle


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


def _glmm_refit_rows(m, Y):
    """``glmm_rows`` of the rows of ``Y`` from the start ``fit_rows``
    gives every refit of ``m``, its ``(beta, omega^2)``."""
    return glmm_rows(m.dataset.X, m.dataset.group, Y,
                     np.tile(np.append(m.beta, m.scale ** 2), (len(Y), 1)))


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
        lambda m, Y: _glmm_refit_rows(m, Y).beta),
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
            scale=1.0 if lm else 0.0)
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


def _toy_lm(scale=1.0, n=4):
    d = Dataset(y=np.zeros(n), X=np.ones((n, 1)))
    return FittedModel(kind=ModelKind.LM, beta=[0.0], eta=np.zeros(n),
                       loglik=0.0, dataset=d, scale=scale)


def test_simulate_lm_zero_sigma_returns_eta_exactly():
    m = _toy_lm(scale=0.0)
    stream = np.random.default_rng(1)
    out = simulate_response(m, 5, stream)
    assert out.shape == (5, m.n)
    assert np.array_equal(out, np.tile(m.eta, (5, 1)))
    # nothing was drawn
    assert stream.random() == np.random.default_rng(1).random()


def test_simulate_glm_mean_matches_rate(rng):
    d = Dataset(y=np.ones(5), X=np.ones((5, 1)))
    m = FittedModel(kind=ModelKind.GLM_POISSON, beta=[0.0], eta=np.zeros(5),
                    loglik=-5.0, dataset=d, scale=0.0)
    draws = simulate_response(m, 20000, rng).mean(axis=1)
    assert abs(draws.mean() - 1.0) < 0.02


def test_simulate_glmm_zero_omega_identical_to_glm():
    n = 6
    d = Dataset(y=np.ones(n), X=np.ones((n, 1)), group=np.arange(n) % 3)
    eta = np.linspace(-0.5, 0.5, n)
    mr = FittedModel(kind=ModelKind.GLMM_POISSON_RI, beta=[0.0], eta=eta,
                     loglik=-5.0, dataset=d, scale=0.0)
    mg = FittedModel(kind=ModelKind.GLM_POISSON, beta=[0.0], eta=eta,
                     loglik=-5.0, dataset=Dataset(y=np.ones(n), X=d.X),
                     scale=0.0)
    a = simulate_response(mr, 7, np.random.default_rng(5))
    b = simulate_response(mg, 7, np.random.default_rng(5))
    assert a.shape == (7, n)
    assert np.array_equal(a, b)


def _simulated_fit(kind, rng, n=30):
    x = np.linspace(0, 1, n)
    X = np.column_stack([np.ones(n), x])
    group = np.arange(n) % 5 if kind is ModelKind.GLMM_POISSON_RI else None
    if kind is ModelKind.LM:
        y = 1 + x + rng.normal(0, 0.3, n)
    else:
        eps = rng.normal(0, 0.8, 5)[np.arange(n) % 5]
        y = rng.poisson(np.exp(1 + x + eps)).astype(float)
    return fit_model(Dataset(y=y, X=X, group=group), kind)


def test_simulate_is_bit_reproducible(rng):
    """Every class's batched draw is a float (R, n) array, reproducible
    bit for bit from the same stream state."""
    for kind in ModelKind:
        m = _simulated_fit(kind, rng)
        for R in (1, 17):
            a = simulate_response(m, R, np.random.default_rng(123))
            assert a.shape == (R, m.n) and a.dtype == float
            assert np.array_equal(
                a, simulate_response(m, R, np.random.default_rng(123)))


@pytest.mark.parametrize("kind", [ModelKind.LM, ModelKind.GLM_POISSON],
                         ids=lambda k: k.value)
def test_simulate_rows_are_prefix_stable(kind, rng):
    """For lm and poisson, the first R rows of a batch of R' > R rows are
    the batch of R rows, and each row is the one-row draw it would be
    after the rows before it."""
    m = _simulated_fit(kind, rng)
    big = simulate_response(m, 40, np.random.default_rng(9))
    for R in (1, 7, 39):
        assert np.array_equal(
            simulate_response(m, R, np.random.default_rng(9)), big[:R])
    stream = np.random.default_rng(9)
    rows = [simulate_response(m, 1, stream)[0] for _ in range(40)]
    assert np.array_equal(np.array(rows), big)


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
        want = norm.logpdf(y, loc=m.eta, scale=m.scale).sum()
    elif kind is ModelKind.GLM_POISSON:
        want = poisson.logpmf(y, np.exp(m.eta)).sum()
    else:
        want = glmm_marginal_loglik(m.beta, m.scale, X, y, group)
    assert abs(want - m.loglik) < 1e-10


def test_refit_reproduces_fit_on_same_data(rng):
    n = 30
    x = np.linspace(0, 1, n)
    X = np.column_stack([np.ones(n), x])
    y = rng.poisson(np.exp(0.2 + x)).astype(float)
    m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
    m2 = refit(m, y)
    assert np.max(np.abs(m2.beta - m.beta)) < 1e-12

