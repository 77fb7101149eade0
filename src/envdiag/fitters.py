"""Maximum-likelihood fitting for the three supported model classes.

* Gaussian linear model, solved by least squares.
* Poisson log-linear GLM, solved by iteratively reweighted least squares
  with step halving (deviance is non-increasing by construction).
* Poisson log-linear model with a random intercept per group, solved by
  quasi-Newton optimization of an adaptive Gauss-Hermite approximation to
  the marginal likelihood (nodes recentred at each group's conditional
  mode).  One kernel returns the approximation and its exact gradient,
  differentiated through the modes and curvatures (Pinheiro & Bates
  1995); bootstrap refits start from the parent fit.

All fitters return an immutable :class:`~envdiag.data.FittedModel`;
``simulate_response`` and ``refit``, with the residuals of
:mod:`envdiag.residuals`, complete the simulate / refit / residuals
capability contract consumed by the bootstrap engine.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import gammaln, xlogy

from .data import (
    Dataset,
    EnvdiagError,
    FittedModel,
    ModelKind,
    RankDeficient,
)

# Variance floor keeping log-densities finite for zero-residual fits.
_VAR_FLOOR = np.finfo(float).tiny

# Machine epsilon, for rank tolerances as in numpy.linalg.matrix_rank.
_EPS = np.finfo(float).eps

_OMEGA_FLOOR = 1e-6
_OMEGA_CEIL = 1e4


class NonConvergence(EnvdiagError):
    """Iteration budget exhausted before the convergence criterion."""

    def __init__(self, msg: str, beta: Optional[np.ndarray] = None):
        super().__init__(msg)
        self.beta = beta


class Separation(EnvdiagError):
    """The Poisson likelihood has no finite maximizer.

    ``direction`` is the certificate: a unit vector d with X_i d = 0 on
    every row with a positive count, X_i d <= 0 on every zero row and
    X_i d < 0 on at least one.  The likelihood rises without bound along
    d, so the estimate lies on the boundary (some fitted means are 0).
    """

    def __init__(self, msg: str, direction: np.ndarray):
        super().__init__(msg)
        self.direction = direction


# Iteration budget (IRLS iterations; twice as many quasi-Newton ones) and
# relative change in the objective at which the iterative fitters stop.
_MAX_ITER = 100
_TOL = 1e-9

# The 15-node Gauss-Hermite rule behind the random-intercept likelihood:
# scaled nodes sqrt(2) x_k and log w_k + x_k^2 (read-only).
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(15)
_GH_Z = math.sqrt(2.0) * _GH_X
_GH_LOG_WX = np.log(_GH_W) + _GH_X**2
_GH_Z.setflags(write=False)
_GH_LOG_WX.setflags(write=False)


# ---------------------------------------------------------------------
# log-likelihood kernels
# ---------------------------------------------------------------------


def _gaussian_loglik(y: np.ndarray, mean: np.ndarray, sigma: float) -> float:
    n = y.shape[0]
    var = max(sigma * sigma, _VAR_FLOOR)
    sse = float(np.sum((y - mean) ** 2))
    return -0.5 * (n * math.log(2.0 * math.pi * var) + sse / var)


def _poisson_loglik(y: np.ndarray, eta: np.ndarray) -> float:
    return float(np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0)))


def _check_poisson_response(X: np.ndarray, y: np.ndarray) -> None:
    """Raise unless ``y`` is a count vector with a finite Poisson MLE on ``X``.

    The estimate exists if and only if no b != 0 has X_i b = 0 on every
    row with y_i > 0 and X_i b <= 0 on every row with y_i = 0 (Haberman
    1974; Santos Silva & Tenreyro 2010).  Positive rows of full column
    rank rule such b out.  Otherwise one linear program over their null
    space N minimizes sum X_i N c over the zero rows subject to
    -1 <= X_i N c <= 0.  Its optimum is 0 or at most -1 (scaling a
    separating direction reaches the bound); a negative optimum raises
    :class:`Separation` with the direction N c.
    """
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise ValueError("Poisson response must be nonnegative integers")
    pos = y > 0
    Xp = X[pos]
    s = np.linalg.svd(Xp, compute_uv=False)
    rank = int(np.count_nonzero(s > s.max(initial=0.0) * max(Xp.shape) * _EPS))
    if rank == X.shape[1]:
        return
    null = np.linalg.svd(Xp)[2][rank:].T   # null space of the positive rows
    A = X[~pos] @ null
    lp = linprog(A.sum(axis=0), A_ub=np.vstack([A, -A]),
                 b_ub=np.repeat([0.0, 1.0], len(A)), bounds=(None, None))
    if lp.status != 0:
        raise NonConvergence(f"existence check failed: {lp.message}")
    if lp.fun < -0.5:
        d = null @ lp.x
        raise Separation(
            "no finite maximum-likelihood estimate: the zero counts are "
            "separated; estimate on the boundary",
            direction=d / np.linalg.norm(d))


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    return float(2.0 * np.sum(xlogy(y, y / mu) - (y - mu)))


def glmm_marginal_loglik(
    beta: np.ndarray,
    omega: float,
    X: np.ndarray,
    y: np.ndarray,
    group: np.ndarray,
) -> float:
    """Adaptive Gauss-Hermite marginal log-likelihood of the
    random-intercept Poisson model.

    Each group's contribution integrates the conditional Poisson
    likelihood against a centred normal with sd ``omega``.  The nodes are
    recentred at the group's conditional mode and rescaled by the
    curvature there.  ``omega == 0`` collapses exactly to the ordinary
    Poisson log-likelihood.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if omega == 0.0:
        return _poisson_loglik(y, X @ beta)
    return _glmm_loglik_grad(beta, omega, X, y, group)[0]


def _group_modes(
    S: np.ndarray, E: np.ndarray, omega: float, u0: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional modes and curvatures of h_g, by damped Newton.

    h_g'(u) = S - E e^u - u/w^2 is strictly decreasing, so the root is
    unique; steps are clipped to keep e^u in range.
    """
    inv_w2 = 1.0 / (omega * omega)
    u = np.zeros_like(S) if u0 is None else u0.copy()
    for _ in range(50):
        Eu = E * np.exp(u)
        g = S - Eu - u * inv_w2
        h = -Eu - inv_w2
        step = g / h
        np.clip(step, -4.0, 4.0, out=step)
        u -= step
        if np.max(np.abs(step)) < 1e-10:
            break
    curv = E * np.exp(u) + inv_w2    # -h''(u)
    return u, curv


def _glmm_loglik_grad(
    beta: np.ndarray,
    omega: float,
    X: np.ndarray,
    y: np.ndarray,
    group: np.ndarray,
    u0: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray]:
    """Adaptive Gauss-Hermite log-likelihood and its exact gradient in
    ``(beta, log omega)``, for ``omega > 0``.

    Group g contributes ``l_g = log int exp(h_g(t)) dt`` with
      h_g(t) = A_g + S_g t - E_g e^t - c t^2/2 - log(w sqrt(2 pi)),
    c = 1/w^2, approximated at the mode u_g (h_g'(u_g) = 0) with scale
    sigma_g = K_g^(-1/2), K_g = E_g e^u_g + c.  Both u_g and sigma_g move
    with E_g and c, so the derivatives add their paths (implicit
    differentiation of h_g'(u_g) = 0: du/dE = -e^u/K, du/dc = -u/K) to
    the softmax-weighted node terms.  With dl_g/dA_g = 1, the beta
    gradient is ``X'y + X'(exp(eta) * dl/dE[group])``.  Nodes whose
    weight underflows to zero carry no gradient, even where ``e^t``
    overflows.  ``u0``, if given, warm-starts the mode search and
    receives the new modes.
    """
    eta = X @ beta
    G = int(group.max()) + 1
    mu = np.exp(eta)
    A = np.bincount(group, weights=y * eta - gammaln(y + 1.0), minlength=G)
    S = np.bincount(group, weights=y, minlength=G)
    E = np.bincount(group, weights=mu, minlength=G)

    u, K = _group_modes(S, E, omega, u0)
    if u0 is not None:
        u0[:] = u  # warm start for the next objective evaluation
    c = 1.0 / (omega * omega)
    sig = 1.0 / np.sqrt(K)
    t = u[:, None] + sig[:, None] * _GH_Z[None, :]
    with np.errstate(over="ignore"):
        et = np.exp(t)
        h = (
            A[:, None]
            + S[:, None] * t
            - E[:, None] * et
            - t * t / (2.0 * omega * omega)
            - math.log(omega)
            - 0.5 * math.log(2.0 * math.pi)
        )
        logw = _GH_LOG_WX[None, :] + h
        top = np.max(logw, axis=1)
        p = np.exp(logw - top[:, None])
        total = np.sum(p, axis=1)
        contrib = top + np.log(total)
    value = float(np.sum(contrib + 0.5 * math.log(2.0) + np.log(sig)))
    if not math.isfinite(value):
        return value, np.zeros(beta.size + 1)

    p /= total[:, None]
    et[p == 0.0] = 0.0
    dh = S[:, None] - E[:, None] * et - c * t            # h'(t) at the nodes
    p_et = np.sum(p * et, axis=1)
    p_dh = np.sum(p * dh, axis=1)
    p_dhz = np.sum(p * dh * _GH_Z[None, :], axis=1)
    p_t2 = np.sum(p * t * t, axis=1)
    eu = np.exp(u)
    # t_k = u + sigma z_k; d log sigma = -dK / (2K), d sigma = sigma d log sigma
    du_dE = -eu / K
    dlogsig_dE = -0.5 * eu * c / (K * K)
    dl_dE = (-p_et + du_dE * p_dh + sig * dlogsig_dE * p_dhz + dlogsig_dE)
    # log omega: dc = -2c, dh/d log w = c t^2 - 1 at fixed t
    du_ds = 2.0 * c * u / K
    dlogsig_ds = c * (1.0 - E * eu * u / K) / K
    dl_ds = (c * p_t2 - 1.0 + du_ds * p_dh + sig * dlogsig_ds * p_dhz
             + dlogsig_ds)
    grad_beta = X.T @ (y + mu * dl_dE[group])
    return value, np.append(grad_beta, np.sum(dl_ds))


# ---------------------------------------------------------------------
# fitters
# ---------------------------------------------------------------------


def fit_lm(d: Dataset) -> FittedModel:
    """Least-squares fit of the Gaussian linear model.

    ``sigma`` is the unbiased estimate ``sqrt(RSS / (n - p))`` (the value
    used for simulation and standardized residuals); the stored
    log-likelihood is the Gaussian log-likelihood of the data at
    ``(beta, sigma)``.  A zero-residual fit is returned with
    ``degenerate=True`` and ``sigma=0``.
    """
    y, X = d.y, d.X
    n, p = X.shape
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < p:
        raise RankDeficient(f"X has rank {rank} < p={p}")
    eta = X @ beta
    rss = float(np.sum((y - eta) ** 2))
    scale = float(np.sum(y * y)) + 1.0
    degenerate = rss <= 1e-28 * scale or n == p
    sigma = 0.0 if degenerate else math.sqrt(rss / (n - p))
    loglik = _gaussian_loglik(y, eta, sigma)
    return FittedModel(
        kind=ModelKind.LM,
        beta=beta,
        eta=eta,
        loglik=loglik,
        dataset=d,
        sigma=sigma,
        degenerate=degenerate,
    )


def _irls_start(y: np.ndarray, p: int) -> np.ndarray:
    # bounded away from the boundary even when the response is all zeros
    beta = np.zeros(p)
    beta[0] = math.log(float(np.mean(y)) + 0.1)
    return beta


def fit_glm_poisson(d: Dataset) -> FittedModel:
    """Poisson log-linear fit by iteratively reweighted least squares.

    Convergence is declared when the relative deviance change drops below
    1e-9, within 100 iterations; one extra Newton step is then taken so
    the returned estimate is accurate to machine precision rather than to
    the stopping tolerance.  Step halving keeps the deviance
    non-increasing.  A response with no finite estimate raises
    :class:`Separation` before any iteration.
    """
    y, X = d.y, d.X
    _check_poisson_response(X, y)
    n, p = X.shape

    beta = _irls_start(y, p)
    eta = X @ beta
    mu = np.exp(eta)
    dev = _poisson_deviance(y, mu)

    converged = False
    for _ in range(_MAX_ITER):
        z = eta + (y - mu) / mu
        w = np.sqrt(mu)
        beta_new, _, rank, _ = np.linalg.lstsq(X * w[:, None], z * w, rcond=None)
        if rank < p:
            raise RankDeficient("weighted design lost rank during IRLS")
        # step halving: retreat toward the previous iterate until the
        # deviance stops increasing
        step = beta_new - beta
        dev_new = math.inf
        for _half in range(30):
            eta_new = X @ (beta + step)
            with np.errstate(over="ignore"):
                mu_new = np.exp(eta_new)
            if mu_new.max() < math.inf:  # all finite; a NaN fails too
                dev_new = _poisson_deviance(y, mu_new)
                if dev_new <= dev:
                    break
            step *= 0.5
        if not dev_new <= dev:
            # no downhill step exists: numerically at the optimum already
            converged = True
            break
        beta = beta + step
        eta = X @ beta
        mu = np.exp(eta)
        assert dev_new <= dev  # deviance is non-increasing per iteration
        dev_prev, dev = dev, dev_new
        if abs(dev_prev - dev) < _TOL * (abs(dev) + 0.1):
            converged = True
            break
    if not converged:
        raise NonConvergence(
            f"IRLS did not converge in {_MAX_ITER} iterations", beta=beta
        )

    # one polishing Newton step (quadratic convergence squares the error),
    # accepted only if it does not move the deviance up
    z = eta + (y - mu) / mu
    w = np.sqrt(mu)
    beta_pol, _, _, _ = np.linalg.lstsq(X * w[:, None], z * w, rcond=None)
    eta_pol = X @ beta_pol
    with np.errstate(over="ignore"):
        mu_pol = np.exp(eta_pol)
    if np.all(np.isfinite(mu_pol)) and _poisson_deviance(y, mu_pol) <= dev + 1e-9:
        beta, eta = beta_pol, eta_pol

    return FittedModel(
        kind=ModelKind.GLM_POISSON,
        beta=beta,
        eta=eta,
        loglik=_poisson_loglik(y, eta),
        dataset=d,
    )


def _glmm_start(d: Dataset) -> np.ndarray:
    """GLM coefficients plus a moment-style guess for log omega."""
    glm = fit_glm_poisson(d)
    G = d.n_groups
    S = np.bincount(d.group, weights=d.y, minlength=G)
    E = np.bincount(d.group, weights=np.exp(glm.eta), minlength=G)
    u_hat = np.log((S + 0.5) / (E + 0.5))
    omega0 = float(np.std(u_hat, ddof=1)) if G > 1 else 0.5
    return np.append(glm.beta, _log_omega_start(omega0))


def _log_omega_start(omega: float) -> float:
    # away from the floor, where the omega gradient vanishes
    return math.log(min(max(omega, 0.05), 3.0))


def fit_glmm_poisson_ri(d: Dataset) -> FittedModel:
    """Random-intercept Poisson fit by quasi-Newton over (beta, log omega).

    The objective is the adaptive Gauss-Hermite marginal log-likelihood
    with 15 nodes; L-BFGS-B gets its exact gradient
    (differentiated through each group's conditional mode and curvature),
    so each iteration costs one objective evaluation.  The start is the
    Poisson GLM fit plus a moment guess for omega; bootstrap refits
    (:func:`refit`) start from the parent fit instead.  ``omega`` is
    optimized on the log scale with a floor at 1e-6; a fit pinned at the
    floor is returned with ``boundary_omega=True`` (the model then
    coincides with the plain GLM up to the floor).
    """
    if d.group is None:
        raise ValueError("random-intercept fit requires grouping labels")
    _check_poisson_response(d.X, d.y)
    return _maximize_glmm(d, _glmm_start(d))


def _maximize_glmm(d: Dataset, x0: np.ndarray) -> FittedModel:
    """L-BFGS-B over (beta, log omega) from ``x0``."""
    y, X, group = d.y, d.X, d.group
    mode_cache = np.zeros(d.n_groups)
    failed = (1e12, np.zeros(d.p + 1))

    def nll(params: np.ndarray) -> tuple[float, np.ndarray]:
        beta = params[:-1]
        if np.max(X @ beta) > 500.0:
            return failed
        value, grad = _glmm_loglik_grad(beta, math.exp(params[-1]), X, y,
                                        group, u0=mode_cache)
        if not math.isfinite(value):
            return failed
        return -value, -grad

    log_floor = math.log(_OMEGA_FLOOR)
    bounds = [(None, None)] * (d.p) + [(log_floor, math.log(_OMEGA_CEIL))]
    res = minimize(
        nll,
        x0,
        method="L-BFGS-B",
        jac=True,
        bounds=bounds,
        options={"maxiter": 2 * _MAX_ITER, "ftol": _TOL, "gtol": 1e-7},
    )
    if not res.success and res.status == 1:  # iteration/funcall budget
        raise NonConvergence("quasi-Newton exceeded its iteration budget",
                             beta=res.x[:-1])

    x = res.x
    if res.jac[-1] > 0.0 and x[-1] > log_floor:
        # Near the floor the objective flattens like omega^2, so the
        # relative-reduction stop can come well above it while it still
        # descends; the floor itself is one evaluation away.
        at_floor = np.append(x[:-1], log_floor)
        if nll(at_floor)[0] <= res.fun:
            x = at_floor
    beta = x[:-1]
    omega = math.exp(x[-1])
    boundary = bool(x[-1] <= log_floor + 1e-8)
    eta = X @ beta
    loglik = glmm_marginal_loglik(beta, omega, X, y, group)
    if not math.isfinite(loglik):
        raise NonConvergence("marginal likelihood not finite at the optimum",
                             beta=beta)
    return FittedModel(
        kind=ModelKind.GLMM_POISSON_RI,
        beta=beta,
        eta=eta,
        loglik=loglik,
        dataset=d,
        omega=omega,
        boundary_omega=boundary,
    )


def fit_model(d: Dataset, kind: ModelKind) -> FittedModel:
    """Dispatch to the fitter for ``kind``."""
    if kind is ModelKind.LM:
        return fit_lm(d)
    if kind is ModelKind.GLM_POISSON:
        return fit_glm_poisson(d)
    return fit_glmm_poisson_ri(d)


# ---------------------------------------------------------------------
# capability operations
# ---------------------------------------------------------------------


def simulate_response(m: FittedModel, stream: np.random.Generator) -> np.ndarray:
    """Draw one response vector from the fitted model.

    The random-intercept model simulates unconditionally: fresh group
    intercepts are drawn, then Poisson counts around them.  With
    ``omega == 0`` no intercepts are consumed from the stream, so the
    draw coincides with the plain GLM draw for the same stream state.
    """
    if m.kind is ModelKind.LM:
        if m.sigma == 0.0:
            return np.array(m.eta)
        return m.eta + m.sigma * stream.standard_normal(m.n)
    if m.kind is ModelKind.GLM_POISSON:
        return stream.poisson(np.exp(m.eta)).astype(float)
    group = m.dataset.group
    G = m.dataset.n_groups
    if m.omega > 0.0:
        eps = stream.normal(0.0, m.omega, size=G)
    else:
        eps = np.zeros(G)
    return stream.poisson(np.exp(m.eta + eps[group])).astype(float)


def refit(m: FittedModel, y_new: np.ndarray) -> FittedModel:
    """Fit the same model class to a new response, keeping X and group.

    A random-intercept refit starts from the parent's ``(beta, log
    omega)`` (omega clamped as in the top-level start) instead of a fresh
    GLM fit.  A Poisson response with no finite estimate raises
    :class:`Separation`, as it does for a top-level fit.
    """
    d_new = Dataset(y=np.asarray(y_new, dtype=float), X=m.dataset.X,
                    group=m.dataset.group)
    if m.kind is not ModelKind.GLMM_POISSON_RI:
        return fit_model(d_new, m.kind)
    _check_poisson_response(d_new.X, d_new.y)
    x0 = np.append(m.beta, _log_omega_start(m.omega))
    return _maximize_glmm(d_new, x0)


def log_likelihood(m: FittedModel, y: np.ndarray) -> float:
    """Log-likelihood of ``y`` at the fitted parameters.

    Gaussian density at ``(eta, sigma)`` for the linear model, Poisson
    mass at ``exp(eta)`` for the GLM, and the adaptive-quadrature marginal
    likelihood for the random-intercept model.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != m.eta.shape:
        raise ValueError("y is not conformable with the fitted model")
    if m.kind is ModelKind.LM:
        return _gaussian_loglik(y, m.eta, m.sigma)
    if m.kind is ModelKind.GLM_POISSON:
        return _poisson_loglik(y, m.eta)
    return glmm_marginal_loglik(m.beta, m.omega, m.dataset.X, y,
                                m.dataset.group)
