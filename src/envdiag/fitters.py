"""Maximum-likelihood fitting for the three supported model classes.

Every fit, refit and bootstrap refit is a row of :func:`fit_rows`, which
fits a batch of responses on one design by the class's kernel and
returns :class:`Fits`, mapping each failed row to the exception that
its fit alone raises.

* Gaussian linear model, solved by least squares from one thin QR for
  every response of a batch, :func:`lm_rows`.
* Poisson log-linear GLM, solved by iteratively reweighted least squares
  with step halving (deviance is non-increasing by construction).  One
  IRLS, :func:`glm_rows`, runs every response of a batch in lockstep,
  each with its own step halving and stop, after one existence check,
  :func:`_no_mle_rows`, has set aside the responses with no finite MLE.
* Poisson log-linear model with a random intercept per group, solved by
  Newton's method on an adaptive Gauss-Hermite approximation to the
  marginal likelihood (nodes recentred at each group's conditional mode,
  in closed form by the Lambert W function).  One kernel returns the
  approximation with its exact gradient and Hessian, differentiated
  through the modes and curvatures (Pinheiro & Bates 1995), for many
  responses at once.  One optimizer, :func:`glmm_rows`, runs a projected
  Newton per response in the variance omega^2 >= 0 (0 is the GLM
  exactly), after the same check, with an eigenvalue floor and an
  Armijo line search: a fit starts from its GLM estimates, a refit from
  the parent fit, each from the Hessian of its own likelihood there.
  Each kernel call takes one line-search trial of every response of a
  batch still moving; the terms that depend on the response alone are
  computed once per batch.

``fit_model`` and ``refit`` return the one row of :func:`fit_rows` as an
immutable :class:`~envdiag.data.FittedModel`;
``simulate_response``, with :mod:`envdiag.residuals`, completes the
capability contract consumed by the bootstrap engine.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.optimize import linprog
from scipy.special import gammaln, xlogy

from .data import (
    Dataset,
    EnvdiagError,
    FittedModel,
    ModelKind,
    RankDeficient,
)

# The least normal double: the variance floor keeping log-densities
# finite for zero-residual fits, and the floor of W in log W below.
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)

# Machine epsilon, for rank tolerances as in numpy.linalg.matrix_rank.
_EPS = np.finfo(float).eps

# Ceiling of the random-intercept variance v = omega^2, whose floor 0 is
# the GLM, and the bound of the series about v = 0 (:func:`_glmm_objective`).
_V_CEIL = 1e8
_SERIES_MAX = 3e-8


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


# Iteration budget of the iterative fitters (IRLS, and the random-intercept
# Newton) and the relative change in the deviance at which IRLS stops.
# The Newton stops where its step predicts a decrease of at most
# _NEWTON_TOL of the objective, about its remaining error: well below
# the IRLS tolerance, and a decrease the line search can still see.
_MAX_ITER = 100
_TOL = 1e-9
_NEWTON_TOL = 1e-12

# The 15-node Gauss-Hermite rule behind the random-intercept likelihood:
# scaled nodes z_k = sqrt(2) x_k and log w_k (read-only), shaped (15, 1,
# 1) for the kernel's node-first arrays.
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(15)
_GH_Z = (math.sqrt(2.0) * _GH_X)[:, None, None]
_GH_LOG_W = np.log(_GH_W)[:, None, None]
_GH_Z.setflags(write=False)
_GH_LOG_W.setflags(write=False)


# ---------------------------------------------------------------------
# log-likelihood kernels
# ---------------------------------------------------------------------


def _gaussian_loglik(y: np.ndarray, mean: np.ndarray, sigma):
    """Gaussian log-density of ``y`` (or of each row of ``y``).  At
    ``sigma == 0`` it is unbounded and taken as ``-(n/2) log(2 pi tiny)``:
    a degenerate ``lm`` fit's residue is rounding noise and counts as 0."""
    n = y.shape[-1]
    var = np.maximum(np.multiply(sigma, sigma), _TINY)
    sse = np.where(sigma == 0, 0.0, np.sum((y - mean) ** 2, axis=-1))
    return -0.5 * (n * np.log(2.0 * math.pi * var) + sse / var)


def _poisson_loglik(y: np.ndarray, eta: np.ndarray):
    """Poisson log-mass of ``y`` at means ``exp(eta)`` (or of each row)."""
    return np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0), axis=-1)


def _check_counts(Y: np.ndarray) -> None:
    """Raise ValueError unless every entry of ``Y`` is a nonnegative
    integer."""
    if np.any(Y < 0) or np.any(Y != np.floor(Y)):
        raise ValueError("Poisson response must be nonnegative integers")


def _no_mle_rows(X: np.ndarray, Y: np.ndarray) -> dict[int, EnvdiagError]:
    """Rows of ``Y`` (R, n) with no finite Poisson MLE on ``X``, each with
    the error a fit of it raises.

    The estimate exists if and only if no b != 0 has X_i b = 0 on every
    row with y_i > 0 and X_i b <= 0 on every row with y_i = 0 (Haberman
    1974; Santos Silva & Tenreyro 2010).  Positive rows of full column
    rank rule such b out: their rank comes from one stacked
    ``svd(compute_uv=False)`` of X with each row's zero-count rows zeroed,
    at tolerance ``max(n_pos, p) eps`` times the largest singular value,
    as ``numpy.linalg.matrix_rank`` counts it.  Only the rows of lower
    rank are looked at further.  A response with no positive count on a
    design with a column positive on every row is separated by minus
    that column's unit vector.  Otherwise one linear program over the
    null space N of the positive rows minimizes sum X_i N c over the zero
    rows subject to -1 <= X_i N c <= 0.  Its optimum is 0 or at most -1
    (scaling a separating direction reaches the bound); a negative
    optimum gives :class:`Separation` with the direction N c, an LP that
    fails :class:`NonConvergence`.  Raises ValueError unless every entry
    of ``Y`` is a nonnegative integer (:func:`_check_counts`).
    """
    _check_counts(Y)
    p = X.shape[1]
    pos = Y > 0
    n_pos = np.count_nonzero(pos, axis=1)
    s = np.linalg.svd(X * pos[:, :, None], compute_uv=False)
    tol = s.max(axis=1, initial=0.0) * np.maximum(n_pos, p) * _EPS
    rank = np.count_nonzero(s > tol[:, None], axis=1)
    errors = {}
    for r in np.flatnonzero(rank < p):
        positive = np.flatnonzero(np.all(X > 0.0, axis=0))
        if n_pos[r] == 0 and positive.size:
            d = -np.eye(p)[positive[0]]
        else:
            null = np.linalg.svd(X[pos[r]])[2][rank[r]:].T  # of positive rows
            A = X[~pos[r]] @ null
            lp = linprog(A.sum(axis=0), A_ub=np.vstack([A, -A]),
                         b_ub=np.repeat([0.0, 1.0], len(A)),
                         bounds=(None, None))
            if lp.status != 0:
                errors[int(r)] = NonConvergence(
                    f"existence check failed: {lp.message}")
                continue
            if lp.fun >= -0.5:
                continue
            d = null @ lp.x
        errors[int(r)] = Separation(
            "no finite maximum-likelihood estimate: the zero counts are "
            "separated; estimate on the boundary",
            direction=d / np.linalg.norm(d))
    return errors


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
    Poisson log-likelihood; otherwise the value is -inf where
    :func:`_glmm_objective` gives +inf.  Raises ValueError unless ``y``
    holds nonnegative integers, as :func:`fit_model` does.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    _check_counts(y)
    if omega == 0.0:
        return float(_poisson_loglik(y, X @ beta))
    Y = y[None, :]
    S, log_fact = _response_constants(group, int(group.max()) + 1, Y)
    f = _glmm_objective(X, group, Y, np.append(beta, omega * omega)[None],
                        S, log_fact)[0]
    return float(-f[0])


# Batched kernels work on R rows at once (R responses, or R parameter
# vectors) and keep every row independent of the others: only
# elementwise operations and reductions along a row's own axes, never a
# matrix product across rows, so a row's result does not depend on the
# batch it is computed in.  A sum runs over the last axis of a
# C-contiguous array, pairwise along each row's own elements, or is
# spelt out (:func:`_node_sum`): the order numpy takes over any other
# axis depends on the memory layout of the whole array.


def _rows_eta(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Linear predictors ``X beta_r`` of every row of ``beta`` (R, p)."""
    eta = beta[:, :1] * X[:, 0]
    for j in range(1, X.shape[1]):
        eta += beta[:, j:j + 1] * X[:, j]
    return eta


def _group_sums(group: np.ndarray, G: int, W: np.ndarray) -> np.ndarray:
    """Per-row group totals of ``W`` (R, n), as (R, G)."""
    R = W.shape[0]
    bins = (np.arange(R)[:, None] * G + group).ravel()
    return np.bincount(bins, weights=W.ravel(), minlength=R * G).reshape(R, G)


def _lambert_w_exp(L: np.ndarray) -> np.ndarray:
    """W(e^L), W the Lambert function, in log form (e^L is never formed):
    three steps W <- W / (1 + W) (1 + L - log W) from l (1 - log(1 + l) /
    (2 + l)), l = log(1 + e^L) (Iacono & Boyd 2017), to a relative error
    below 1e-14.  Below L = log(tiny), W = e^L and the steps keep it; W =
    0 where e^L underflows, L = -inf included."""
    l = np.logaddexp(0.0, L)
    W = l * (1.0 - np.log1p(l) / (2.0 + l))
    L1 = 1.0 + np.maximum(L, _LOG_TINY)
    for _ in range(3):
        W = W / (1.0 + W) * (L1 - np.log(np.maximum(W, _TINY)))
    return W


def _group_modes(S: np.ndarray, E: np.ndarray, omega: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Conditional modes and curvatures of h_g, in closed form.

    ``S`` and ``E`` are (R, G), ``omega`` is (R,).  h_g'(u) = S - E e^u -
    c u, c = 1/w^2, is strictly decreasing, so the root is unique: u =
    S w^2 - W, W = W(e^L) the Lambert function at L = log(E w^2) + S w^2
    (Corless et al. 1996), and the curvature there is -h''(u) = E e^u + c
    = c (W + 1).  Where W > 1, where S w^2 - W can cancel, u = log W -
    log(E w^2) instead (log W + W = L).  E = 0 gives W = 0 and u = S w^2;
    so does w = 0, the GLM, with u = 0 and an infinite curvature."""
    w2 = (omega * omega)[:, None]
    Sw2 = S * w2
    with np.errstate(divide="ignore"):    # -inf where E = 0 or w = 0
        log_Ew2 = np.log(E) + np.log(w2)
        W = _lambert_w_exp(log_Ew2 + Sw2)
        K = (W + 1.0) / w2
    u = np.where(W > 1.0, np.log(np.maximum(W, 1.0)) - log_Ew2, Sw2 - W)
    return u, K


def _response_constants(group: np.ndarray, G: int, Y: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Group totals (R, G) and sum log y! (R,) of every row of the counts
    ``Y``: the parts of the kernel that depend on the response alone.
    The log y! come from a table of log k! up to the largest count,
    where it has fewer entries than ``Y`` (bit for bit ``gammaln(y +
    1)``)."""
    top = Y.max(initial=0.0)
    if top < Y.size:
        log_fact = gammaln(np.arange(top + 1.0) + 1.0)[Y.astype(np.intp)]
    else:
        log_fact = gammaln(Y + 1.0)
    return _group_sums(group, G, Y), log_fact.sum(axis=1)


def _node_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis of ``a``, the 15 quadrature nodes, in one
    fixed order: the first eight pairwise, then the other seven one by
    one (numpy's pairwise order for 15 terms).  Only elementwise adds, so
    each entry's sum does not depend on the other axes."""
    h = a[0:8:2] + a[1:8:2]
    h = h[0::2] + h[1::2]
    s = h[0] + h[1]
    for k in range(8, 15):
        s += a[k]
    return s


def _glmm_objective(X: np.ndarray, group: np.ndarray, Y: np.ndarray,
                    x: np.ndarray, S: np.ndarray, log_fact: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negated adaptive Gauss-Hermite log-likelihoods, their exact
    gradients and their exact Hessians in ``(beta, v)``, v = omega^2, for
    R rows.

    Row r has response ``Y[r]`` (R, n), its constants ``S[r]`` and
    ``log_fact[r]`` (:func:`_response_constants`) and parameters ``x[r]``
    (R, p+1) = ``(beta, v)``, on the shared design ``X`` and ``group``.
    Group g contributes ``l_g = log int exp(h_g(t)) dt`` with
      h_g(t) = A_g + S_g t - E_g e^t - t^2/(2v) - log sqrt(2 pi v),
    A_g = sum_g (y eta - log y!).  The nodes are centred at the mode u_g
    (h_g'(u_g) = 0, in closed form by :func:`_group_modes`) and scaled by
    sigma_g = K_g^(-1/2), K_g = B_g + 1/v, B_g = E_g e^u_g.  About the
    mode, with kappa = v K = 1 + v B and m = S - B = u/v, the rule is
      l_g = A_g + S u - B - m u/2 - log(kappa)/2 - log(pi)/2
            + log sum_k w_k exp(r_k),
    the Laplace approximation and its correction, r_k = -B phi3(y_k) at
    the node offsets y_k = sigma z_k, phi3(y) = e^y - 1 - y - y^2/2 (h
    beyond its quadratic about the mode).  Its derivatives in E_g and v
    follow u, B, kappa and log sigma (du/dE = -v e^u / kappa, du/dv = m /
    kappa, dy = y dlog sigma): the Laplace part's with dh/du = 0 at the
    mode, the correction's as weighted node averages of the derivatives
    of r and their covariances.  Each of those node terms is a multiple
    of phi3, y phi2 or y^2 phi1, phi2 = phi3', phi1 = phi2', so six node
    sums give F_E, F_v, F_EE, F_Ev and F_vv (F = l_g - A_g), and no term
    is divided by a power of v: nothing cancels as v -> 0.  Nodes whose
    weight underflows to zero carry no derivative, even where e^y
    overflows.  With a_g = sum_g exp(eta) x and dl_g/dA_g = 1,
      dl/dbeta = X'y + sum_g F_E a_g,   dl/dv = sum_g F_v,
      d2l/dbeta dbeta' = sum_g [F_EE a_g a_g' + F_E sum_g exp(eta) x x'],
      d2l/dbeta dv = sum_g F_Ev a_g,    d2l/dv2 = sum_g F_vv.
    Where P = v max_g (E_g + (S_g - E_g)^2) is at most ``_SERIES_MAX``,
    the value is the series ``l_GLM + U v``, U = 1/2 sum_g [(S_g - E_g)^2
    - E_g] (Dean 1992), relative error about P, with its exact
    derivatives, so v = 0 gives the Poisson log-likelihood, its score, U
    and X' diag(exp(eta)) X; the series has no curvature in v, so its
    d2l/dv2 is that of the next term, sum_g [E_g^2/2 - E_g (S_g - E_g +
    1/2)^2], the quadrature's F_vv at v = 0.  A row whose linear
    predictors exceed 500 (the range exp() can take, with room), or whose
    value, gradient or Hessian is not finite, gets +inf and a zero
    gradient and Hessian.

    The node terms are laid out node first, (15, R, G); the node max is
    exact and the node sums take one fixed order (:func:`_node_sum`), so
    a row's result does not depend on the batch.
    """
    R, q = x.shape
    eta = _rows_eta(X, x[:, :-1])
    rows = slice(None)
    if not eta.max(initial=-np.inf) <= 500.0:
        rows = np.flatnonzero(eta.max(axis=1) <= 500.0)
        x, Y, eta, S, log_fact = (a[rows] for a in (x, Y, eta, S, log_fact))
    v = x[:, -1]
    G = S.shape[1]
    mu = np.exp(eta)
    E = _group_sums(group, G, mu)
    D = S - E
    A = (Y * eta).sum(axis=1) - log_fact
    # what overflows makes its row not finite, which the row pays for
    # below: D_g^2 only at means far beyond any optimum (there U = inf, so
    # the row is not finite at v = 0, 0 * inf), e^y only at nodes whose
    # weight underflows (:func:`_glmm_nodes`)
    with np.errstate(over="ignore", invalid="ignore"):
        D2 = D * D
        dl_dv = 0.5 * (D2 - E).sum(axis=1)    # U
        far = v * (D2 + E).max(axis=1) > _SERIES_MAX
        value = A - E.sum(axis=1) + dl_dv * v
        if far.all():
            value, dl_dE, dl_dv, F_EE, F_Ev, F_vv = _glmm_nodes(S, E, v, A)
        else:
            F_Ev = -(D + 0.5)
            dl_dE = np.where(far[:, None], 0.0, -1.0 + v[:, None] * F_Ev)
            F_EE = v[:, None] * np.ones(G)
            F_vv = (0.5 * E * E - E * F_Ev * F_Ev).sum(axis=1)
            (value[far], dl_dE[far], dl_dv[far], F_EE[far], F_Ev[far],
             F_vv[far]) = _glmm_nodes(S[far], E[far], v[far], A[far])

        p = q - 1
        Xt = np.ascontiguousarray(X.T)
        F_E_mu = mu * dl_dE[:, group]
        W = Y + F_E_mu
        f = -value
        g = np.empty(x.shape)
        g[:, :-1] = -(W[:, None, :] * Xt).sum(axis=2)
        g[:, -1] = -dl_dv
        # a_g (R', p, G), and the Hessian of the negated log-likelihood
        a = _group_sums(group, G, (mu[:, None, :] * Xt).reshape(-1, X.shape[0])
                        ).reshape(-1, p, G)
        XX = (Xt[:, None, :] * Xt).reshape(p * p, -1)
        H = np.empty(x.shape + (q,))
        H[:, :-1, :-1] = -(
            (F_E_mu[:, None, :] * XX).sum(axis=2).reshape(-1, p, p)
            + ((F_EE[:, None, :] * a)[:, :, None, :]
               * a[:, None, :, :]).sum(axis=3))
        H[:, -1, :-1] = H[:, :-1, -1] = -(F_Ev[:, None, :] * a).sum(axis=2)
        H[:, -1, -1] = -F_vv
        bad = ~(np.isfinite(f) & np.isfinite(g).all(axis=1)
                & np.isfinite(H).all(axis=(1, 2)))
    if bad.any():
        f[bad], g[bad], H[bad] = np.inf, 0.0, 0.0
    if isinstance(rows, slice):
        return f, g, H
    out = np.full(R, np.inf), np.zeros((R, q)), np.zeros((R, q, q))
    for whole, part in zip(out, (f, g, H)):
        whole[rows] = part
    return out


def _glmm_nodes(S: np.ndarray, E: np.ndarray, v: np.ndarray, A: np.ndarray
                ) -> tuple[np.ndarray, ...]:
    """The quadrature rows of :func:`_glmm_objective`: their values,
    dl/dE (R, G), dl/dv, F_EE (R, G), F_Ev (R, G) and F_vv (R,).  Run
    under the caller's ``errstate``, which ignores overflows; a row whose
    value is not finite has derivatives that may not be either."""
    G = S.shape[1]
    u, K = _group_modes(S, E, np.sqrt(v))
    vg = v[:, None]
    c = 1.0 / vg
    eu = np.exp(u)
    B = E * eu
    kap = vg * K
    m = c * u
    # node offsets y = sigma z from the mode and the basis of r = -B phi3(y)
    y = _GH_Z / np.sqrt(K)
    f1 = np.expm1(y)
    f2 = f1 - y
    f3 = f2 - 0.5 * y * y
    # -inf where e^y overflows; NaN there where B = 0 (the value is then
    # not finite), and where B = inf at every node
    logw = _GH_LOG_W - B * f3
    top = logw.max(axis=0)
    p = np.exp(logw - top)
    total = _node_sum(p)
    value = ((S * u - B - 0.5 * m * u - 0.5 * np.log(kap) + top
              + np.log(total)).sum(axis=1) + A - 0.5 * G * math.log(math.pi))
    p /= total
    g2y = f2 * y
    g1yy = f1 * y * y
    # a node whose weight underflowed carries no derivative, also where
    # its terms overflowed (e^y y^2 does from y = 697, e^y from y = 710)
    zero = p == 0.0
    f3[zero] = g2y[zero] = g1yy[zero] = 0.0
    prods = np.empty((15, 6) + p.shape[1:])
    np.multiply(p, f3, out=prods[:, 0])
    np.multiply(p, g2y, out=prods[:, 1])
    np.multiply(p, g1yy, out=prods[:, 2])
    np.multiply(prods[:, 0], f3, out=prods[:, 3])
    np.multiply(prods[:, 0], g2y, out=prods[:, 4])
    np.multiply(prods[:, 1], g2y, out=prods[:, 5])
    M3, M2, M1, V33, V32, V22 = _node_sum(prods)
    V33 -= M3 * M3
    V32 -= M3 * M2
    V22 -= M2 * M2

    # first derivatives in theta = (E, v), stacked (2, R, G), and second
    # ones, (2, 2, R, G), of u, B = E e^u, kappa = 1 + v B (u = v (S - B)
    # at the mode) and log sigma = (log v - log kappa) / 2; the node
    # offsets move as dy = y dlog sigma
    d = np.empty((4, 2) + B.shape)
    d_u, d_B, d_k, d_s = d
    np.multiply(-vg, eu, out=d_u[0])
    d_u[1] = m
    d_u /= kap
    d_B[0] = eu
    np.multiply(B, m, out=d_B[1])
    d_B /= kap
    np.multiply(vg, d_B, out=d_k)
    d_k[1] += B
    np.multiply(-0.5 / kap, d_k, out=d_s)
    d_s[1] += 0.5 * c
    own = np.zeros((2, 2) + B.shape)    # v's own terms in B and kappa
    own[1] += d_B
    own[:, 1] += d_B
    dd_B = B * d_u[:, None] * d_u - B * own
    dd_B[0] += eu * d_u
    dd_B[:, 0] += eu * d_u
    dd_B /= kap
    Z = (d_k[:, None] * d_k / kap - vg * dd_B - own) / kap  # -d2 log kappa
    ss = d_s[:, None] * d_s
    dd_s = 0.5 * Z + ss
    dd_s[1, 1] -= 0.5 * c * c
    # the Laplace part's: at fixed u (dh/du = 0 at the mode) -e^u in E
    # and m^2/2 in v, and those of -log(kappa)/2; the correction's:
    # <r_theta> and <r_theta phi> + Cov(r_theta, r_phi), r_theta =
    # -(B_theta phi3 + B s_theta y phi2)
    C = B * d_s
    Bs = d_B[:, None] * d_s
    BC = d_B[:, None] * C
    F2 = (0.5 * Z - dd_B * M3 - (Bs + Bs.swapaxes(0, 1) + B * dd_s) * M2
          - B * ss * M1 + d_B[:, None] * d_B * V33
          + (BC + BC.swapaxes(0, 1)) * V32 + C[:, None] * C * V22)
    F2[0] -= eu * d_u
    F2[1, 0] -= eu * d_u[1]
    F2[1, 1] -= m * d_B[1]
    dl_dE = -eu - 0.5 * d_k[0] / kap - (d_B[0] * M3 + C[0] * M2)
    dl_dv = 0.5 * m * m - 0.5 * d_k[1] / kap - (d_B[1] * M3 + C[1] * M2)
    F_EE, F_Ev, F_vv = F2[0, 0], F2[0, 1], F2[1, 1]
    return (value, dl_dE, dl_dv.sum(axis=1), F_EE, F_Ev,
            F_vv.sum(axis=1))


# ---------------------------------------------------------------------
# fitters
# ---------------------------------------------------------------------


class Fits(NamedTuple):
    """Fits of R responses on one design, one row each.

    ``beta`` (R, p) holds the estimates, ``eta`` (R, n) the marginal
    linear predictors ``X beta``, ``loglik`` (R,) the maximized
    log-likelihoods and ``scale`` (R,) sigma for ``lm``, omega for
    ``poisson-ri`` and 0 for ``poisson``.  ``errors`` maps each failed
    row to the exception that a fit of its response alone raises; the
    other entries of a failed row are meaningless.
    """

    beta: np.ndarray
    eta: np.ndarray
    loglik: np.ndarray
    scale: np.ndarray
    errors: dict[int, EnvdiagError]

    @property
    def failed(self) -> np.ndarray:
        """Mask (R,) of the rows in ``errors``."""
        mask = np.zeros(self.loglik.shape[0], dtype=bool)
        mask[list(self.errors)] = True
        return mask


def fit_rows(kind: ModelKind, d: Dataset, Y: np.ndarray,
             start: Optional[FittedModel] = None) -> Fits:
    """Fit the model class ``kind`` to every row of ``Y`` (R, n) on the
    design and grouping of ``d``: the one place where a response is
    fitted.  Row r does not depend on the other rows.

    ``lm`` rows go to :func:`lm_rows`.  For both Poisson classes, one
    :func:`_no_mle_rows` check of the batch comes first: the rows with no
    finite estimate fail with its error and no kernel sees them.
    ``poisson`` rows go to :func:`glm_rows`.  ``poisson-ri`` needs
    grouping labels (ValueError otherwise), and its rows go to
    :func:`glmm_rows`: a refit from the estimates ``(beta, omega^2)`` of
    the parent fit ``start``; a fit, and a refit of a parent at omega = 0
    (the exact GLM, whose bootstrap draws no intercepts: it says nothing
    of where v lies), from each row's GLM fit, whose failure is the
    row's, and v = 0.25, returning the better of its optimum and that
    GLM fit.  Only ``poisson-ri`` reads ``start``.
    """
    X = d.X
    if kind is ModelKind.LM:
        return lm_rows(X, Y)
    if kind is not ModelKind.GLM_POISSON and d.group is None:
        raise ValueError("model poisson-ri needs a group column")
    p = X.shape[1]
    errors = _no_mle_rows(X, Y)
    glm_start = start is None or start.scale == 0.0
    if kind is ModelKind.GLM_POISSON or glm_start:
        glm = _on_live_rows(Y, p, errors, lambda live: glm_rows(X, Y[live]))
        if kind is ModelKind.GLM_POISSON:
            return glm
        errors = glm.errors
        x0 = np.column_stack([glm.beta, np.full(len(Y), 0.25)])
    else:
        x0 = np.tile(np.append(start.beta, start.scale ** 2), (len(Y), 1))
    fits = _on_live_rows(
        Y, p, errors,
        lambda live: glmm_rows(X, d.group, Y[live], x0[live]))
    if glm_start:
        glm_better = glm.loglik >= fits.loglik
        for whole, limit in zip(fits[:4], glm[:4]):
            whole[glm_better] = limit[glm_better]
    return fits


def _on_live_rows(Y: np.ndarray, p: int, errors: dict[int, EnvdiagError],
                  kernel: Callable[[np.ndarray], Fits]) -> Fits:
    """Fits of every row of ``Y`` (R, n) on ``p`` columns, given the rows
    that failed already, ``errors``: ``kernel(live)`` fits the rows
    ``live`` of ``Y`` and is not called when every row failed.  Its rows
    and errors are scattered back; the entries of a failed row are 0."""
    R = Y.shape[0]
    live = np.flatnonzero([r not in errors for r in range(R)])
    if live.size == R:
        return kernel(live)
    fits = _failed_fits(Y, p, dict(errors))
    if live.size:
        part = kernel(live)
        for whole, rows in zip(fits, part[:4]):
            whole[live] = rows
        fits.errors.update({int(live[i]): e for i, e in part.errors.items()})
    return fits


def _failed_fits(Y: np.ndarray, p: int,
                 errors: dict[int, EnvdiagError]) -> Fits:
    """Zero fits of every row of ``Y`` (R, n) on ``p`` columns."""
    R = Y.shape[0]
    return Fits(np.zeros((R, p)), np.zeros(Y.shape), np.zeros(R),
                np.zeros(R), errors)


def lm_rows(X: np.ndarray, Y: np.ndarray) -> Fits:
    """Least-squares fits of every row of ``Y`` (R, n) on ``X``.

    From one thin QR, X = QR: ``Q'y`` and the fitted values ``Q Q'y``
    come from elementwise row sums and the estimates from one stacked
    ``solve`` against R, with no product across rows.  The scale is the
    unbiased ``sigma = sqrt(RSS / (n - p))`` (the value used for
    simulation and standardized residuals), 0 for a zero-residual fit,
    and the log-likelihood the Gaussian one at ``(eta, sigma)``.  If
    ``X`` has rank below ``p``, every row fails with
    :class:`~envdiag.data.RankDeficient`.
    """
    p = X.shape[1]
    rank = np.linalg.matrix_rank(X)
    if rank < p:
        return _failed_fits(Y, p, {
            r: RankDeficient(f"X has rank {rank} < p={p}")
            for r in range(Y.shape[0])})
    q, r = np.linalg.qr(X, mode="reduced")
    qt = np.ascontiguousarray(q.T)
    qty = (Y[:, None, :] * qt).sum(axis=2)
    eta = _rows_eta(q, qty)
    beta = np.linalg.solve(np.broadcast_to(r, (Y.shape[0],) + r.shape),
                           qty[:, :, None])[:, :, 0]
    raw = Y - eta
    sigma = _lm_sigma(np.sum(raw * raw, axis=1), Y, p)
    return Fits(beta, eta, _gaussian_loglik(Y, eta, sigma), sigma, {})


def _lm_sigma(rss, y: np.ndarray, p: int):
    """``sqrt(RSS / (n - p))`` of a response (or of each row of ``y``);
    0 for a zero-residual fit: RSS at rounding level of sum y^2, or n = p."""
    n = y.shape[-1]
    degenerate = (rss <= 1e-28 * (np.sum(y * y, axis=-1) + 1.0)) | (n == p)
    return np.where(degenerate, 0.0, np.sqrt(rss / max(n - p, 1)))


def _irls_start(Y: np.ndarray, p: int) -> np.ndarray:
    """IRLS start of every row of ``Y`` (R, n): intercept log(mean + 0.1),
    bounded away from the boundary even for an all-zero response."""
    beta = np.zeros((Y.shape[0], p))
    beta[:, 0] = np.log(Y.sum(axis=1) / Y.shape[1] + 0.1)
    return beta


def glm_rows(X: np.ndarray, Y: np.ndarray) -> Fits:
    """Poisson log-linear fits of every row of ``Y`` (R, n) by IRLS in lockstep.

    Each row follows the rules of a single fit (McCullagh & Nelder 1989,
    sec. 2.5) on its own: the start of :func:`_irls_start`; per iteration
    a Newton step from the weighted normal equations X' diag(mu) X d =
    X'(y - mu), then step halving (up to 30 trials, the last at 2^-29 of
    the step) until the deviance does not rise.  A row stops once the
    relative deviance change is below 1e-9, or when no trial goes
    downhill (it is numerically at the optimum already), and is then
    frozen.
    A stopped row takes one polishing Newton step, kept only if the
    deviance does not rise by more than 1e-9, so the estimate is
    accurate to machine precision rather than to the stopping tolerance.
    A row still moving after 100 iterations fails with
    :class:`NonConvergence` carrying its last iterate.

    The normal equations of every row are built from elementwise row
    sums and solved as one stacked ``solve``, with no product across
    rows, so a row's fit does not depend on the batch it is in.  A row
    whose normal equations have an eigenvalue at most ``max(n, p) eps``
    times their largest (the precision the eigenvalues of a Gram matrix
    carry) fails with :class:`~envdiag.data.RankDeficient`.  The scale
    is 0.  The response is not checked: see :func:`_no_mle_rows`.
    """
    R, n = Y.shape
    p = X.shape[1]
    Xt = np.ascontiguousarray(X.T)
    XX = (Xt[:, None, :] * Xt).reshape(p * p, n)    # products X_j X_k
    tol = max(n, p) * _EPS

    def newton(y, mu):
        """Newton steps at means ``mu``, and the rows whose weighted
        normal equations are singular (their step is 0)."""
        A = (mu[:, None, :] * XX).sum(axis=2).reshape(-1, p, p)
        score = ((y - mu)[:, None, :] * Xt).sum(axis=2)
        lam = np.linalg.eigvalsh(A)
        singular = lam[:, 0] <= tol * lam[:, -1]
        if singular.any():
            A[singular] = np.eye(p)
            score[singular] = 0.0
        return np.linalg.solve(A, score[:, :, None])[:, :, 0], singular

    def trial(y, c, beta):
        """Linear predictors, means and deviances at ``beta``; the
        deviance is inf where a mean overflows."""
        eta = _rows_eta(X, beta)
        mu = np.exp(eta)
        return eta, mu, 2.0 * (c - (y * eta - mu).sum(axis=1))

    # deviance 2 sum(y log(y/mu) - y + mu) = 2 (c - sum(y eta - mu))
    C = (xlogy(Y, Y) - Y).sum(axis=1)
    beta = _irls_start(Y, p)
    errors = {}
    with np.errstate(over="ignore"):
        eta, mu, dev = trial(Y, C, beta)
        # the state of the rows still iterating, ``live``: response,
        # deviance constant, beta, eta, mu and deviance; compacted only
        # when some row stops
        live = np.arange(R)
        y, c, b, e, m, d = Y, C, beta, eta, mu, dev
        for _ in range(_MAX_ITER):
            step, singular = newton(y, m)
            bt = b + step
            et, mt, dt = trial(y, c, bt)
            down = dt <= d
            if not down.all():
                halving = np.flatnonzero(~down)
                for scale in 0.5 ** np.arange(1, 30):
                    if halving.size == 0:
                        break
                    bh = b[halving] + scale * step[halving]
                    eh, mh, dh = trial(y[halving], c[halving], bh)
                    ok = dh <= d[halving]
                    h = halving[ok]
                    bt[h], et[h], mt[h], dt[h] = bh[ok], eh[ok], mh[ok], dh[ok]
                    down[h] = True
                    halving = halving[~ok]
                # no downhill step: the row is at its optimum already
                bt, et, mt = (np.where(down[:, None], new, old)
                              for new, old in ((bt, b), (et, e), (mt, m)))
                dt = np.where(down, dt, d)
            # relative deviance change: d - dt >= 0, and 0 where no step
            # went down or the step is 0 (singular rows)
            stop = d - dt < _TOL * (np.abs(dt) + 0.1)
            b, e, m, d = bt, et, mt, dt
            if stop.any():
                for r in live[singular]:    # a singular row always stops
                    errors[int(r)] = RankDeficient(
                        "weighted design lost rank during IRLS")
                if stop.all():
                    beta[live], eta[live], mu[live], dev[live] = b, e, m, d
                    break
                done = live[stop]
                beta[done], eta[done], mu[done], dev[done] = (
                    b[stop], e[stop], m[stop], d[stop])
                keep = ~stop
                live = live[keep]
                y, c, b, e, m, d = (a[keep] for a in (y, c, b, e, m, d))
        else:
            beta[live] = b
            for r in live:
                errors[int(r)] = NonConvergence(
                    f"IRLS did not converge in {_MAX_ITER} iterations",
                    beta=beta[r])

        # one polishing Newton step of every converged row: quadratic
        # convergence squares the error
        if errors:
            conv = np.flatnonzero([r not in errors for r in range(R)])
            y, c, b, e, m, d = (a[conv] for a in (Y, C, beta, eta, mu, dev))
        else:
            conv = slice(None)
            y, c, b, e, m, d = Y, C, beta, eta, mu, dev
        step, _ = newton(y, m)
        bt = b + step
        et, _, dt = trial(y, c, bt)
        better = (dt <= d + 1e-9)[:, None]
        beta[conv] = np.where(better, bt, b)
        eta[conv] = np.where(better, et, e)
    return Fits(beta, eta, _poisson_loglik(Y, eta), np.zeros(R), errors)


def _newton_steps(g: np.ndarray, H: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps -H^-1 g of R rows, H (R, q, q) with its eigenvalues
    taken in absolute value and floored at 1e-8 times the largest, so a
    step goes downhill where H is indefinite; and the mask of the rows
    whose H is positive definite above that floor.  One stacked ``eigh``
    and elementwise row sums, so a row's step does not depend on the
    batch."""
    lam, V = np.linalg.eigh(H)
    floor = 1e-8 * np.abs(lam).max(axis=1)
    Vg = (V * g[:, :, None]).sum(axis=1) / np.maximum(np.abs(lam),
                                                       floor[:, None])
    return -(V * Vg[:, None, :]).sum(axis=2), lam[:, 0] > floor


def glmm_rows(X: np.ndarray, group: np.ndarray, Y: np.ndarray,
              x0: np.ndarray) -> Fits:
    """Maximize the marginal likelihood of every row of ``Y`` in lockstep.

    One projected Newton per row from ``x0`` (R, p+1) = ``(beta, v)``, v
    = omega^2, over ``(beta, w)``, v = a (e^w - 1) with a = G / sum
    exp(X beta0) of the row's start: a group total has variance E_g +
    E_g^2 v to first order, so the information on v falls like 1/(v +
    a)^2, nearly constant in w, and w = 0 is v = 0 exactly.  Fits and
    refits start alike, from ``x0`` and the Hessian that
    :func:`_glmm_objective` returns there with the gradient.  Steps come
    from :func:`_newton_steps`; where the Hessian is not positive
    definite, w is decoupled from beta for the step (|h_ww| for h_ww).  A
    row's backtracking line search ends at its first trial that
    decreases the objective sufficiently (Armijo), and a trial that does
    not is cut back by quadratic interpolation to [0.1, 0.5] of its step
    (Nocedal & Wright 2006, sections 3.1 and 3.4).  Every kernel call
    evaluates one trial of every row still moving, so a batch takes as
    many calls as its slowest row alone.

    Trials are projected onto v in [0, 1e8] (Bertsekas 1982).  A row
    whose w is held at a bound, its gradient pointing out, or whose step
    would take w below 0 against a gradient that does not push it down,
    steps beta alone, by Newton on the free block.  At v = 0, the exact
    GLM (whose bootstrap draws no intercepts), the slope in v is -U, so a
    row stays there exactly when U <= 0.  A row stops when its projected
    gradient is at most 1e-7, or when the Hessian of its step is positive
    definite and the step predicts a decrease of at most 1e-12 of
    max(|objective|, 1); it is then frozen.  A row fails with
    :class:`NonConvergence`, whose message tells the three apart, when
    its objective is not finite at its start, when it is still moving
    after ``_MAX_ITER`` iterations, or when 30 trials of one search find
    no sufficient decrease.  The scale is omega.

    The loop holds the state of the rows still moving only, packed
    together; a row that stops leaves it, so a kernel call and the
    bookkeeping around it see no stopped row.
    """
    R, q = x0.shape
    G = int(group.max()) + 1
    S, log_fact = _response_constants(group, G, Y)
    a_w = G / np.exp(_rows_eta(X, x0[:, :-1])).sum(axis=1)

    def evaluate(rows, z):
        """The objective, gradient and Hessian in (beta, w) of the rows
        ``rows`` at ``z``."""
        x = z.copy()
        x[:, -1] = v = a_w[rows] * np.expm1(z[:, -1])
        f, g, H = _glmm_objective(X, group, Y[rows], x, S[rows],
                                  log_fact[rows])
        J = (v + a_w[rows])[:, None]    # dv/dw = d2v/dw2
        H[:, -1] *= J
        H[:, :, -1] *= J
        H[:, -1, -1] += g[:, -1] * J[:, 0]
        g[:, -1] *= J[:, 0]
        return f, g, H

    x = np.array(x0, dtype=float)
    x[:, -1] = np.log1p(x0[:, -1] / a_w)
    f, g, H = evaluate(slice(None), x)
    x_out, f_out = x.copy(), f.copy()
    why = {int(r): ": the likelihood is not finite at its start"
           for r in np.flatnonzero(~np.isfinite(f))}

    # the rows still moving, packed: live[i] is the batch row of entry i
    live = np.flatnonzero(np.isfinite(f))
    x, f, g, H = x[live], f[live], g[live], H[live]
    w_ceil = np.log1p(_V_CEIL / a_w[live])
    nit = np.zeros(live.size, dtype=int)
    tries = np.zeros(live.size, dtype=int)   # trials of the current search
    d = np.zeros((live.size, q))   # its direction
    t = np.zeros(live.size)   # and next step
    stop = np.zeros(live.size, dtype=bool)
    while live.size:
        # the Newton step of a row between searches (a searching row keeps
        # its direction), of beta alone where w is held or stepped below 0
        # against its gradient; where H is not positive definite, with w
        # decoupled
        new = tries == 0
        gn, Hn = g[new], H[new]
        dn, pd = _newton_steps(gn, Hn)
        w, gw = x[new, -1], gn[:, -1]
        held = ((w <= 0.0) & (gw > 0.0)) | ((w >= w_ceil[new]) & (gw < 0.0))
        fixed = held | (~(gw > 0.0) & (w + dn[:, -1] < 0.0))
        redo = fixed | ~pd
        if redo.any():
            gb, Hb, fb = gn[redo], Hn[redo], fixed[redo]
            gb[fb, -1] = Hb[:, -1, :-1] = Hb[:, :-1, -1] = 0.0
            Hb[:, -1, -1] = np.where(fb, 1.0, np.abs(Hb[:, -1, -1]))
            dn[redo], pdb = _newton_steps(gb, Hb)
            pd[redo] = pdb & fb
        gn[held, -1] = 0.0    # the projected gradient
        # stop tests, with the decrease the step predicts, -gn'dn / 2
        stop[new] |= ~(np.abs(gn).max(axis=1) > 1e-7) | (pd & ~(
            -(gn * dn).sum(axis=1) > 2.0 * _NEWTON_TOL * np.maximum(
                np.abs(f[new]), 1.0)))
        over = new & ~stop & (nit >= _MAX_ITER)
        stop |= over
        why.update((int(r), f" in {_MAX_ITER} iterations") for r in live[over])
        nit += new
        d[new], t[new] = dn, 1.0
        if stop.any():
            done = live[stop]
            x_out[done], f_out[done] = x[stop], f[stop]
            keep = ~stop
            live = live[keep]
            if live.size == 0:
                break
            x, f, g, H, w_ceil, nit, tries, d, t = (
                a[keep] for a in (x, f, g, H, w_ceil, nit, tries, d, t))
            stop = np.zeros(live.size, dtype=bool)

        # one trial of every moving row, backtracking on sufficient
        # decrease (Armijo)
        xt = x + t[:, None] * d
        xt[:, -1] = np.minimum(np.maximum(xt[:, -1], 0.0), w_ceil)
        ft, gt, Ht = evaluate(live, xt)
        armijo = ft <= f + 1e-4 * np.minimum((g * (xt - x)).sum(axis=1), 0.0)
        if armijo.all():
            tries[:] = 0
            x, f, g, H = xt, ft, gt, Ht
            continue
        slope = (g * d).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_quad = -slope * t * t / (2.0 * (ft - f - slope * t))
        t_quad = np.where(np.isfinite(t_quad), t_quad, 0.1 * t)
        t = np.minimum(np.maximum(t_quad, 0.1 * t), 0.5 * t)
        tries = np.where(armijo, 0, tries + 1)
        lost = tries == 30
        stop |= lost
        why.update((int(r), ": its line search found no sufficient decrease")
                   for r in live[lost])
        x = np.where(armijo[:, None], xt, x)
        f = np.where(armijo, ft, f)
        g = np.where(armijo[:, None], gt, g)
        H = np.where(armijo[:, None, None], Ht, H)
    beta = x_out[:, :-1]
    errors = {r: NonConvergence("Newton found no finite optimum" + why[r],
                                beta=beta[r]) for r in sorted(why)}
    return Fits(beta, _rows_eta(X, beta), -f_out,
                np.sqrt(a_w * np.expm1(x_out[:, -1])), errors)


def _fitted(kind: ModelKind, d: Dataset, fits: Fits) -> FittedModel:
    """The one row of ``fits``, a fit of ``d.y``, as a
    :class:`FittedModel`; raises the row's error if it failed."""
    if fits.errors:
        raise fits.errors[0]
    return FittedModel(
        kind=kind,
        beta=fits.beta[0],
        eta=fits.eta[0],
        loglik=float(fits.loglik[0]),
        dataset=d,
        scale=float(fits.scale[0]),
    )


def fit_model(d: Dataset, kind: ModelKind) -> FittedModel:
    """Fit the model class ``kind`` to ``d``: the one-row case of
    :func:`fit_rows`.  Raises :class:`~envdiag.data.RankDeficient`,
    :class:`Separation` or :class:`NonConvergence` as the row failed."""
    return _fitted(kind, d, fit_rows(kind, d, d.y[None, :]))


# ---------------------------------------------------------------------
# capability operations
# ---------------------------------------------------------------------


def simulate_response(m: FittedModel, R: int,
                      stream: np.random.Generator) -> np.ndarray:
    """Draw ``R`` response vectors from the fitted model, as rows (R, n).

    All rows come from ``stream`` in one call per distribution: for
    ``lm`` the ``(R, n)`` standard normals (none with ``sigma == 0``,
    which gives R copies of ``eta``), for ``poisson`` the ``(R, n)``
    counts, so row r of both is the same whatever R is.  The
    random-intercept model simulates unconditionally: the ``(R, G)``
    fresh group intercepts are drawn first, then the counts around them.
    With ``omega == 0`` no intercepts are consumed from the stream, so
    the draw coincides with the plain GLM draw for the same stream state.
    """
    shape = (R, m.n)
    if m.kind is ModelKind.LM:
        if m.scale == 0.0:
            return np.tile(m.eta, (R, 1))
        return m.eta + m.scale * stream.standard_normal(shape)
    eta = m.eta
    if m.scale > 0.0:
        eps = stream.normal(0.0, m.scale, size=(R, m.dataset.n_groups))
        eta = eta + eps[:, m.dataset.group]
    return stream.poisson(np.exp(eta), size=shape).astype(float)


def refit(m: FittedModel, y_new: np.ndarray) -> FittedModel:
    """Fit the same model class to a new response, keeping X and group.

    The one-row case of :func:`fit_rows` from the parent ``m``, as
    :func:`~envdiag.residuals.refit_many` runs it on many rows, so the
    two give bit-identical estimates, log-likelihoods and residuals.  A
    random-intercept refit starts from the parent's ``(beta, omega^2)``
    instead of a GLM fit, unless omega = 0.  Raises as :func:`fit_model`
    does.
    """
    d = Dataset(y=np.asarray(y_new, dtype=float), X=m.dataset.X,
                group=m.dataset.group)
    return _fitted(m.kind, d, fit_rows(m.kind, d, d.y[None, :], start=m))

