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
  quasi-Newton optimization of an adaptive Gauss-Hermite approximation to
  the marginal likelihood (nodes recentred at each group's conditional
  mode, in closed form by the Lambert W function).  One kernel returns
  the approximation and its exact gradient, differentiated through the
  modes and curvatures (Pinheiro & Bates 1995), for many responses at
  once.  One optimizer, :func:`glmm_rows`, runs a projected BFGS per
  response in the variance omega^2 >= 0 (0 is the GLM exactly), after
  the same check: a fit starts from the GLM estimates and the curvature
  of its own likelihood there, a refit from the parent fit and the
  curvature of the parent's.  Each kernel call takes one line-search
  trial of every response of a batch still moving; the terms that
  depend on the response alone are computed once per batch.

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


# Iteration budget (IRLS iterations; twice as many quasi-Newton ones) and
# relative change in the objective at which the iterative fitters stop.
_MAX_ITER = 100
_TOL = 1e-9

# The 15-node Gauss-Hermite rule behind the random-intercept likelihood:
# scaled nodes sqrt(2) x_k and log w_k + x_k^2 (read-only), shaped (15, 1,
# 1) for the kernel's node-first arrays.
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(15)
_GH_Z = (math.sqrt(2.0) * _GH_X)[:, None, None]
_GH_LOG_WX = (np.log(_GH_W) + _GH_X**2)[:, None, None]
_GH_Z.setflags(write=False)
_GH_LOG_WX.setflags(write=False)


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
    of ``Y`` is a nonnegative integer.
    """
    if np.any(Y < 0) or np.any(Y != np.floor(Y)):
        raise ValueError("Poisson response must be nonnegative integers")
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
    :func:`_glmm_objective` gives +inf.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if omega == 0.0:
        return float(_poisson_loglik(y, X @ beta))
    Y = y[None, :]
    f, _ = _glmm_objective(X, group, Y, np.append(beta, omega * omega)[None],
                           *_response_constants(group, int(group.max()) + 1, Y))
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
    """Group totals (R, G) and sum log y! (R,) of every row of ``Y``: the
    parts of the kernel that depend on the response alone."""
    return _group_sums(group, G, Y), gammaln(Y + 1.0).sum(axis=1)


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
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Negated adaptive Gauss-Hermite log-likelihoods and their exact
    gradients in ``(beta, v)``, v = omega^2, for R rows.

    Row r has response ``Y[r]`` (R, n), its constants ``S[r]`` and
    ``log_fact[r]`` (:func:`_response_constants`) and parameters ``x[r]``
    (R, p+1) = ``(beta, v)``, on the shared design ``X`` and ``group``.
    Group g contributes ``l_g = log int exp(h_g(t)) dt`` with
      h_g(t) = A_g + S_g t - E_g e^t - c t^2/2 - log(w sqrt(2 pi)),
    c = 1/w^2, A_g = sum_g (y eta - log y!), approximated at the mode
    u_g (h_g'(u_g) = 0, in closed form by :func:`_group_modes`) with
    scale sigma_g = K_g^(-1/2), K_g = E_g e^u_g + c.  The terms of h_g
    that do not vary with t leave the log-sum-exp over the nodes, which
    adding a constant to every term does not change: the nodes carry S_g
    t - E_g e^t - c t^2/2, and the value adds ``y.eta - sum log y! - G
    log(w sqrt(2 pi))``.  Both u_g and sigma_g move with E_g and c, so
    the derivatives add their paths (implicit differentiation of
    h_g'(u_g) = 0: du/dE = -e^u/K, du/dc = -u/K) to the softmax-weighted
    node terms; the derivative in log w, O(1) terms summing to O(P), is
    divided by 2v.  Nodes whose weight underflows to zero carry no
    gradient, even where ``e^t`` overflows.  Where P = v max_g (E_g +
    (S_g - E_g)^2) is at most ``_SERIES_MAX``, the value is the series
    ``l_GLM + U v``, U = 1/2 sum_g [(S_g - E_g)^2 - E_g] (Dean 1992), with
    its exact gradient, so v = 0 gives the Poisson log-likelihood, its
    score and U: its error, about P, and the quotient's, about 1e-14 / P
    (relative to max(1, |U|)), are both at most about 4e-7 there.  With
    dl_g/dA_g = 1, the beta gradient is ``X'y + X'(exp(eta) *
    dl/dE[group])``.  A row whose linear predictors exceed 500 (the range
    exp() can take, with room), or whose value is not finite, gets +inf
    and a zero gradient.

    The node terms are laid out node first, (15, R, G); the node max is
    exact and the node sums take one fixed order (:func:`_node_sum`), so
    a row's result does not depend on the batch.
    """
    R = x.shape[0]
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
    # D_g^2 overflows only at means far beyond any optimum; there U = inf,
    # so the row is not finite at v = 0 (0 * inf) and the quadrature's above
    with np.errstate(over="ignore", invalid="ignore"):
        D2 = D * D
        dl_dv = 0.5 * (D2 - E).sum(axis=1)    # U
        far = v * (D2 + E).max(axis=1) > _SERIES_MAX
        value = A - E.sum(axis=1) + dl_dv * v
    if far.all():
        value, dl_dE, dl_dv = _glmm_nodes(S, E, v, A)
    else:
        dl_dE = np.where(far[:, None], 0.0, -1.0 - v[:, None] * (D + 0.5))
        value[far], dl_dE[far], dl_dv[far] = _glmm_nodes(
            S[far], E[far], v[far], A[far])

    # rows not finite get +inf and 0; their dl/dE, 0 or -1, keeps W finite
    W = Y + mu * dl_dE[:, group]
    f = -value
    g = np.empty(x.shape)
    g[:, :-1] = -(W[:, None, :] * np.ascontiguousarray(X.T)).sum(axis=2)
    g[:, -1] = -dl_dv
    bad = ~np.isfinite(f)
    if bad.any():
        f[bad], g[bad] = np.inf, 0.0
    if isinstance(rows, slice):
        return f, g
    f_all, g_all = np.full(R, np.inf), np.zeros((R, g.shape[1]))
    f_all[rows], g_all[rows] = f, g
    return f_all, g_all


def _glmm_nodes(S: np.ndarray, E: np.ndarray, v: np.ndarray, A: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quadrature rows of :func:`_glmm_objective`: their values,
    dl/dE (R, G) and dl/dv, the derivatives 0 where the value is not
    finite."""
    G = S.shape[1]
    omega = np.sqrt(v)
    u, K = _group_modes(S, E, omega)
    # c per group, so that no product with it broadcasts along a short axis
    c = (1.0 / v)[:, None] * np.ones(G)
    sig = 1.0 / np.sqrt(K)
    t = u + sig * _GH_Z
    # e^t overflows only at nodes whose weight underflows
    with np.errstate(over="ignore"):
        et = np.exp(t)
        # E_g e^t = 0 * inf, NaN, where E_g = 0 and e^t overflows; where
        # E_g e^t = inf at every node, top = -inf and logw - top is NaN
        with np.errstate(invalid="ignore"):
            logw = _GH_LOG_WX + (S * t - E * et - (0.5 * c) * t * t)
            top = logw.max(axis=0)
            p = np.exp(logw - top)
        total = _node_sum(p)
        # per group: -log(w sqrt(2 pi)), and log sqrt(2) of the nodes'
        # scale sqrt(2) sigma
        value = ((top + np.log(total) + np.log(sig)).sum(axis=1) + A
                 - G * (np.log(omega) + 0.5 * math.log(math.pi)))
        ok = np.isfinite(value)
        if not ok.all():
            v, c, S, E, u, K, sig, total = (
                a[ok] for a in (v, c, S, E, u, K, sig, total))
            t, et, p = t[:, ok], et[:, ok], p[:, ok]

        p /= total
        et[p == 0.0] = 0.0
        dh = S - E * et - c * t     # h'(t)
        # the node sums of the gradient: p e^t, p h', p h' z and p t^2
        prods = np.empty((15, 4) + p.shape[1:])
        np.multiply(p, et, out=prods[:, 0])
        np.multiply(p, dh, out=prods[:, 1])
        np.multiply(prods[:, 1], _GH_Z, out=prods[:, 2])
        np.multiply(p * t, t, out=prods[:, 3])
        p_et, p_dh, p_dhz, p_t2 = _node_sum(prods)
        eu = np.exp(u)
        # t_k = u + sigma z_k; d log sigma = -dK / (2K), d sigma = sigma
        # d log sigma
        du_dE = -eu / K
        dlogsig_dE = -0.5 * eu * c / (K * K)
        dl_dE = (-p_et + du_dE * p_dh + sig * dlogsig_dE * p_dhz
                 + dlogsig_dE)
        # log w: dc = -2c, dh/d log w = c t^2 - 1 at fixed t
        du_ds = 2.0 * c * u / K
        dlogsig_ds = c * (1.0 - E * eu * u / K) / K
        dl_ds = (c * p_t2 - 1.0 + du_ds * p_dh + sig * dlogsig_ds * p_dhz
                 + dlogsig_ds)
    dl_dv = dl_ds.sum(axis=1) / (2.0 * v)
    if ok.all():
        return value, dl_dE, dl_dv
    dE, dv = np.zeros(ok.shape + (G,)), np.zeros(ok.shape)
    dE[ok], dv[ok] = dl_dE, dl_dv
    return value, dE, dv


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
    :func:`glmm_rows`: a refit from the estimates and inverse Hessian
    (:func:`_parent_curvature`) of the parent fit ``start``; a fit, and a
    refit of a parent at omega = 0 (the exact GLM, whose bootstrap draws
    no intercepts: it says nothing of where v lies), from each row's GLM
    fit, whose failure is the row's, and v = 0.25 (a fit with the inverse
    Hessian of its own likelihood there), returning the better of its
    optimum and that GLM fit.  Only ``poisson-ri`` reads ``start``.
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
    H0 = None if start is None else _parent_curvature(start)
    fits = _on_live_rows(
        Y, p, errors,
        lambda live: glmm_rows(X, d.group, Y[live], x0[live], H0))
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


# Central-difference step of the curvature start in the optimizer's
# coordinates (beta, w), and the least ratio of its smallest to largest
# eigenvalue.
_CURV_STEP = 1e-4
_CURV_RCOND = 1e-8


def _in_w(X: np.ndarray, group: np.ndarray, Y: np.ndarray, x0: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, Callable]:
    """The rows of ``Y`` (R, n) in the optimizer's coordinates (beta, w),
    w = log(1 + v / a), a = G / sum exp(X beta0) per row: their starts
    (R, q) from ``x0`` = ``(beta0, v)``, a (R,), and ``evaluate(rows,
    z)``, :func:`_glmm_objective` of the rows ``rows`` (indices) at z.

    A group total has variance E_g + E_g^2 v to first order, so the
    information on v falls like 1/(v + a)^2, nearly constant in w; w = 0
    is v = 0 exactly.  Starts of w are kept in [``_CURV_STEP``, log(1 +
    9/a)] (omega at most 3), where the curvature start differences
    inside the bound.
    """
    G = int(group.max()) + 1
    S, log_fact = _response_constants(group, G, Y)
    a = G / np.exp(_rows_eta(X, x0[:, :-1])).sum(axis=1)
    z0 = np.array(x0, dtype=float)
    z0[:, -1] = np.clip(np.log1p(x0[:, -1] / a), _CURV_STEP,
                        np.log1p(9.0 / a))

    def evaluate(rows, z):
        ar = a[rows]
        x = z.copy()
        x[:, -1] = v = ar * np.expm1(z[:, -1])
        f, g = _glmm_objective(X, group, Y[rows], x, S[rows], log_fact[rows])
        g[:, -1] *= v + ar
        return f, g

    return z0, a, evaluate


def _curvature_start(evaluate: Callable, x0: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective and gradient of R rows at their starts ``x0`` (R, q),
    and an inverse Hessian (R, q, q) of each row's objective there;
    ``evaluate(rows, x)`` is the objective of the rows ``rows`` at ``x``
    (:func:`_in_w`).

    Row r's Hessian comes from central differences of the exact gradient
    of its own objective around ``x0[r]``, symmetrized.  Its inverse is
    kept only if every difference point has a finite value and every
    eigenvalue is finite and above 1e-8 times the largest; otherwise the
    row's inverse Hessian is 0, no curvature information.  All R starts
    and their 2q difference points are evaluated in one kernel call, and
    the inverse is built from elementwise products, so a row's result
    does not depend on the batch.
    """
    R, q = x0.shape
    rows = np.concatenate([np.arange(R), np.repeat(np.arange(R), 2 * q)])
    pts = np.concatenate([x0, (x0[:, None, :] + _CURV_STEP * np.vstack(
        [np.eye(q), -np.eye(q)])).reshape(-1, q)])
    f, g = evaluate(rows, pts)
    fd, gd = f[R:].reshape(R, 2 * q), g[R:].reshape(R, 2 * q, q)
    hess = (gd[:, :q] - gd[:, q:]) / (2.0 * _CURV_STEP)
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    good = (np.all(np.isfinite(fd), axis=1)
            & np.all(np.isfinite(hess), axis=(1, 2)))
    hess[~good] = np.eye(q)
    lam, V = np.linalg.eigh(hess)
    good &= lam[:, 0] > _CURV_RCOND * lam[:, -1]
    lam[~good] = 1.0
    H0 = np.sum((V / lam[:, None, :])[:, :, None, :] * V[:, None, :, :],
                axis=3)
    H0[~good] = 0.0
    return f[:R], g[:R], H0


def _parent_curvature(m: FittedModel) -> np.ndarray:
    """The inverse Hessian (q, q) of :func:`_curvature_start` of the
    parent ``m``'s own likelihood at its optimizer start (:func:`_in_w`)
    from ``(beta, omega^2)``, also at omega = 0, the exact GLM (whose
    bootstrap draws no intercepts): the first of every refit of ``m``."""
    d = m.dataset
    x0 = np.append(m.beta, m.scale * m.scale)[None, :]
    z0, _, evaluate = _in_w(d.X, d.group, d.y[None, :], x0)
    return _curvature_start(evaluate, z0)[2][0]


def glmm_rows(X: np.ndarray, group: np.ndarray, Y: np.ndarray,
              x0: np.ndarray, H0: Optional[np.ndarray] = None) -> Fits:
    """Maximize the marginal likelihood of every row of ``Y`` in lockstep.

    One projected BFGS per row over ``(beta, w)`` (:func:`_in_w`) from
    ``x0`` (R, p+1) = ``(beta, v)``, v = omega^2, each with its own
    inverse-Hessian approximation and backtracking line search: a row's
    search ends at its first trial that decreases the objective
    sufficiently (Armijo), and a trial that does not is cut back by
    quadratic interpolation to [0.1, 0.5] of its step, for at most 30
    trials.  A step with s'y not positive leaves the row's inverse
    Hessian as it is (Nocedal & Wright 2006, sections 3.1 and 6.1).
    Every kernel call evaluates one trial of every row still moving, so
    a batch takes as many calls as its slowest row alone.  Row r starts
    from the inverse Hessian ``H0[r]``, ``H0`` broadcast to (R, q, q) (a
    refit passes its parent's, :func:`_parent_curvature`), or, if ``H0``
    is None, from the curvature of its own objective at its start
    (:func:`_curvature_start`, in the same kernel call), with a unit
    step.  A row whose inverse Hessian is 0 (not positive definite)
    starts from the identity with a step of length at most 1; a failed
    line search restarts it from the identity.

    Trials are projected onto v in [0, 1e8].  A row whose v is held at a
    bound, its gradient pointing out, or whose step would take v below 0
    downhill steps beta by the inverse of the Hessian's free block, and v
    to 0 or not at all (Bertsekas 1982).  At v = 0, the exact GLM (whose
    bootstrap draws no intercepts), the slope in v is -U, so a row stays
    there exactly when U <= 0.  A row stops when the relative reduction of its
    objective is at most 1e-9 or its projected gradient at most 1e-7, and
    is then frozen; one that finds no finite optimum within 200
    iterations, or whose objective is not finite at its start, fails with
    :class:`NonConvergence`, whose message tells the two apart.  The scale
    is omega.

    The loop holds the state of the rows still moving only, packed
    together; a row that stops leaves it, so a kernel call and the
    bookkeeping around it see no stopped row.
    """
    R, q = x0.shape
    x, v_scale, evaluate = _in_w(X, group, Y, x0)
    if H0 is None:
        f, g, H = _curvature_start(evaluate, x)
    else:
        f, g = evaluate(np.arange(R), x)
        H = np.array(np.broadcast_to(H0, (R, q, q)))
    x_out, f_out = x.copy(), f.copy()
    no_start = ~np.isfinite(f)
    failed = no_start.copy()
    eye = np.eye(q)

    # the rows still moving, packed: live[i] is the batch row of entry i
    live = np.flatnonzero(~failed)
    x, f, g, H = x[live], f[live], g[live], H[live]
    w_ceil = np.log1p(_V_CEIL / v_scale[live])
    fresh = ~H.any(axis=(1, 2))   # H holds no curvature information yet
    nit = np.zeros(live.size, dtype=int)
    tries = np.zeros(live.size, dtype=int)   # trials of the current search
    d = np.zeros((live.size, q))   # its direction
    t = np.zeros(live.size)   # and next step
    stop = np.zeros(live.size, dtype=bool)
    while live.size:
        # projected gradient: w held at a bound it is pushed past
        w, gw = x[:, -1], g[:, -1]
        held = ((w <= 0.0) & (gw > 0.0)) | ((w >= w_ceil) & (gw < 0.0))
        pg = g.copy()
        pg[held, -1] = 0.0
        # a row between searches: stop tests, then its direction and step
        new = tries == 0
        stop |= new & ~(np.abs(pg).max(axis=1) > 1e-7)
        over = new & ~stop & (nit >= 2 * _MAX_ITER)
        stop |= over
        if stop.any():
            done = live[stop]
            x_out[done], f_out[done] = x[stop], f[stop]
            failed[live[over]] = True
            keep = ~stop
            live = live[keep]
            if live.size == 0:
                break
            x, f, g, H, w_ceil, fresh, nit, tries, d, t, held, pg, new = (
                a[keep] for a in (x, f, g, H, w_ceil, fresh, nit, tries, d,
                                  t, held, pg, new))
            stop = np.zeros(live.size, dtype=bool)
        nit += new
        restart = new & fresh
        H[restart] = eye
        # a searching row keeps its direction: H and pg have not moved
        d = np.where(new[:, None], -(H * pg[:, None, :]).sum(axis=2), d)
        # the free block's inverse Hessian: the Schur complement of H's w entry
        lower = new & (pg[:, -1] > 0.0) & (x[:, -1] + d[:, -1] < 0.0)
        bound = lower | (new & held)
        if bound.any():
            Hb = H[bound]
            Hb -= Hb[:, :, -1:] * Hb[:, -1:, :] / Hb[:, -1:, -1:]
            db = -(Hb * pg[bound][:, None, :]).sum(axis=2)
            db[:, -1] = np.where(lower[bound], -x[bound, -1], 0.0)
            d[bound] = db
        # a unit step along -g would be arbitrarily long: length 1
        if restart.any():
            t = np.where(new, np.where(fresh, np.minimum(1.0, 1.0 / np.sqrt(
                (d * d).sum(axis=1))), 1.0), t)
        else:
            t = np.where(new, 1.0, t)

        # one trial of every moving row, backtracking on sufficient
        # decrease (Armijo)
        xt = x + t[:, None] * d
        xt[:, -1] = np.minimum(np.maximum(xt[:, -1], 0.0), w_ceil)
        ft, gt = evaluate(live, xt)
        step = xt - x
        armijo = ft <= f + 1e-4 * np.minimum((g * step).sum(axis=1), 0.0)
        if armijo.all():
            b = slice(None)
            tries[:] = 0
        else:
            b = np.flatnonzero(armijo)
            slope = (g * d).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t_quad = -slope * t * t / (2.0 * (ft - f - slope * t))
            t_quad = np.where(np.isfinite(t_quad), t_quad, 0.1 * t)
            t = np.minimum(np.maximum(t_quad, 0.1 * t), 0.5 * t)
            # a search ends at its first sufficient decrease or 30th trial
            tries = np.where(armijo, 0, (tries + 1) % 30)
            # a failed line search restarts from the steepest descent
            # once; twice in a row, the row is as optimal as it can tell
            spent = ~armijo & (tries == 0)
            stop |= spent & fresh
            fresh |= spent

        # the BFGS update of the rows that moved (only they: the trial
        # gradients of the others can be far larger)
        sv = step[b]
        yv = gt[b] - g[b]
        sy = (sv * yv).sum(axis=1)
        yy = (yv * yv).sum(axis=1)
        update = sy > _EPS * yy
        fb = fresh[b]
        scale = fb & update
        if scale.any():
            H[np.flatnonzero(armijo)[scale]] = (
                (sy[scale] / yy[scale])[:, None, None] * eye)
        fresh[b] = fb & ~update
        if not update.all():
            b = np.flatnonzero(armijo)[update]
            sv, yv, sy = sv[update], yv[update], sy[update]
        Hy = (H[b] * yv[:, None, :]).sum(axis=2)
        coef = (sy + (yv * Hy).sum(axis=1)) / (sy * sy)
        Hys = Hy[:, :, None] * sv[:, None, :]   # and its transpose, s Hy'
        H[b] += ((coef[:, None] * sv)[:, :, None] * sv[:, None, :]
                 - (Hys + np.swapaxes(Hys, 1, 2)) / sy[:, None, None])
        stop |= armijo & ((f - ft) <= _TOL * np.maximum(
            np.maximum(np.abs(f), np.abs(ft)), 1.0))
        if armijo.all():
            x, f, g = xt, ft, gt
        else:
            x = np.where(armijo[:, None], xt, x)
            f = np.where(armijo, ft, f)
            g = np.where(armijo[:, None], gt, g)
    beta = x_out[:, :-1]
    errors = {int(r): NonConvergence(
        "quasi-Newton found no finite optimum" + (
            ": the likelihood is not finite at its start" if no_start[r]
            else f" in {2 * _MAX_ITER} iterations"), beta=beta[r])
        for r in np.flatnonzero(failed)}
    return Fits(beta, _rows_eta(X, beta), -f_out,
                np.sqrt(v_scale * np.expm1(x_out[:, -1])), errors)


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

