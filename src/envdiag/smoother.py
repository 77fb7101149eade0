"""Penalized cubic B-spline smoother with likelihood-based roughness
selection.

The basis uses ``k = min(10, n - 2)`` cubic B-splines with interior knots
at quantiles of x.  Roughness is penalized through second-order divided
differences of the coefficients taken at the Greville abscissae, so the
penalty null space contains exactly the constant and linear functions of
x regardless of knot spacing.

The smoothing parameter maximizes the profile log-likelihood of the
equivalent Gaussian mixed model (penalized coefficient components as
zero-mean random effects with variance sigma^2 / lambda), searched over
log10 lambda in [-8, 8] by a grid pre-scan plus safeguarded Newton steps
on the exact first and second derivatives of the profile (Wood 2011,
JRSS-B 73:3-36; Ruppert, Wand & Carroll 2003, ch. 5).  Rows whose scan
maximum is an end of the range with the profile rising out of it stop
there; only the others take the Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.interpolate import BSpline

from .data import EnvdiagError
from .fitters import _rows_eta, lm_rows

_LOG10_LO = -8.0
_LOG10_HI = 8.0
LAM_LO = 10.0 ** _LOG10_LO
LAM_HI = 10.0 ** _LOG10_HI
# the pre-scan: one point per unit of log10 lambda, so the bracket around
# each row's best scan point is at most two units wide
_SCAN = np.linspace(_LOG10_LO, _LOG10_HI, 17)
# Newton steps from the best scan point; on the first 40 datasets
# of each benchmark stream the selected profile is never more than 8e-14
# below that of a golden-section search to 1e-5 in log10 lambda (1.2e-11
# with 7 steps, 7e-8 with 6)
_NEWTON_STEPS = 8
# an rss at or below this is an exact fit: n log(rss) is held constant
_RSS_FLOOR = 1e-300
_LN10 = math.log(10.0)


class DegenerateX(EnvdiagError):
    """Too few distinct x values to fit anything."""


@dataclass(eq=False)
class SmoothFit:
    """A fitted smoother, callable at any point of the data range."""

    coefs: np.ndarray
    lam: float
    _design: "PSplineDesign"
    fallback_linear: bool = False
    lam_at_bound: bool = False

    @property
    def basis_dim(self) -> int:
        return self.coefs.size

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        G = self._design.grid_design(x.ravel())
        return _rows_eta(G, self.coefs[None, :])[0].reshape(x.shape)


def _lead_sum(T: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, always in index order.

    ``np.sum`` switches to pairwise summation when the summed axis is the
    contiguous one (as for a batch of one row), so its result for a row
    could depend on the batch around it; this sum cannot.
    """
    acc = T[0].copy()
    for t in T[1:]:
        acc += t
    return acc


class _Gls(NamedTuple):
    """The 2x2 generalized least squares fit of the fixed effects."""

    d: np.ndarray      # (q, ...) shrinkage s^2 / (lam + s^2) per component
    A: np.ndarray      # (3, ...) entries a00, a01, a11 of Xf' V^-1 Xf
    det: np.ndarray    # its determinant
    beta: np.ndarray   # (2, ...) fixed effects A^-1 Xf' V^-1 y
    rss: np.ndarray    # min over beta of (y - Xf beta)' V^-1 (y - Xf beta)


class PSplineDesign:
    """Everything about the smoother that depends on x only.

    Building the design once and refitting many response vectors against
    it is the hot path of the bootstrap: replicate smoothers reuse the
    observed linear predictors as their x.
    """

    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < 4:
            raise ValueError("x must be a vector with at least 4 entries")
        if not np.all(np.isfinite(x)):
            raise ValueError("x must be finite")
        n = x.size
        distinct = np.unique(x)
        if distinct.size < 2:
            raise DegenerateX("x values are all equal")
        self.x = x
        self.x_lo = float(distinct[0])
        self.x_hi = float(distinct[-1])
        k = min(10, n - 2)
        # fewer than 4 distinct x values, or too few points for a cubic
        # basis: fit a straight line instead
        self.fallback = distinct.size < 4 or k < 4
        if self.fallback:
            self.basis_dim = 2
            self._line_design = np.column_stack([np.ones(n), x])
            return

        n_int = k - 4
        if n_int > 0:
            qs = np.arange(1, n_int + 1) / (n_int + 1)
            interior = np.quantile(x, qs)
            interior = np.unique(
                interior[(interior > self.x_lo) & (interior < self.x_hi)]
            )
        else:
            interior = np.empty(0)
        k = interior.size + 4
        self.basis_dim = k
        self.t = np.concatenate(
            [[self.x_lo] * 4, interior, [self.x_hi] * 4]
        )
        B = BSpline.design_matrix(x, self.t, 3, extrapolate=False).toarray()

        # Greville abscissae; coefficients affine in these reproduce exact
        # straight lines, so the divided-difference penalty leaves lines
        # unpenalized.
        xi = (self.t[1 : k + 1] + self.t[2 : k + 2] + self.t[3 : k + 3]) / 3.0
        D = np.zeros((k - 2, k))
        for j in range(1, k - 1):
            d1 = xi[j] - xi[j - 1]
            d2 = xi[j + 1] - xi[j]
            D[j - 1, j - 1] = 2.0 / (d1 * (d1 + d2))
            D[j - 1, j] = -2.0 / (d1 * d2)
            D[j - 1, j + 1] = 2.0 / (d2 * (d1 + d2))
        self.B = B
        self.D = D

        # mixed-model reparameterization: split coefficients into the
        # penalty null space (fixed effects) and scaled penalized part
        P = D.T @ D
        w, V = np.linalg.eigh(P)
        if w[2] <= 1e-10 * w[-1]:
            raise ValueError("penalty null space is not two-dimensional")
        U_null = V[:, :2]
        U_pen = V[:, 2:] / np.sqrt(w[2:])[None, :]
        self.Xf = B @ U_null
        Z = B @ U_pen
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        self._s = s
        self._s2 = s * s
        # a response enters only through its projections on U and Xf
        self._proj = np.vstack([U.T, self.Xf.T])
        a = U.T @ self.Xf
        self._a = np.ascontiguousarray(a.T)           # (2, q): U'Xf
        self._aa = np.column_stack([a[:, 0] * a[:, 0], a[:, 0] * a[:, 1],
                                    a[:, 1] * a[:, 1]])   # (q, 3)
        G = self.Xf.T @ self.Xf
        self._G = np.array([G[0, 0], G[0, 1], G[1, 1]])
        # coefficients from fixed effects and from scaled SVD components
        self._coef_map = np.hstack([U_null, U_pen @ Vt.T])

    # -- profile likelihood ------------------------------------------

    def _profile_terms(self, Y: np.ndarray):
        """y-dependent pieces of the profile likelihood, rows batched:
        U'y (q, B), Xf'y (2, B) and y'y (B,), each row by its own sums."""
        P = np.stack([(Y * p).sum(axis=1) for p in self._proj])
        return P[:-2], P[-2:], (Y * Y).sum(axis=1)

    def _gls(self, lam, Uy, Xy, yy) -> _Gls:
        """Fixed effects and rss of every row at smoothing parameter lam.

        ``Uy`` (q, ...), ``Xy`` (2, ...) and ``yy`` are the terms of
        :meth:`_profile_terms`, and ``lam`` broadcasts against their
        trailing shape.  With ``d = s^2 / (lam + s^2)``, ``V^-1 = I - U
        diag(d) U'``, so every entry is an elementwise sum over the q
        singular values, taken in a fixed order: a row's numbers do not
        depend on its batch.
        """
        shape = (-1,) + (1,) * (Uy.ndim - 1)
        s2 = self._s2.reshape(shape)
        d = s2 / (lam + s2)
        A = self._G.reshape((3,) + shape[1:]) - _lead_sum(
            d[:, None] * self._aa.reshape((-1, 3) + shape[1:]))
        # Xf'V^-1 y = Xf'y - sum_j a_j d_j u_j and y'V^-1 y = y'y - sum_j
        # u_j d_j u_j as one reduction T[0] - T[1] - ... - T[q], which
        # keeps the order of the singular values; the y'V^-1 y terms are
        # stored negated, so that sum is 0 + t_1 + ... + t_q
        T = np.empty((Uy.shape[0] + 1, 3)
                     + np.broadcast_shapes(d.shape[1:], Uy.shape[1:]))
        T[0, :2] = Xy
        T[0, 2] = 0.0
        dUy = np.multiply(d, Uy, out=T[1:, 2])
        np.multiply(self._a.T.reshape((-1, 2) + shape[1:]), dUy[:, None],
                    out=T[1:, :2])
        dUy *= -Uy
        r0, r1, yVy = np.subtract.reduce(T, axis=0)
        det = A[0] * A[2] - A[1] * A[1]
        b0 = (A[2] * r0 - A[1] * r1) / det
        b1 = (A[0] * r1 - A[1] * r0) / det
        rss = yy - yVy - (b0 * r0 + b1 * r1)
        return _Gls(d, A, det, np.stack([b0, b1]), rss)

    def _profile_at(self, u, Uy, Xy, yy) -> np.ndarray:
        """Profile log-likelihood of every row at log10-lambda u.

        The fixed effects (penalty null space) and the error variance are
        profiled out in closed form; the random-effect determinant stays
        q-dimensional through the SVD of the penalized design.  ``u``
        broadcasts like ``lam`` in :meth:`_gls`.
        """
        lam = 10.0 ** u
        n = self.x.size
        sig2 = np.maximum(self._gls(lam, Uy, Xy, yy).rss, _RSS_FLOOR) / n
        s2 = self._s2.reshape((-1,) + (1,) * (Uy.ndim - 1))
        logdet_v = _lead_sum(np.log1p(s2 / lam))
        return -0.5 * (n * (np.log(2.0 * math.pi * sig2) + 1.0) + logdet_v)

    def _profile_slope(self, u: np.ndarray, Uy, Xy, yy):
        """First and second derivatives of the profile in u = log10 lambda.

        With ``c = U'(y - Xf beta)`` and ``w = d (1 - d)``, the envelope
        theorem gives ``d rss/du = ln10 sum w c^2`` and
        ``d^2 rss/du^2 = ln10^2 (sum w (2d - 1) c^2 - 2 h' A^-1 h)``,
        ``h = sum w c U'Xf`` (the second term is beta moving with lambda);
        the log-determinant has ``-ln10 sum d`` and ``ln10^2 sum w``.  A
        row whose rss is at the floor is an exact fit: its ``n log(rss)``
        is constant there, so only the determinant moves.
        """
        n = self.x.size
        g = self._gls(10.0 ** u, Uy, Xy, yy)
        a0, a1 = self._a[0][:, None], self._a[1][:, None]
        c = Uy - a0 * g.beta[0] - a1 * g.beta[1]
        w = g.d * (1.0 - g.d)
        wc = w * c
        r1, h0, h1, r2, sum_w, sum_d = _lead_sum(np.stack(
            [wc * c, wc * a0, wc * a1, wc * c * (2.0 * g.d - 1.0), w, g.d],
            axis=1))
        A = g.A
        hAh = (A[2] * h0 * h0 - 2.0 * A[1] * h0 * h1 + A[0] * h1 * h1) / g.det
        exact = g.rss <= _RSS_FLOOR
        rss = np.where(exact, 1.0, g.rss)
        t1 = np.where(exact, 0.0, _LN10 * r1 / rss)
        t2 = np.where(exact, 0.0, _LN10 ** 2 * (r2 - 2.0 * hAh) / rss)
        d1 = -0.5 * (n * t1 - _LN10 * sum_d)
        d2 = -0.5 * (n * (t2 - t1 * t1) + _LN10 ** 2 * sum_w)
        return d1, d2

    def _select_lams(self, Uy, Xy, yy) -> tuple[np.ndarray, np.ndarray]:
        """ML log10-lambda of every row of the :meth:`_profile_terms`, and
        whether it sits at a search bound.

        A 17-point scan over [-8, 8] picks each row's best point; its
        neighbours bracket the maximum, which guards against multimodal
        profiles.  A row whose best point is an end of the range and whose
        slope there (:meth:`_profile_slope`) points out of it is final at
        that bound.  The other rows take ``_NEWTON_STEPS`` Newton steps on
        the exact derivatives in lockstep, the first from that same slope.
        Each step first moves the row's bracket end to the current point
        on the side where the profile falls; where the profile is not
        concave, or the Newton point leaves the bracket, the step goes to
        the bracket's midpoint instead.  (For a final row the bracket is
        the bound alone, so the steps would all land on it.)  The step
        count is fixed and every operation acts on each row alone, so a
        row's lambda does not depend on its batch.
        """
        scan = self._profile_at(_SCAN[:, None], Uy[:, None], Xy[:, None], yy)
        best = np.argmax(scan, axis=0)
        u = _SCAN[best]
        d1, d2 = self._profile_slope(u, Uy, Xy, yy)
        # strict signs: at d1 == 0 the steps can still leave the bound
        final = (((best == 0) & (d1 < 0))
                 | ((best == _SCAN.size - 1) & (d1 > 0)))
        move = np.flatnonzero(~final)
        if move.size:
            lo = _SCAN[np.maximum(best[move] - 1, 0)]
            hi = _SCAN[np.minimum(best[move] + 1, _SCAN.size - 1)]
            Uy, Xy, yy = Uy[:, move], Xy[:, move], yy[move]
            v, d1, d2 = u[move], d1[move], d2[move]
            for step in range(_NEWTON_STEPS):
                if step:
                    d1, d2 = self._profile_slope(v, Uy, Xy, yy)
                lo = np.where(d1 > 0, v, lo)
                hi = np.where(d1 < 0, v, hi)
                newton = v + np.divide(d1, -d2, out=np.full_like(v, np.inf),
                                       where=d2 < 0)
                v = np.where((newton >= lo) & (newton <= hi), newton,
                             0.5 * (lo + hi))
            u[move] = v
        at_bound = (u <= _LOG10_LO + 1e-3) | (u >= _LOG10_HI - 1e-3)
        return u, at_bound

    # -- fitting -------------------------------------------------------

    def coefs(self, Y: np.ndarray,
              lams: Optional[np.ndarray] = None) -> np.ndarray:
        """Penalized least squares coefficients of every row of Y, as
        ``(rows, basis_dim)``: the one place where a response is smoothed.

        Row b is fitted at smoothing parameter ``lams[b]``, or, if ``lams``
        is None, at its maximum-likelihood lambda (:meth:`_select_lams`),
        in closed form in the mixed-model basis: the fixed effects are the
        generalized least squares estimate, the random effects their ridge
        solution ``Vt' diag(s / (s^2 + lambda)) U' (y - Xf beta)``.  The
        linear fallback ignores ``lams`` and returns least squares
        (intercept, slope) rows.  Row b does not depend on the other rows.
        """
        Y = np.asarray(Y, dtype=float)
        if self.fallback:
            return lm_rows(self._line_design, Y)[0]
        Uy, Xy, yy = self._profile_terms(Y)
        if lams is None:
            lams = 10.0 ** self._select_lams(Uy, Xy, yy)[0]
        lams = np.asarray(lams, dtype=float)
        beta = self._gls(lams, Uy, Xy, yy).beta
        shrink = self._s[:, None] / (self._s2[:, None] + lams)
        b = shrink * (Uy - self._a[0][:, None] * beta[0]
                      - self._a[1][:, None] * beta[1])
        return _rows_eta(self._coef_map, np.vstack([beta, b]).T)

    def fit(self, y: np.ndarray, lam: Optional[float] = None) -> SmoothFit:
        """Fit to a response vector; ``lam=None`` selects it by ML.

        The one-row case of :meth:`coefs`: evaluated on a grid, the fit
        equals its row of :meth:`smooth_matrix` bit for bit.  With fewer
        than 4 distinct x values the fit is the least squares straight
        line, flagged ``fallback_linear``, and ``lam`` is nan.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != self.x.shape:
            raise ValueError("x and y must have the same length")
        at_bound = False
        if self.fallback:
            lams = np.full(1, math.nan)
        elif lam is None:
            u_hat, bound_mask = self._select_lams(
                *self._profile_terms(y[None, :]))
            lams = 10.0 ** u_hat
            at_bound = bool(bound_mask[0])
        elif LAM_LO <= lam <= LAM_HI:
            lams = np.full(1, float(lam))
        else:
            raise ValueError(f"lam must lie in [{LAM_LO}, {LAM_HI}]")

        return SmoothFit(
            coefs=self.coefs(y[None, :], lams)[0],
            lam=float(lams[0]),
            _design=self,
            fallback_linear=self.fallback,
            lam_at_bound=at_bound,
        )

    def grid_design(self, grid: np.ndarray) -> np.ndarray:
        """Basis design matrix at evaluation points (clipped to range)."""
        pts = np.clip(np.asarray(grid, dtype=float), self.x_lo, self.x_hi)
        if self.fallback:
            return np.column_stack([np.ones(pts.size), pts])
        return BSpline.design_matrix(pts, self.t, 3, extrapolate=False).toarray()

    def smooth_matrix(self, Y: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Fit every row of Y at its ML lambda (:meth:`coefs`) and evaluate
        each fit on the grid; row b equals ``fit(Y[b])(grid)`` bit for bit.
        This is the bootstrap hot path."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.x.size:
            raise ValueError(f"Y must be B x {self.x.size}")
        return _rows_eta(self.grid_design(grid), self.coefs(Y))
