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
JRSS-B 73:3-36; Ruppert, Wand & Carroll 2003, ch. 5).  The profile is
taken in a projected basis: with the fixed effects (the penalty null
space) projected out once per design, a row's residual sum of squares at
any lambda is one weighted sum of q squares, with no per-lambda solve.
Rows whose scan maximum is an end of the range with the profile rising
out of it stop there; only the others take the Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
        return self._design._on_grid(self.coefs[None, :],
                                     x.ravel())[0].reshape(x.shape)


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
        Q, R = np.linalg.qr(B @ U_null)
        Z = B @ U_pen
        QZ = Q.T @ Z
        # the penalized design with the fixed effects projected out
        U, s, Vt = np.linalg.svd(Z - Q @ QZ, full_matrices=False)
        self._s = s
        # log|V| needs only the singular values z of Z itself
        self._sz2 = np.concatenate(
            [s * s, np.linalg.svd(Z, compute_uv=False) ** 2])
        self._s2, self._z2 = self._sz2[:s.size], self._sz2[s.size:]
        # a response enters only through its projections on U and Q
        self._proj = np.vstack([U.T, Q.T])
        # coefficients from g = diag(s / (s^2 + lambda)) U'y and Q'y:
        # b = Vt' g, beta = R^-1 (Q'y - Q'Z b)
        R_inv = np.linalg.inv(R)
        self._coef_map = np.hstack([(U_pen - U_null @ R_inv @ QZ) @ Vt.T,
                                    U_null @ R_inv])

    # -- profile likelihood ------------------------------------------

    def _profile_terms(self, Y: np.ndarray):
        """y-dependent pieces of the profile likelihood, rows batched:
        U'y (q, B), Q'y (2, B) and y'Py = y'y - |Q'y|^2 (B,), P the
        projection off the fixed effects, each row by its own sums."""
        T = np.stack([(Y * p).sum(axis=1) for p in self._proj])
        f = T[-2:]
        return T[:-2], f, (Y * Y).sum(axis=1) - f[0] * f[0] - f[1] * f[1]

    def _profile_at(self, u, u2, yPy) -> np.ndarray:
        """Profile log-likelihood of every row at log10-lambda u.

        ``u2`` (q, ...) holds the squares of U'y and ``yPy`` y'Py
        (:meth:`_profile_terms`); ``u`` broadcasts against their trailing
        shape.  With the fixed effects projected out and the error
        variance profiled, ``rss = y'Py - sum_j d_j u2_j``, ``d = s^2 /
        (lambda + s^2)``, an elementwise sum over the q singular values in
        a fixed order, so a row's value does not depend on its batch.  The
        log-determinant of V = I + ZZ' / lambda is ``sum log1p(z^2 /
        lambda)`` over the singular values z of the unprojected Z.
        """
        lam = 10.0 ** u
        n = self.x.size
        shape = (-1,) + (1,) * (u2.ndim - 1)
        s2, z2 = self._s2.reshape(shape), self._z2.reshape(shape)
        rss = yPy - _lead_sum(s2 / (lam + s2) * u2)
        sig2 = np.maximum(rss, _RSS_FLOOR) / n
        logdet_v = _lead_sum(np.log1p(z2 / lam))
        return -0.5 * (n * (np.log(2.0 * math.pi * sig2) + 1.0) + logdet_v)

    def _profile_slope(self, u: np.ndarray, u2, yPy):
        """First and second derivatives of the profile in u = log10 lambda
        at ``u`` (R,), for the rows of ``u2`` (q, R) and ``yPy``.

        With ``w = d (1 - d)``, ``d rss/du = ln10 sum w u2`` and
        ``d^2 rss/du^2 = ln10^2 sum w (2d - 1) u2``; the log-determinant
        has ``-ln10 sum d`` and ``ln10^2 sum w`` over the z.  All five sums
        are one ordered reduction.  A row whose rss is at the floor is an
        exact fit: its ``n log(rss)`` is constant there, so only the
        determinant moves.
        """
        n, q = self.x.size, u2.shape[0]
        lam = 10.0 ** u
        d = self._sz2[:, None] / (lam + self._sz2[:, None])   # s, then z
        w = d * (1.0 - d)
        T = np.empty((q, 5) + u.shape)
        np.multiply(d[:q], u2, out=T[:, 0])
        wu2 = np.multiply(w[:q], u2, out=T[:, 1])
        np.multiply(wu2, 2.0 * d[:q] - 1.0, out=T[:, 2])
        T[:, 3], T[:, 4] = d[q:], w[q:]
        S = _lead_sum(T)
        rss = yPy - S[0]
        t1, t2 = np.divide(S[1:3], rss, out=np.zeros_like(S[1:3]),
                           where=rss > _RSS_FLOOR)
        d1 = 0.5 * _LN10 * (S[3] - n * t1)
        d2 = -0.5 * _LN10 ** 2 * (n * (t2 - t1 * t1) + S[4])
        return d1, d2

    def _select_lams(self, u2, yPy) -> tuple[np.ndarray, np.ndarray]:
        """ML log10-lambda of every row, given the squares ``u2`` of its
        U'y and its y'Py (:meth:`_profile_terms`), and whether it sits at
        a search bound.

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
        scan = self._profile_at(_SCAN[:, None], u2[:, None], yPy)
        best = np.argmax(scan, axis=0)
        u = _SCAN[best]
        d1, d2 = self._profile_slope(u, u2, yPy)
        # strict signs: at d1 == 0 the steps can still leave the bound
        final = (((best == 0) & (d1 < 0))
                 | ((best == _SCAN.size - 1) & (d1 > 0)))
        move = np.flatnonzero(~final)
        if move.size:
            lo = _SCAN[np.maximum(best[move] - 1, 0)]
            hi = _SCAN[np.minimum(best[move] + 1, _SCAN.size - 1)]
            u2, yPy = u2[:, move], yPy[move]
            v, d1, d2 = u[move], d1[move], d2[move]
            for step in range(_NEWTON_STEPS):
                if step:
                    d1, d2 = self._profile_slope(v, u2, yPy)
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

    def _fit_rows(self, Y: np.ndarray, lams: Optional[np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients ``(rows, basis_dim)`` of every row of Y, its lambda
        and whether that is an ML lambda at a search bound: the one place
        where a response is smoothed.

        Row b is fitted at ``lams[b]``, which must lie in [1e-8, 1e8]
        (ValueError otherwise), or, if ``lams`` is None, at its ML lambda
        (:meth:`_select_lams`), in closed form in the projected basis: the
        random effects are the ridge solution ``b = Vt' g``, ``g = diag(s
        / (s^2 + lambda)) U'y``, and the fixed effects ``R^-1 Q'(y - Z
        b)``, one fixed linear map of ``(g, Q'y)``.  The linear fallback
        gives least squares (intercept, slope) rows and lambda nan.  Row b
        does not depend on the other rows.
        """
        Y = np.asarray(Y, dtype=float)
        if lams is not None:
            lams = np.asarray(lams, dtype=float)
            if not all(LAM_LO <= v <= LAM_HI for v in lams.ravel().tolist()):
                raise ValueError(f"lam must lie in [{LAM_LO}, {LAM_HI}]")
        at_bound = np.zeros(Y.shape[0], dtype=bool)
        if self.fallback:
            return (lm_rows(self._line_design, Y)[0],
                    np.full(Y.shape[0], math.nan), at_bound)
        Uy, Qy, yPy = self._profile_terms(Y)
        if lams is None:
            u, at_bound = self._select_lams(Uy * Uy, yPy)
            lams = 10.0 ** u
        g = self._s[:, None] / (self._s2[:, None] + lams) * Uy
        return _rows_eta(self._coef_map, np.vstack([g, Qy]).T), lams, at_bound

    def coefs(self, Y: np.ndarray,
              lams: Optional[np.ndarray] = None) -> np.ndarray:
        """Penalized least squares coefficients of every row of Y at
        ``lams``, or at its ML lambda (:meth:`_fit_rows`)."""
        return self._fit_rows(Y, lams)[0]

    def fit(self, y: np.ndarray, lam: Optional[float] = None) -> SmoothFit:
        """Fit to a response vector; ``lam=None`` selects it by ML.

        The one-row case of :meth:`_fit_rows`: evaluated on a grid, the
        fit equals its row of :meth:`smooth_matrix` bit for bit.  With
        fewer than 4 distinct x values the fit is the least squares
        straight line, flagged ``fallback_linear``, and ``lam`` is nan.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != self.x.shape:
            raise ValueError("x and y must have the same length")
        C, lams, at_bound = self._fit_rows(
            y[None, :], None if lam is None else [lam])
        return SmoothFit(coefs=C[0], lam=float(lams[0]), _design=self,
                         fallback_linear=self.fallback,
                         lam_at_bound=bool(at_bound[0]))

    def _on_grid(self, C: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Coefficient rows ``C`` (R, basis_dim) evaluated at the grid
        points (clipped to the data range), as (R, grid size).

        Each point takes only its nonzero basis functions (the 4 cubic
        B-splines of its knot interval, or 1 and x for the line), summed
        in column order: the dense product's sum without its zero terms.
        """
        pts = np.clip(np.asarray(grid, dtype=float), self.x_lo, self.x_hi)
        if self.fallback:
            cols = np.broadcast_to([0, 1], (pts.size, 2))
            vals = np.column_stack([np.ones(pts.size), pts])
        else:
            G = BSpline.design_matrix(pts, self.t, 3, extrapolate=False)
            cols, vals = G.indices.reshape(-1, 4), G.data.reshape(-1, 4)
        # np.take keeps the rows C-contiguous, as the dense product's were
        out = np.take(C, cols[:, 0], axis=1) * vals[:, 0]
        for j in range(1, cols.shape[1]):
            out += np.take(C, cols[:, j], axis=1) * vals[:, j]
        return out

    def smooth_matrix(self, Y: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Fit every row of Y at its ML lambda (:meth:`_fit_rows`) and evaluate
        each fit on the grid; row b equals ``fit(Y[b])(grid)`` bit for bit.
        This is the bootstrap hot path."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.x.size:
            raise ValueError(f"Y must be B x {self.x.size}")
        return self._on_grid(self._fit_rows(Y, None)[0], grid)
