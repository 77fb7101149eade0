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
log10 lambda in [-8, 8] by a grid pre-scan plus golden section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import BSpline

from .data import EnvdiagError
from .fitters import lm_rows

_LOG10_LO = -8.0
_LOG10_HI = 8.0
LAM_LO = 10.0 ** _LOG10_LO
LAM_HI = 10.0 ** _LOG10_HI
# fine enough that fits are insensitive to the remaining quantization of
# the selected smoothing parameter (affine-invariance holds below 1e-6)
_GOLDEN_TOL = 1e-5


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
        return (self._design.grid_design(x.ravel()) @ self.coefs).reshape(x.shape)


def _golden_max_vec(f, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Per-row maximum abscissae of unimodal rows of f, in lockstep.

    ``f`` maps a vector of abscissae (one per row) to a vector of values.
    The iteration count is fixed from the scan-cell width, not the batch,
    so each row's result is independent of what else is in the batch.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    width = 2.0 * (_LOG10_HI - _LOG10_LO) / 16.0   # widest prescan bracket
    n_iter = max(0, math.ceil(math.log(tol / width) / math.log(invphi)))
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(n_iter):
        take = fc >= fd
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        # the surviving interior point is reused; only one new evaluation
        x_new = np.where(take, c, d)
        f_new = f(x_new)
        fd_old = fd
        fd = np.where(take, fc, f_new)
        fc = np.where(take, f_new, fd_old)
    return 0.5 * (a + b)


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
        self._U = U
        self._s = s
        self._s2 = s * s
        # coefficients from fixed effects and from scaled SVD components
        self._U_null = U_null
        self._pen_map = U_pen @ Vt.T
        self._UtXf = U.T @ self.Xf
        self._XfXf = self.Xf.T @ self.Xf

    # -- profile likelihood ------------------------------------------

    def _profile_terms(self, Y: np.ndarray):
        """y-dependent pieces of the profile likelihood, rows batched."""
        UtY = self._U.T @ Y.T          # (q, B)
        XfY = self.Xf.T @ Y.T          # (2, B)
        yy = np.einsum("bn,bn->b", Y, Y)
        return UtY, XfY, yy

    def _fixed_effects(self, lam: np.ndarray, UtY, XfY):
        """Fixed effects of row b at lambda lam[b]: the 2x2 generalized
        least squares solve, with its right-hand sides and ``d * U'y``.
        """
        d = self._s2[:, None] / (lam[None, :] + self._s2[:, None])   # (q, B)
        dUy = d * UtY
        A = self._XfXf[None, :, :] - np.einsum(
            "qi,qb,qj->bij", self._UtXf, d, self._UtXf
        )
        rhs = XfY.T - np.einsum("qi,qb->bi", self._UtXf, dUy)
        det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
        beta = np.column_stack([
            (A[:, 1, 1] * rhs[:, 0] - A[:, 0, 1] * rhs[:, 1]) / det,
            (A[:, 0, 0] * rhs[:, 1] - A[:, 1, 0] * rhs[:, 0]) / det,
        ])
        return beta, rhs, dUy

    def _profile_at(self, u: np.ndarray, UtY, XfY, yy) -> np.ndarray:
        """Profile log-likelihood of row b at log10-lambda u[b].

        The fixed effects (penalty null space) and the error variance are
        profiled out in closed form; the random-effect determinant stays
        q-dimensional through the SVD of the penalized design.
        """
        lam = 10.0 ** u                        # (B,)
        n = self.x.size
        beta, rhs, dUy = self._fixed_effects(lam, UtY, XfY)
        rss = yy - np.einsum("qb,qb->b", UtY, dUy) - (
            beta[:, 0] * rhs[:, 0] + beta[:, 1] * rhs[:, 1]
        )
        sig2 = np.maximum(rss, 1e-300) / n
        logdet_v = np.sum(np.log1p(self._s2[:, None] / lam[None, :]), axis=0)
        return -0.5 * (n * (np.log(2.0 * math.pi * sig2) + 1.0) + logdet_v)

    def profile_loglik(self, y: np.ndarray, log10_lams) -> np.ndarray:
        """Profile log-likelihood of one response at each log10 lambda."""
        if self.fallback:
            raise ValueError("no profile likelihood for the linear fallback")
        y = np.asarray(y, dtype=float)
        lams = np.atleast_1d(np.asarray(log10_lams, dtype=float))
        UtY, XfY, yy = self._profile_terms(y[None, :])
        L = lams.size
        return self._profile_at(
            lams,
            np.repeat(UtY, L, axis=1),
            np.repeat(XfY, L, axis=1),
            np.repeat(yy, L),
        )

    def _select_lams(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ML log10-lambda per row: coarse scan then lockstep golden."""
        B = Y.shape[0]
        UtY, XfY, yy = self._profile_terms(Y)

        def prof(u: np.ndarray) -> np.ndarray:
            return self._profile_at(u, UtY, XfY, yy)

        scan = np.linspace(_LOG10_LO, _LOG10_HI, 17)
        vals = np.stack([prof(np.full(B, u)) for u in scan])   # (17, B)
        best = np.argmax(vals, axis=0)
        lo = scan[np.maximum(best - 1, 0)]
        hi = scan[np.minimum(best + 1, scan.size - 1)]
        u_hat = _golden_max_vec(prof, lo, hi, _GOLDEN_TOL)
        at_bound = (u_hat <= _LOG10_LO + 1e-3) | (u_hat >= _LOG10_HI - 1e-3)
        return u_hat, at_bound

    # -- fitting -------------------------------------------------------

    def coefs(self, Y: np.ndarray, lams: Optional[np.ndarray]) -> np.ndarray:
        """Penalized least squares coefficients of every row of Y.

        Row b is fitted at smoothing parameter ``lams[b]`` in closed form
        in the mixed-model basis: the fixed effects are the generalized
        least squares estimate, the random effects their ridge solution
        ``Vt' diag(s / (s^2 + lambda)) U' (y - Xf beta)``.  Returns
        ``(rows, basis_dim)``; the linear fallback ignores ``lams`` and
        returns least squares (intercept, slope) rows.
        """
        Y = np.asarray(Y, dtype=float)
        if self.fallback:
            return lm_rows(self._line_design, Y)[0]
        lams = np.asarray(lams, dtype=float)
        UtY, XfY, _ = self._profile_terms(Y)
        beta, _, _ = self._fixed_effects(lams, UtY, XfY)
        shrink = self._s[:, None] / (self._s2[:, None] + lams[None, :])
        b = shrink * (UtY - self._UtXf @ beta.T)
        return (self._U_null @ beta.T + self._pen_map @ b).T

    def fit(self, y: np.ndarray, lam: Optional[float] = None) -> SmoothFit:
        """Fit to a response vector; ``lam=None`` selects it by ML.

        With fewer than 4 distinct x values the fit is the least squares
        straight line, flagged ``fallback_linear``.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != self.x.shape:
            raise ValueError("x and y must have the same length")
        at_bound = False
        if self.fallback:
            lam = math.nan
        elif lam is None:
            u_hat, bound_mask = self._select_lams(y[None, :])
            lam = 10.0 ** float(u_hat[0])
            at_bound = bool(bound_mask[0])
        elif not (LAM_LO <= lam <= LAM_HI):
            raise ValueError(f"lam must lie in [{LAM_LO}, {LAM_HI}]")

        return SmoothFit(
            coefs=self.coefs(y[None, :], np.full(1, float(lam)))[0],
            lam=float(lam),
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
        """Fit every row of Y and evaluate each fit on the grid.

        Smoothing parameters are selected per row, exactly as
        :meth:`fit` would, but the likelihood search and the coefficient
        solve run for all rows at once.  This is the bootstrap hot path.
        """
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.x.size:
            raise ValueError(f"Y must be B x {self.x.size}")
        lams = None if self.fallback else 10.0 ** self._select_lams(Y)[0]
        return self.coefs(Y, lams) @ self.grid_design(grid).T

