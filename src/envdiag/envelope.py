"""Global envelopes over an ensemble of functions on a common grid.

Given B functions sampled on the same evaluation set (the first row being
the observed function), each row is ranked by its maximal distance from
the ensemble mean, either raw (:func:`mad_envelope`) or divided pointwise
by the ensemble standard deviation (:func:`studentized_mad_envelope`).
The envelope at level alpha is the band that exactly the most extreme
fraction alpha of rows escape, which turns the plot into a Monte Carlo
test: the observed function leaves the band somewhere iff its statistic
exceeds the critical quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import EnvdiagError

# pointwise variance below this is treated as exactly degenerate
_VAR_EPS = 1e-24


class AlphaTooSmall(EnvdiagError):
    """alpha < 1/B: no rejection is achievable with this ensemble size."""


@dataclass(frozen=True, eq=False)
class FunctionEnsemble:
    """B functions on a shared grid; row 0 is the observed function."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        # C order: the column sums of the envelopes then take one order,
        # whatever the layout of the values given
        values = np.ascontiguousarray(self.values, dtype=float)
        if grid.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if values.ndim != 2 or values.shape[1] != grid.shape[0]:
            raise ValueError(
                f"values must be B x {grid.shape[0]}, got {values.shape}"
            )
        if values.shape[0] < 2:
            raise ValueError("need at least two rows (observed + 1)")
        if grid.shape[0] < 1:
            raise ValueError("grid must be nonempty")
        if np.any(np.diff(grid) < 0):
            raise ValueError("grid must be sorted ascending")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("ensemble entries must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def B(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.grid.shape[0]


@dataclass(frozen=True, eq=False)
class GlobalEnvelope:
    """A fitted global envelope plus the per-row exceedance statistics.

    ``center`` is the columnwise mean of all B rows, the observed one
    included.  ``stats[0]`` belongs to the observed function.  ``critical`` is the
    ceil((1-alpha) B)-th smallest statistic; a row leaves the band at some
    grid point exactly when its statistic is strictly greater.
    """

    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    critical: float
    stats: np.ndarray
    alpha: float
    p_value: float
    observed_outside: bool
    pointwise_sd: Optional[np.ndarray] = None      # Studentized only
    degenerate_points: Optional[np.ndarray] = None  # bool mask, Studentized


def _critical_index(alpha: float, B: int) -> int:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    # the tolerance absorbs the rounding of (1 - alpha) * B, which is
    # 123.00000000000001 at alpha = 0.18, B = 150 (exactly 123)
    k = math.ceil((1.0 - alpha) * B - 1e-9)
    if k >= B:
        raise AlphaTooSmall(
            f"alpha={alpha} below 1/B={1.0 / B}: no rejection achievable"
        )
    return k


def _band(
    e: FunctionEnsemble,
    alpha: float,
    center: np.ndarray,
    stats: np.ndarray,
    scale: float | np.ndarray,
    sd: Optional[np.ndarray] = None,
    degenerate: Optional[np.ndarray] = None,
) -> GlobalEnvelope:
    """The band ``center +/- critical * scale`` and the test it implies."""
    critical = float(np.sort(stats)[_critical_index(alpha, e.B) - 1])
    half = critical * scale
    return GlobalEnvelope(
        center=center,
        lower=center - half,
        upper=center + half,
        critical=critical,
        stats=stats,
        alpha=alpha,
        p_value=float(np.count_nonzero(stats >= stats[0])) / e.B,
        observed_outside=bool(stats[0] > critical),
        pointwise_sd=sd,
        degenerate_points=degenerate,
    )


def mad_envelope(e: FunctionEnsemble, alpha: float) -> GlobalEnvelope:
    """Envelope from the maximum absolute difference to the mean function.

    ``u_b = max_r |T_b(r) - T0(r)|``; the band is the mean plus/minus the
    ceil((1-alpha) B)-th smallest u.
    """
    center = e.values.mean(axis=0)
    stats = np.max(np.abs(e.values - center[None, :]), axis=1)
    return _band(e, alpha, center, stats, 1.0)


def studentized_mad_envelope(e: FunctionEnsemble, alpha: float) -> GlobalEnvelope:
    """Envelope from pointwise-standardized maximal deviations.

    Dividing by the ensemble's pointwise standard deviation equalizes the
    influence of grid regions with unequal variability.  Grid points with
    numerically zero variance are excluded from the max; the band
    collapses onto the center there and the points are flagged.
    """
    if e.B < 3:
        raise ValueError("Studentized envelope needs B >= 3")
    center = e.values.mean(axis=0)
    dev = e.values - center[None, :]
    var = np.sum(dev * dev, axis=0) / (e.B - 1)
    degenerate = var < _VAR_EPS
    sd = np.sqrt(var)
    if np.all(degenerate):
        stats = np.zeros(e.B)
    else:
        scaled = np.abs(dev[:, ~degenerate]) / sd[None, ~degenerate]
        stats = np.max(scaled, axis=1)
    return _band(e, alpha, center, stats, np.where(degenerate, 0.0, sd),
                 sd, degenerate)

