"""Core data model and the capability contract shared by all model classes.

A fitted model of any class is reduced to three capabilities (batched
simulate, batched refit, residuals); the plot x-axis is always its
marginal linear predictors.  The bootstrap engine only ever talks to a
``ModelCapability``, so new model classes can be plugged in without
touching the envelope machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class EnvdiagError(Exception):
    """Base class for all errors raised by this package."""


class TooFewRows(EnvdiagError):
    """Dataset has fewer than three rows."""


class RankDeficient(EnvdiagError):
    """Design matrix does not have full column rank."""


class BadGrouping(EnvdiagError):
    """Group labels are not contiguous integers 0..G-1 with no empty class."""


class ModelKind(enum.Enum):
    LM = "lm"
    GLM_POISSON = "poisson"
    GLMM_POISSON_RI = "poisson-ri"


def _as_float_vector(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Response vector, design matrix and optional grouping labels.

    Parameters
    ----------
    y : array, shape (n,)
        Response values.
    X : array, shape (n, p)
        Design matrix; by convention the first column is the all-ones
        intercept (callers build it explicitly, there is no formula layer).
    group : array of int, shape (n,), optional
        Random-intercept grouping labels, contiguous integers ``0..G-1``.
    """

    y: np.ndarray
    X: np.ndarray
    group: Optional[np.ndarray] = None

    def __post_init__(self):
        y = _as_float_vector(self.y, "y")
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be two-dimensional, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"y has {y.shape[0]} rows but X has {X.shape[0]}"
            )
        group = self.group
        if group is not None:
            group = np.asarray(group, dtype=int)
            if group.shape != y.shape:
                raise ValueError("group must have the same length as y")
        for arr in (y, X) + ((group,) if group is not None else ()):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "group", group)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_groups(self) -> int:
        if self.group is None:
            return 0
        return int(self.group.max()) + 1


def validate_dataset(d: Dataset) -> Dataset:
    """Check the Dataset invariants and return ``d`` unchanged.

    Raises
    ------
    TooFewRows
        If ``n < 3``.
    RankDeficient
        If ``X`` has more columns than rows or rank below ``p``.
    BadGrouping
        If group labels are present but not contiguous ``0..G-1`` with
        every label occurring at least once.
    """
    if d.n < 3:
        raise TooFewRows(f"need at least 3 rows, got {d.n}")
    if not np.all(np.isfinite(d.y)) or not np.all(np.isfinite(d.X)):
        raise ValueError("y and X must be finite")
    if d.p > d.n:
        raise RankDeficient(f"p={d.p} columns exceed n={d.n} rows")
    rank = np.linalg.matrix_rank(d.X)
    if rank < d.p:
        raise RankDeficient(f"X has rank {rank} < p={d.p}")
    if d.group is not None:
        labels = np.unique(d.group)
        expected = np.arange(labels.size)
        if labels.size == 0 or not np.array_equal(labels, expected):
            raise BadGrouping(
                f"labels must be contiguous 0..G-1, got {labels.tolist()}"
            )
    return d


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Parameter estimates plus everything needed to simulate and refit.

    ``eta`` is the marginal linear predictor, ``X @ beta`` up to rounding
    (for ``lm``, the fitted values ``Q Q'y`` of the design's QR); for the
    random-intercept model the predicted group effects are deliberately
    excluded so that linear predictors are comparable across bootstrap
    replicates.

    ``scale`` is the scale of :class:`~envdiag.fitters.Fits`: the
    residual sd sigma for ``lm`` (0 for a fit with zero residual
    variance), the random-intercept sd omega for ``poisson-ri`` (0 for
    the exact GLM, whose bootstrap draws no intercepts) and 0 for
    ``poisson``.
    """

    kind: ModelKind
    beta: np.ndarray
    eta: np.ndarray
    loglik: float
    dataset: Dataset
    scale: float

    def __post_init__(self):
        beta = _as_float_vector(self.beta, "beta")
        eta = _as_float_vector(self.eta, "eta")
        beta.setflags(write=False)
        eta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "eta", eta)
        if not np.isfinite(self.loglik):
            raise ValueError("loglik must be finite")
        if not (np.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError("scale must be finite and nonnegative")
        if self.kind is ModelKind.GLM_POISSON and self.scale != 0.0:
            raise ValueError("scale of a poisson fit must be 0")

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def p(self) -> int:
        return self.dataset.p


RefitRows = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ModelCapability:
    """The operations the bootstrap engine needs from a model class.

    ``simulate(m, R, stream)`` draws R response vectors from the fitted
    model as rows (R, n), all from the one generator ``stream``; the
    engine calls it once per dataset, so a row depends only on the
    stream's seed, R and its index.  ``refit_many`` refits every row of
    ``Y`` (R, n), keeping kind, design and grouping, and returns the
    residuals (R, n), maximized log-likelihoods (R,) and a mask (R,) of
    failed rows; row r must not depend on the other rows.  ``residuals``
    gives those of the observed fit.  Smoother plots put the residuals
    against the marginal linear predictors ``m.eta``, which exclude the
    predicted group intercepts of the random-intercept model, so the
    plot's x is the same for the observed fit and every replicate.
    """

    simulate: Callable[[FittedModel, int, np.random.Generator], np.ndarray]
    refit_many: Callable[[FittedModel, np.ndarray], RefitRows]
    residuals: Callable[[FittedModel], np.ndarray]
