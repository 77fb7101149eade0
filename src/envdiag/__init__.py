"""Regression diagnostics with global simulation envelopes.

Fit a linear, Poisson, or Poisson random-intercept model, then wrap
QQ-plots, PP-plots, or residual smoothers in global envelopes built by
parametric bootstrap, as a library or through the ``envdiag`` command.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .data import (
    BadGrouping,
    Dataset,
    EnvdiagError,
    FittedModel,
    ModelCapability,
    ModelKind,
    RankDeficient,
    TooFewRows,
    validate_dataset,
)
from .fitters import (
    Fits,
    NonConvergence,
    Separation,
    fit_model,
    fit_rows,
    glmm_marginal_loglik,
    refit,
    simulate_response,
)
from .residuals import (
    LeverageOne,
    hat_diagonals,
    refit_many,
    residuals_for,
)
from .smoother import (
    DegenerateX,
    PSplineDesign,
    SmoothFit,
)
from .envelope import (
    AlphaTooSmall,
    FunctionEnsemble,
    GlobalEnvelope,
    mad_envelope,
    studentized_mad_envelope,
)
from .diagnostics import (
    DiagnosticResult,
    GofResult,
    PlotKind,
    TooManyRefitFailures,
    default_capability,
    diagnose_model,
    simulate_replicates,
)
from .harness import (
    METHODS,
    ScenarioSpec,
    Violation,
    generate_dataset,
    run_scenario,
)

# the submodules (envdiag.fitters, ...) are importable but not exported
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
