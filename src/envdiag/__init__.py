"""Regression diagnostics with global simulation envelopes.

Fit a linear, Poisson, or Poisson random-intercept model, then wrap
QQ-plots, PP-plots, or residual smoothers in global envelopes built by
parametric bootstrap, as a library or through the ``envdiag`` command.
"""

__version__ = "0.1.0"

from .data import (
    BadGrouping,
    Dataset,
    EnvdiagError,
    FittedModel,
    ModelCapability,
    ModelKind,
    RankDeficient,
    TooFewRows,
    linear_predictors,
    validate_dataset,
)
from .fitters import (
    Fits,
    NonConvergence,
    Separation,
    fit_glm_poisson,
    fit_glmm_poisson_ri,
    fit_lm,
    fit_model,
    fit_rows,
    glmm_marginal_loglik,
    log_likelihood,
    refit,
    simulate_response,
)
from .residuals import (
    LeverageOne,
    deviance_residuals,
    fitted_means,
    hat_diagonals,
    pearson_residuals,
    refit_many,
    residuals_for,
    standardized_residuals,
)
from .smoother import (
    DegenerateX,
    OutOfRange,
    PSplineDesign,
    SmoothFit,
    evaluate_on_grid,
    fit_smoother,
)
from .envelope import (
    AlphaTooSmall,
    EnvelopeMode,
    FunctionEnsemble,
    GlobalEnvelope,
    center_function,
    envelope_test,
    global_envelope,
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
    loglik_gof_test,
    plot_envelope,
    pp_function,
    qq_function,
    resfit_function,
    scalelocation_function,
    simulate_replicates,
)
from .harness import (
    METHODS,
    PowerRow,
    PowerTable,
    ScenarioSpec,
    Violation,
    generate_dataset,
    run_grid,
    run_scenario,
    scenario_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
