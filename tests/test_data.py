import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envdiag import (
    BadGrouping,
    Dataset,
    FittedModel,
    ModelKind,
    PlotKind,
    RankDeficient,
    ScenarioSpec,
    TooFewRows,
    Violation,
    diagnose_model,
    fit_model,
    generate_dataset,
    refit,
    simulate_response,
    validate_dataset,
)


def test_validate_accepts_full_rank_design():
    d = Dataset(y=[1, 2, 3], X=[[1, 0], [1, 1], [1, 2]])
    assert validate_dataset(d) is d


def test_validate_rejects_duplicated_column():
    X = np.array([[1.0, 2.0, 2.0], [1.0, 3.0, 3.0], [1.0, 4.0, 4.0]])
    with pytest.raises(RankDeficient):
        validate_dataset(Dataset(y=[1, 2, 3], X=X))


def test_validate_rejects_noncontiguous_groups():
    d = Dataset(y=[1, 2, 3], X=np.ones((3, 1)), group=[0, 2, 2])
    with pytest.raises(BadGrouping):
        validate_dataset(d)


def test_validate_rejects_too_few_rows():
    with pytest.raises(TooFewRows):
        validate_dataset(Dataset(y=[1, 2], X=np.ones((2, 1))))


def test_validate_rejects_wide_design():
    with pytest.raises(RankDeficient):
        validate_dataset(Dataset(y=[1, 2, 3], X=np.eye(3)[:, :2][:, [0, 1, 1]]))


def test_validate_is_idempotent():
    d = Dataset(y=[1, 2, 3, 4], X=[[1, 0], [1, 1], [1, 2], [1, 5]],
                group=[0, 1, 0, 1])
    assert validate_dataset(validate_dataset(d)) is d


def test_dataset_arrays_are_read_only():
    d = Dataset(y=[1, 2, 3], X=np.ones((3, 1)))
    with pytest.raises(ValueError):
        d.y[0] = 5.0


@pytest.mark.parametrize("kind, scale, error", [
    (ModelKind.LM, -1.0, ValueError), (ModelKind.LM, float("nan"), ValueError),
    (ModelKind.GLMM_POISSON_RI, float("inf"), ValueError),
    (ModelKind.GLM_POISSON, 0.5, ValueError), (ModelKind.LM, None, TypeError)])
def test_fitted_model_rejects_a_bad_scale(kind, scale, error):
    """The scale is required, finite and nonnegative, and 0 for poisson."""
    d = Dataset(y=np.ones(3), X=np.ones((3, 1)))
    given = {} if scale is None else {"scale": scale}
    with pytest.raises(error):
        FittedModel(kind=kind, beta=[0.0], eta=np.zeros(3), loglik=0.0,
                    dataset=d, **given)


def test_smoother_plot_x_of_a_random_intercept_fit_is_the_marginal_eta():
    """The smoother plots put the residuals against ``m.eta``, the marginal
    ``X beta``: the predicted group intercepts are left out, so the x of
    the observed plot is that of every replicate."""
    spec = ScenarioSpec(model=ModelKind.GLMM_POISSON_RI,
                        violation=Violation.NULL_OK, n=40)
    d = generate_dataset(spec, np.random.default_rng(3))
    m = fit_model(d, ModelKind.GLMM_POISSON_RI)
    assert m.scale > 0.0
    results, _ = diagnose_model(m, kinds=(PlotKind.RES_VS_FITS,), B=39,
                                seed=1)
    x = results[PlotKind.RES_VS_FITS].points[:, 0]
    assert np.array_equal(x, m.eta)
    assert np.allclose(x, d.X @ m.beta, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_refit_after_simulate_preserves_structure(kind, rng):
    n = 20
    x = np.linspace(0.0, 1.0, n)
    X = np.column_stack([np.ones(n), x])
    group = np.arange(n) % 5 if kind is ModelKind.GLMM_POISSON_RI else None
    if kind is ModelKind.LM:
        y = 1.0 + x + rng.normal(0, 0.5, n)
    else:
        y = rng.poisson(np.exp(0.5 + x)).astype(float)
    m = fit_model(Dataset(y=y, X=X, group=group), kind)
    m2 = refit(m, simulate_response(m, 1, rng)[0])
    assert m2.kind is kind
    assert np.array_equal(m2.dataset.X, m.dataset.X)
    if group is None:
        assert m2.dataset.group is None
    else:
        assert np.array_equal(m2.dataset.group, m.dataset.group)


@given(st.integers(3, 30), st.integers(1, 6))
def test_group_relabelling_detected(n, gap):
    labels = np.zeros(n, dtype=int)
    labels[-1] = gap  # skips labels 1..gap-1 whenever gap > 1
    d = Dataset(y=np.arange(n, dtype=float), X=np.ones((n, 1)), group=labels)
    if gap == 1:
        validate_dataset(d)
    else:
        with pytest.raises(BadGrouping):
            validate_dataset(d)
