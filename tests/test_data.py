import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envdiag import (
    BadGrouping,
    Dataset,
    FittedModel,
    ModelKind,
    RankDeficient,
    TooFewRows,
    fit_model,
    linear_predictors,
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


def test_linear_predictors_identity_like_design():
    d = Dataset(y=[0.0, 1.0, 2.0], X=[[1, 0], [1, 1], [1, 2]])
    m = FittedModel(kind=ModelKind.LM, beta=[0.0, 1.0], eta=[0.0, 1.0, 2.0],
                    loglik=0.0, dataset=d, sigma=1.0)
    assert np.allclose(linear_predictors(m), [0.0, 1.0, 2.0])


def test_linear_predictors_direct_product():
    d = Dataset(y=[0.0, 0.0, 0.0], X=[[1, 0], [1, 0.5], [1, 1]])
    m = FittedModel(kind=ModelKind.LM, beta=[-2.0, 4.0],
                    eta=d.X @ np.array([-2.0, 4.0]), loglik=0.0,
                    dataset=d, sigma=1.0)
    assert np.allclose(linear_predictors(m), [-2.0, 0.0, 2.0])


def test_linear_predictors_exclude_random_effects():
    # two fits with identical beta must have identical eta, whatever the
    # predicted intercepts would be
    x = np.array([0.0, 1.0, 2.0, 3.0])
    d = Dataset(y=[1.0, 0.0, 2.0, 1.0], X=np.column_stack([np.ones(4), x]),
                group=[0, 0, 1, 1])
    beta = np.array([1.0, 0.0])
    m = FittedModel(kind=ModelKind.GLMM_POISSON_RI, beta=beta,
                    eta=d.X @ beta, loglik=-4.0, dataset=d, omega=2.0)
    assert np.all(linear_predictors(m) == 1.0)


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
