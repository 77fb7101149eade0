import numpy as np
import pytest

from envdiag import (
    METHODS,
    EnvdiagError,
    ModelKind,
    PowerTable,
    ScenarioSpec,
    Violation,
    generate_dataset,
    run_grid,
    run_scenario,
)
from envdiag import harness
from envdiag.harness import _COEFS, _MIX_SCALE, _SIGMA, resolve_workers
from envdiag.io import _specs_from_config


def _spec(**kw):
    base = dict(model=ModelKind.LM, violation=Violation.NULL_OK, n=20,
                n_datasets=10, B=29, seed=4)
    base.update(kw)
    return ScenarioSpec(**base)


def test_quadratic_truth_peaks_at_center():
    b0, b1, b2 = _COEFS[Violation.QUADRATIC]
    eta = lambda x: b0 + b1 * x + b2 * x * x
    assert eta(0.5) == 2.0
    for d in (0.1, 0.25, 0.4):
        assert eta(0.5 - d) == pytest.approx(eta(0.5 + d))


def test_generate_equispaced_design():
    d = generate_dataset(_spec(n=10), np.random.default_rng(0))
    assert np.allclose(d.X[:, 1], (np.arange(1, 11) - 0.5) / 10)
    assert np.all(d.X[:, 0] == 1.0)
    assert d.group is None


def test_generate_group_cycle_for_random_intercepts():
    spec = _spec(model=ModelKind.GLMM_POISSON_RI, n=15)
    d = generate_dataset(spec, np.random.default_rng(0))
    assert np.array_equal(d.group, np.arange(15) % 5)
    assert np.all(d.y == np.floor(d.y)) and np.all(d.y >= 0)


def test_generate_null_lm_centered_on_truth():
    spec = _spec(n=1000)
    b0, b1, b2 = _COEFS[Violation.NULL_OK]
    rng = np.random.default_rng(77)
    devs = []
    for _ in range(100):
        d = generate_dataset(spec, rng)
        eta = b0 + b1 * d.X[:, 1] + b2 * d.X[:, 1] ** 2
        devs.append(d.y - eta)
    assert abs(np.concatenate(devs).mean()) < 0.01


def test_generate_mixture_lm_variance_identity():
    # var(y - eta) = 0.9 sigma^2 + 0.1 (4 sigma)^2 = 2.5 sigma^2
    spec = _spec(violation=Violation.MIXTURE, n=1000)
    b0, b1, b2 = _COEFS[Violation.MIXTURE]
    rng = np.random.default_rng(5)
    devs = []
    for _ in range(100):
        d = generate_dataset(spec, rng)
        eta = b0 + b1 * d.X[:, 1] + b2 * d.X[:, 1] ** 2
        devs.append(d.y - eta)
    target = (0.9 + 0.1 * _MIX_SCALE**2) * _SIGMA**2
    assert np.concatenate(devs).var() == pytest.approx(target, rel=0.02)


def test_generate_uniform_design_option():
    d = generate_dataset(_spec(x_design="uniform"), np.random.default_rng(1))
    x = d.X[:, 1]
    assert np.all(np.diff(x) >= 0) and x.min() >= 0 and x.max() <= 1
    assert np.unique(x).size == x.size


def test_scenario_rates_reproducible():
    spec = _spec(n_datasets=8)
    a = run_scenario(spec)
    b = run_scenario(spec)
    assert a.rates == b.rates and a.ses == b.ses
    assert a.n_failed == b.n_failed == 0


def test_null_rates_within_three_se():
    spec = _spec(n=20, n_datasets=50, B=49, seed=2)
    res = run_scenario(spec)
    bound = 0.05 + 3 * np.sqrt(0.05 * 0.95 / res.n_ok)
    for method in METHODS:
        assert res.rates[method] <= bound


def test_power_non_decreasing_in_n():
    small = run_scenario(_spec(violation=Violation.QUADRATIC, n=20,
                               n_datasets=50, B=49, seed=3))
    large = run_scenario(_spec(violation=Violation.QUADRATIC, n=80,
                               n_datasets=50, B=49, seed=3))
    m = "res_vs_fits"
    slack = 2 * np.sqrt(small.ses[m] ** 2 + large.ses[m] ** 2)
    assert large.rates[m] >= small.rates[m] - slack


def test_power_table_csv_shape():
    table, results = run_grid([_spec(n_datasets=5), _spec(n_datasets=5, seed=9)])
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == PowerTable.CSV_HEADER
    assert len(lines) == 1 + 2 * len(METHODS)
    rate = float(lines[1].split(",")[4])
    assert 0.0 <= rate <= 1.0
    assert all(r.n_failed == 0 for r in results)


def test_scenario_grid_cross_product():
    specs = _specs_from_config({
        "models": ["lm", "poisson"],
        "violations": ["null"],
        "sample_sizes": [10, 20],
        "n_datasets": 3,
        "B": 39,
    })
    assert len(specs) == 4
    assert {s.n for s in specs} == {10, 20}


def test_glmm_needs_ten_observations():
    with pytest.raises(ValueError):
        _spec(model=ModelKind.GLMM_POISSON_RI, n=8)


def test_m_grid_must_be_positive():
    with pytest.raises(ValueError, match="m_grid"):
        _spec(m_grid=0)
    assert _spec(m_grid=1).m_grid == 1


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("ENVDIAG_THREADS", raising=False)
    assert resolve_workers(None) == 1
    monkeypatch.setenv("ENVDIAG_THREADS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    for bad in ("abc", "-3", "0", "2.5"):
        monkeypatch.setenv("ENVDIAG_THREADS", bad)
        with pytest.raises(ValueError, match="ENVDIAG_THREADS"):
            resolve_workers(None)
        assert resolve_workers(2) == 2


def test_worker_count_does_not_change_rates():
    spec = _spec(n_datasets=8, B=29, seed=4)
    serial = run_scenario(spec, workers=1)
    pooled = run_scenario(spec, workers=2)
    assert serial.rates == pooled.rates
    assert serial.ses == pooled.ses


def test_failed_dataset_leaves_the_rate_denominators(monkeypatch, caplog):
    """A dataset whose fit raises is logged, counted in ``n_failed`` and
    left out of every rate; when every dataset fails, the scenario
    raises."""
    spec = _spec(violation=Violation.QUADRATIC, n_datasets=6)
    flags = [harness._run_one_dataset(spec, i) for i in range(6)]
    bad_y = generate_dataset(
        spec, np.random.default_rng(harness._dataset_seeds(spec, 2)[0])).y
    fit_model = harness.fit_model

    def failing(d, kind):
        if np.array_equal(d.y, bad_y):
            raise EnvdiagError("fit failed")
        return fit_model(d, kind)

    monkeypatch.setattr(harness, "fit_model", failing)
    res = run_scenario(spec, workers=1)
    assert (res.n_ok, res.n_failed) == (5, 1)
    assert "dataset 2 failed: fit failed" in caplog.text
    kept = flags[:2] + flags[3:]
    for method in METHODS:
        rate = sum(f[method] for f in kept) / 5
        assert res.rates[method] == rate
        assert res.ses[method] == np.sqrt(rate * (1.0 - rate) / 5)
    assert any(0.0 < r < 1.0 for r in res.rates.values()), res.rates

    def always(d, kind):
        raise EnvdiagError("fit failed")

    monkeypatch.setattr(harness, "fit_model", always)
    with pytest.raises(EnvdiagError,
                       match="^every dataset in the scenario failed$"):
        run_scenario(spec, workers=1)
