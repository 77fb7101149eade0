import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import ndtr, ndtri
from scipy.stats import spearmanr

from envdiag import (
    AlphaTooSmall,
    Dataset,
    EnvdiagError,
    EnvelopeMode,
    LeverageOne,
    ModelCapability,
    ModelKind,
    PSplineDesign,
    PlotKind,
    ScenarioSpec,
    Separation,
    TooManyRefitFailures,
    Violation,
    default_capability,
    diagnose_model,
    fit_model,
    global_envelope,
    linear_predictors,
    refit,
    refit_many,
    residuals_for,
    simulate_replicates,
    simulate_response,
)
from envdiag.diagnostics import _plot_functionals
from envdiag.envelope import FunctionEnsemble
from envdiag.fitters import _no_mle_rows

from test_fitters import _bootstrap_draws, _stream_fit


def _one_row(kind, e, eta=None, m_grid=64):
    """Grid and values of one plot kind for a single residual vector."""
    E = np.asarray(e, dtype=float)[None, :]
    grid, values, _ = _plot_functionals((kind,), E, eta, m_grid)[kind]
    return grid, values[0]


def _one_plot(m, kind, **settings):
    """The envelope of one plot kind, from diagnose_model."""
    return diagnose_model(m, kinds=(kind,), **settings)[0][kind]


def _lm_null_model(rng, n=40):
    x = (np.arange(1, n + 1) - 0.5) / n
    X = np.column_stack([np.ones(n), x])
    y = -2 + 4 * x + 0.25 * rng.standard_normal(n)
    return fit_model(Dataset(y=y, X=X), ModelKind.LM)


# ------------------------------------------------------------------ #
# plot functionals
# ------------------------------------------------------------------ #


def test_qq_grid_median_is_zero_for_odd_n():
    grid, _ = _one_row(PlotKind.QQ, np.arange(5.0))
    assert grid[2] == 0.0


def test_qq_grid_first_quantile_n4():
    grid, _ = _one_row(PlotKind.QQ, np.arange(4.0))
    assert grid[0] == pytest.approx(ndtri(0.125))
    assert grid[0] == pytest.approx(-1.1503, abs=5e-5)


def test_qq_sorts_residuals():
    grid, vals = _one_row(PlotKind.QQ, np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(vals, [1.0, 2.0, 3.0])
    assert np.allclose(grid, [ndtri(1 / 6), 0.0, ndtri(5 / 6)])


def test_qq_grid_depends_only_on_n(rng):
    g1, _ = _one_row(PlotKind.QQ, rng.normal(size=17))
    g2, _ = _one_row(PlotKind.QQ, rng.normal(10, 5, size=17))
    assert np.array_equal(g1, g2)


def test_pp_zero_residual_gives_half():
    _, vals = _one_row(PlotKind.PP, np.array([0.0, 0.0, 0.0]))
    assert np.allclose(vals, 0.5)


def test_pp_identity_under_perfect_calibration():
    n = 9
    grid = (np.arange(1, n + 1) - 0.5) / n
    e = ndtri(grid)
    g, vals = _one_row(PlotKind.PP, e)
    assert np.allclose(vals, g, atol=1e-12)


def test_pp_compresses_tails():
    g, vals = _one_row(PlotKind.PP, np.array([-15.0, 0.0, 15.0]))
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert vals[1] == pytest.approx(0.5)
    assert vals[2] == pytest.approx(1.0, abs=1e-15)


def test_resfit_zero_residuals_give_zero_curve(rng):
    eta = np.linspace(0, 1, 30)
    grid, vals = _one_row(PlotKind.RES_VS_FITS, np.zeros(30), eta, 16)
    assert grid.shape == vals.shape == (16,)
    assert np.max(np.abs(vals)) < 1e-10


def test_resfit_linear_residuals_reproduced(rng):
    eta = np.linspace(0, 1, 30)
    e = 0.5 - 2.0 * eta
    _, vals = _one_row(PlotKind.RES_VS_FITS, e, eta, 16)
    assert np.max(np.abs(vals - (0.5 - 2.0 * np.linspace(0, 1, 16)))) < 1e-8


def test_resfit_recovers_quadratic_shape(rng):
    n = 200
    eta = np.linspace(-1, 1, n)
    e = (eta - eta.mean()) ** 2 + rng.normal(0, 0.1, n)
    grid, vals = _one_row(PlotKind.RES_VS_FITS, e, eta, 64)
    truth = (grid - eta.mean()) ** 2
    assert np.corrcoef(vals, truth)[0, 1] > 0.95


def test_scalelocation_constant_abs_residuals(rng):
    eta = np.linspace(0, 1, 100)
    e = np.where(np.arange(100) % 2 == 0, 1.0, -1.0)
    _, vals = _one_row(PlotKind.SCALE_LOCATION, e, eta, 32)
    assert np.max(np.abs(vals - 1.0)) < 0.05


def test_scalelocation_detects_increasing_spread(rng):
    n = 200
    eta = np.linspace(0.2, 2.0, n)
    e = rng.normal(0, 1, n) * eta
    grid, vals = _one_row(PlotKind.SCALE_LOCATION, e, eta, 64)
    rho = spearmanr(grid, vals).statistic
    assert rho > 0.9


# ------------------------------------------------------------------ #
# bootstrap pipeline
# ------------------------------------------------------------------ #


def test_plot_envelope_deterministic(rng):
    m = _lm_null_model(rng)
    a = _one_plot(m, PlotKind.QQ, B=49, seed=11)
    b = _one_plot(m, PlotKind.QQ, B=49, seed=11)
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.envelope.upper, b.envelope.upper)
    assert np.array_equal(a.envelope.stats, b.envelope.stats)
    assert a.p_value == b.p_value and a.reject == b.reject


def test_plot_envelope_wiring_matches_envelope_test(rng):
    m = _lm_null_model(rng)
    res = _one_plot(m, PlotKind.QQ, B=49, seed=3)
    ensemble = FunctionEnsemble(
        grid=res.grid,
        values=np.vstack([
            res.observed,
            # rebuild replicate rows through the same pipeline
            np.sort(simulate_replicates(m, 49, 3).residuals, axis=1),
        ]),
    )
    env = global_envelope(ensemble, 0.05, EnvelopeMode.STUDENTIZED_MAD)
    assert env.observed_outside == res.reject and env.p_value == res.p_value


def test_smoother_kinds_share_observed_grid(rng):
    m = _lm_null_model(rng)
    res = _one_plot(m, PlotKind.RES_VS_FITS, B=29, seed=1, m_grid=32)
    eta = linear_predictors(m)
    expected = np.linspace(eta.min(), eta.max(), 32)
    assert np.array_equal(res.grid, expected)
    res2 = _one_plot(m, PlotKind.SCALE_LOCATION, B=29, seed=1, m_grid=32)
    assert np.array_equal(res2.grid, expected)


def test_replicates_have_length_n_and_pooled_mean_zero(rng):
    m = _lm_null_model(rng, n=30)
    reps = simulate_replicates(m, 199, 17)
    assert reps.residuals.shape == (198, 30)
    pooled = reps.residuals.mean()
    assert abs(pooled) < 3.0 / np.sqrt(30 * 199)


def test_refit_failures_are_replaced(rng):
    m = _lm_null_model(rng)
    cap = default_capability()
    fails = {"left": 3}

    def flaky_refit_many(model, Y):
        E, logliks, failed = refit_many(model, Y)
        k = min(fails["left"], Y.shape[0])
        fails["left"] -= k
        failed[:k] = True
        return E, logliks, failed

    custom = ModelCapability(simulate=simulate_response,
                             refit_many=flaky_refit_many,
                             residuals=cap.residuals)
    reps = simulate_replicates(m, 99, 5, capability=custom)
    assert reps.n_failed == 3
    assert reps.residuals.shape[0] == 98


def test_too_many_refit_failures_raises(rng):
    m = _lm_null_model(rng)

    def always_fail(model, Y):
        R = Y.shape[0]
        return np.zeros(Y.shape), np.zeros(R), np.ones(R, dtype=bool)

    cap = default_capability()
    custom = ModelCapability(simulate=simulate_response,
                             refit_many=always_fail,
                             residuals=cap.residuals)
    with pytest.raises(TooManyRefitFailures):
        simulate_replicates(m, 99, 5, capability=custom)


def _sequential_replicates(m, B, seed, fails, simulate=simulate_response):
    """The one-draw-at-a-time loop the batched engine must reproduce:
    draw the B - 1 + floor(0.1 B) rows of ``simulate`` from
    ``default_rng(seed)``, refit each row alone in order, skip the ones
    ``fails`` picks, stop at B - 1 accepted rows."""
    Y = simulate(m, B - 1 + int(0.1 * B), np.random.default_rng(seed))
    rows, logliks, failed = [], [], 0
    for y in Y:
        if len(rows) == B - 1:
            break
        if fails(y):
            failed += 1
            continue
        m_b = refit(m, y)
        rows.append(residuals_for(m_b))
        logliks.append(m_b.loglik)
    return np.array(rows), np.array(logliks), failed


def test_refit_many_failures_match_sequential_loop(rng):
    """Rows 3, 17 and 50 of the first batch fail, and so do the first
    two spares (98, 99): the engine refills twice, and accepts the same
    rows in the same order as the sequential loop, bit for bit, with the
    same count."""
    m = _lm_null_model(rng)
    B, seed = 99, 6
    Y = simulate_response(m, B - 1 + int(0.1 * B), np.random.default_rng(seed))
    first = {Y[i, 0] for i in (3, 17, 50, 98, 99)}

    def fails(y):
        return y[0] in first

    def picky_refit_many(model, Y):
        E, logliks, failed = refit_many(model, Y)
        return E, logliks, failed | np.array([fails(y) for y in Y], dtype=bool)

    cap = default_capability()
    batched = ModelCapability(simulate=simulate_response,
                              refit_many=picky_refit_many,
                              residuals=cap.residuals)
    want_rows, want_logliks, want_failed = _sequential_replicates(
        m, B, seed, fails)
    assert want_failed == 5
    reps = simulate_replicates(m, B, seed, capability=batched)
    assert reps.n_failed == want_failed
    assert np.array_equal(reps.residuals, want_rows)
    assert np.array_equal(reps.logliks, want_logliks)


def _mle_exists_reference(X, y):
    """The existence rule one response at a time, as the per-response
    check computed it: positive rows of full rank (their own SVD), or else
    an LP over their null space that finds no separating direction."""
    pos = y > 0
    s = np.linalg.svd(X[pos], compute_uv=False)
    rank = int(np.count_nonzero(
        s > s.max(initial=0.0) * max(int(pos.sum()), X.shape[1])
        * np.finfo(float).eps))
    if rank == X.shape[1]:
        return True
    null = np.linalg.svd(X[pos])[2][rank:].T
    A = X[~pos] @ null
    lp = linprog(A.sum(axis=0), A_ub=np.vstack([A, -A]),
                 b_ub=np.repeat([0.0, 1.0], len(A)), bounds=(None, None))
    assert lp.status == 0
    return lp.fun >= -0.5


def _small_poisson_stream(B=99):
    """Fit and bootstrap seed of each of the first 40 datasets of the
    n=10 poisson null stream at seed 1, as a power study draws them, and
    B - 1 + floor(0.1 B) fixture draws of each (:func:`_bootstrap_draws`)."""
    spec = ScenarioSpec(model=ModelKind.GLM_POISSON,
                        violation=Violation.NULL_OK, n=10)
    for dataset in range(40):
        m, seed = _stream_fit(spec, dataset)
        yield m, seed, _bootstrap_draws(m, seed, B - 1 + int(0.1 * B))


def _refit_fails(m, y):
    try:
        refit(m, y)
    except EnvdiagError:
        return True
    return False


def test_batched_existence_mask_matches_per_row_rule():
    """On every draw of the n=10 poisson null stream the batched check
    finds exactly the responses without a finite MLE (2 of 4280), and
    the check of each response alone finds Separation on exactly those."""
    found = 0
    for m, _, Y in _small_poisson_stream():
        X = m.dataset.X
        want = np.array([not _mle_exists_reference(X, y) for y in Y])
        errors = _no_mle_rows(X, Y)
        assert sorted(errors) == list(np.flatnonzero(want))
        assert all(isinstance(e, Separation) for e in errors.values())
        for y, bad in zip(Y, want):
            alone = _no_mle_rows(X, y[None, :])
            assert list(alone) == ([0] if bad else [])
            assert all(isinstance(e, Separation) for e in alone.values())
        found += int(want.sum())
    assert found == 2


def test_poisson_refit_many_failures_match_sequential_loop():
    """On the n=10 poisson null stream, the failure mask of the batched
    refit is the set of draws whose one-at-a-time refit raises, and the
    bootstrap replaces the same draws and accepts the same rows as the
    sequential loop, bit for bit: on the engine's own draws, and on the
    fixture draws of :func:`_bootstrap_draws`, two of which have no
    finite MLE."""
    replaced = 0
    for m, seed, fixture in _small_poisson_stream():
        def fixture_rows(model, R, stream):
            return fixture[:R]

        for simulate in (simulate_response, fixture_rows):
            Y = simulate(m, 107, np.random.default_rng(seed))
            _, _, failed = refit_many(m, Y)
            one_by_one = [_refit_fails(m, y) for y in Y]
            assert np.array_equal(failed, one_by_one)
            bad = {y.tobytes() for y, f in zip(Y, one_by_one) if f}
            cap = ModelCapability(simulate=simulate, refit_many=refit_many,
                                  residuals=residuals_for)
            reps = simulate_replicates(m, 99, seed, capability=cap)
            want_rows, want_logliks, want_failed = _sequential_replicates(
                m, 99, seed, lambda y: y.tobytes() in bad, simulate)
            assert reps.n_failed == want_failed
            assert np.array_equal(reps.residuals, want_rows)
            assert np.array_equal(reps.logliks, want_logliks)
        replaced += reps.n_failed
    assert replaced == 2


def test_leverage_one_surfaces_before_any_refit():
    """A design row with leverage 1 leaves the standardized residuals
    undefined; diagnose_model reports that, instead of refitting every
    draw and failing with TooManyRefitFailures."""
    n = 12
    i = np.arange(1, n + 1)
    x = (i == n).astype(float)
    X = np.column_stack([np.ones(n), x, i / n])
    y = 0.3 * i + np.sin(i)
    m = fit_model(Dataset(y=y, X=X), ModelKind.LM)
    with pytest.raises(LeverageOne):
        residuals_for(m)
    calls = {"refit": 0}

    def counted_refit_many(model, Y):
        calls["refit"] += Y.shape[0]
        return refit_many(model, Y)

    counting = ModelCapability(simulate=simulate_response,
                               refit_many=counted_refit_many,
                               residuals=residuals_for)
    with pytest.raises(LeverageOne):
        diagnose_model(m, B=39, seed=1, capability=counting)
    assert calls["refit"] == 0
    # the batched refit marks every row failed, as refit + residuals would
    Y = simulate_response(m, 4, np.random.default_rng(0))
    assert refit_many(m, Y)[2].all()


def test_custom_residual_function_is_used(rng):
    m = _lm_null_model(rng)
    cap = default_capability()

    def doubled_refit_many(model, Y):
        E, logliks, failed = cap.refit_many(model, Y)
        return 2.0 * E, logliks, failed

    doubled = ModelCapability(
        simulate=simulate_response,
        refit_many=doubled_refit_many,
        residuals=lambda model: 2.0 * cap.residuals(model),
    )
    a = _one_plot(m, PlotKind.QQ, B=29, seed=2)
    b = _one_plot(m, PlotKind.QQ, B=29, seed=2, capability=doubled)
    assert np.allclose(2.0 * a.observed, b.observed)


def test_diagnose_model_consistent_with_single_plots(rng):
    m = _lm_null_model(rng)
    results, gof = diagnose_model(m, B=49, seed=9, m_grid=24, with_gof=True)
    for kind in PlotKind:
        single = _one_plot(m, kind, B=49, seed=9, m_grid=24)
        assert np.array_equal(single.observed, results[kind].observed)
        assert single.p_value == results[kind].p_value
    solo = diagnose_model(m, kinds=(), B=49, seed=9, with_gof=True)[1]
    assert solo == gof


def test_plot_envelope_requires_min_B(rng):
    m = _lm_null_model(rng)
    with pytest.raises(ValueError):
        diagnose_model(m, kinds=(PlotKind.QQ,), B=10, seed=0)


def test_simulate_replicates_and_diagnose_model_share_the_B_rule(rng):
    m = _lm_null_model(rng)
    with pytest.raises(ValueError) as direct:
        simulate_replicates(m, 10, 0)
    with pytest.raises(ValueError) as diagnosed:
        diagnose_model(m, B=10)
    assert str(direct.value) == str(diagnosed.value) == "B must be at least 19, got 10"


def test_simulate_replicates_and_diagnose_model_share_the_seed_rule(rng):
    """A negative seed fails with one message from both entry points,
    before anything is drawn."""
    m = _lm_null_model(rng)

    def no_draw(model, R, stream):
        raise AssertionError("drew before checking the seed")

    cap = ModelCapability(simulate=no_draw, refit_many=refit_many,
                          residuals=residuals_for)
    with pytest.raises(ValueError) as direct:
        simulate_replicates(m, 19, -1, capability=cap)
    with pytest.raises(ValueError) as diagnosed:
        diagnose_model(m, B=19, seed=-1, capability=cap)
    assert str(direct.value) == str(diagnosed.value) == (
        "seed must be non-negative, got -1")


@pytest.mark.parametrize("failing", [(), (0, 5), (3, 17, 50, 98, 99, 100)],
                         ids=["none", "two", "six-with-spares"])
def test_refitted_rows_are_a_prefix_of_one_batched_draw(rng, failing):
    """Whatever fails, the rows passed to ``refit_many``, in order, are a
    prefix of ``simulate(m, B - 1 + floor(0.1 B), default_rng(seed))``:
    a failure never changes a draw, and the engine asks ``simulate``
    once."""
    m = _lm_null_model(rng)
    B, seed = 99, 8
    seen, calls = [], []

    def recorded_simulate(model, R, stream):
        calls.append(R)
        return simulate_response(model, R, stream)

    def recording_refit_many(model, Y):
        rows = np.arange(len(Y)) + sum(len(y) for y in seen)
        seen.append(Y.copy())
        E, logliks, failed = refit_many(model, Y)
        return E, logliks, failed | np.isin(rows, failing)

    cap = ModelCapability(simulate=recorded_simulate,
                          refit_many=recording_refit_many,
                          residuals=residuals_for)
    reps = simulate_replicates(m, B, seed, capability=cap)
    assert calls == [B - 1 + int(0.1 * B)]
    assert reps.n_failed == len(failing)
    Y = np.concatenate(seen)
    assert len(Y) == B - 1 + len(failing)
    want = simulate_response(m, B - 1 + int(0.1 * B),
                             np.random.default_rng(seed))
    assert np.array_equal(Y, want[:len(Y)])


def test_smoother_kinds_share_one_design(rng, monkeypatch):
    m = _lm_null_model(rng)
    built = []
    init = PSplineDesign.__init__

    def counted(self, x):
        built.append(x)
        init(self, x)

    monkeypatch.setattr(PSplineDesign, "__init__", counted)
    diagnose_model(m, B=19, alpha=0.1, seed=4)
    assert len(built) == 1


@pytest.mark.parametrize("settings, error", [
    (dict(B=19, alpha=0.01), AlphaTooSmall),
    (dict(kinds=(PlotKind.RES_VS_FITS,), m_grid=0), ValueError),
    (dict(kinds=(), with_gof=True, alpha=1.5), ValueError),
], ids=["alpha-below-1-over-B", "m_grid-0", "alpha-above-1"])
def test_diagnose_model_checks_settings_before_any_refit(rng, settings, error):
    """Settings that cannot give a result fail before the first refit."""
    m = _lm_null_model(rng)

    def no_refit(model, Y):
        raise AssertionError("refit_many called")

    cap = ModelCapability(simulate=simulate_response, refit_many=no_refit,
                          residuals=residuals_for)
    with pytest.raises(error):
        diagnose_model(m, seed=1, capability=cap, **settings)


# ------------------------------------------------------------------ #
# statistical behavior
# ------------------------------------------------------------------ #


def test_lm_qq_type_one_error_controlled(rng):
    # refit envelopes on data simulated from the fitted model itself
    n = 40
    x = (np.arange(1, n + 1) - 0.5) / n
    X = np.column_stack([np.ones(n), x])
    rejections = 0
    reps = 400
    for _ in range(reps):
        y = -2 + 4 * x + 0.25 * rng.standard_normal(n)
        m = fit_model(Dataset(y=y, X=X), ModelKind.LM)
        seed = int(rng.integers(0, 2**63 - 1))
        res = _one_plot(m, PlotKind.QQ, B=199, alpha=0.05, seed=seed)
        rejections += int(res.reject)
    assert rejections / reps <= 0.08


def test_glm_mixture_qq_beats_scale_location(rng):
    # overdispersed counts: the quantile plot detects more than the
    # scale-location smoother
    n = 80
    x = (np.arange(1, n + 1) - 0.5) / n
    X = np.column_stack([np.ones(n), x])
    qq_hits = sl_hits = 0
    for _ in range(50):
        inflate = rng.random(n) < 0.1
        rate = np.exp(-2 + 4 * x) * np.where(inflate, 4.0, 1.0)
        y = rng.poisson(rate).astype(float)
        m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
        seed = int(rng.integers(0, 2**63 - 1))
        results, _ = diagnose_model(
            m, kinds=(PlotKind.QQ, PlotKind.SCALE_LOCATION), B=99, seed=seed
        )
        qq_hits += int(results[PlotKind.QQ].reject)
        sl_hits += int(results[PlotKind.SCALE_LOCATION].reject)
    assert qq_hits > sl_hits


# ------------------------------------------------------------------ #
# goodness-of-fit baseline
# ------------------------------------------------------------------ #


def test_gof_rank_bound(rng):
    m = _lm_null_model(rng)
    # observed loglik below every simulated value gives p = 1/B
    reps = simulate_replicates(m, 49, 21)
    from envdiag.diagnostics import _gof_from_logliks

    res = _gof_from_logliks(reps.logliks.min() - 10.0, reps.logliks, 0.05)
    assert res.p_value == pytest.approx(1.0 / 49.0)
    assert res.reject


def test_gof_null_rate_controlled(rng):
    n = 30
    x = (np.arange(1, n + 1) - 0.5) / n
    X = np.column_stack([np.ones(n), x])
    hits = 0
    reps = 400
    for _ in range(reps):
        y = rng.poisson(np.exp(-1 + 2 * x)).astype(float)
        m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
        seed = int(rng.integers(0, 2**63 - 1))
        res = diagnose_model(m, kinds=(), B=99, seed=seed, with_gof=True)[1]
        hits += int(res.reject)
    assert hits / reps <= 0.07
