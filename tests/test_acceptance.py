"""Acceptance suite: every release gate in one module.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them as they complete).  The power-study criteria share module-scoped
scenario runs; on one core of a 2-core Intel Xeon machine the whole module
took 35 s, before criterion 4b's own runs (about 35 s more).
"""

import math

import numpy as np
import pytest

from envdiag import (
    Dataset,
    ModelKind,
    PSplineDesign,
    ScenarioSpec,
    Violation,
    fit_model,
    glmm_marginal_loglik,
    mad_envelope,
    run_scenario,
    studentized_mad_envelope,
)
from envdiag.envelope import FunctionEnsemble
from envdiag.io import RunConfig, run_diagnose, run_power_study

from test_fitters import gh_fixed_loglik, newton_poisson_mle

STUDY_SEED = 1
ALPHA = 0.05


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ------------------------------------------------------------------ #
# shared scenario runs (module scope: computed once)
# ------------------------------------------------------------------ #


@pytest.fixture(scope="module")
def null_results():
    out = {}
    for model in (ModelKind.LM, ModelKind.GLM_POISSON, ModelKind.GLMM_POISSON_RI):
        spec = ScenarioSpec(model=model, violation=Violation.NULL_OK, n=40,
                            n_datasets=400, B=99, alpha=ALPHA, seed=STUDY_SEED)
        out[model] = run_scenario(spec)
    return out


@pytest.fixture(scope="module")
def mixture_results():
    out = {}
    for model in (ModelKind.LM, ModelKind.GLM_POISSON):
        spec = ScenarioSpec(model=model, violation=Violation.MIXTURE, n=80,
                            n_datasets=200, B=99, alpha=ALPHA, seed=STUDY_SEED)
        out[model] = run_scenario(spec)
    return out


@pytest.fixture(scope="module")
def quadratic_results():
    out = {}
    for model in (ModelKind.LM, ModelKind.GLM_POISSON, ModelKind.GLMM_POISSON_RI):
        spec = ScenarioSpec(model=model, violation=Violation.QUADRATIC, n=40,
                            n_datasets=200, B=99, alpha=ALPHA, seed=STUDY_SEED)
        out[model] = run_scenario(spec)
    return out


# ------------------------------------------------------------------ #
# criterion 1: envelope exactness oracle
# ------------------------------------------------------------------ #


def test_criterion_1_envelope_exactness():
    rng = np.random.default_rng(2024)
    worst = ""
    ok = True
    for B in (20, 100, 200):
        for m in (1, 5, 50):
            for _ in range(5):
                vals = rng.standard_normal((B, m))
                ens = FunctionEnsemble(grid=np.arange(m, dtype=float),
                                       values=vals)
                for make in (mad_envelope, studentized_mad_envelope):
                    env = make(ens, ALPHA)
                    exceed = env.stats > env.critical
                    contained = int(exceed.sum()) <= math.floor(ALPHA * B)
                    exits = np.any(
                        (vals < env.lower[None, :] - 1e-12)
                        | (vals > env.upper[None, :] + 1e-12),
                        axis=1,
                    )
                    equiv = np.array_equal(exits, exceed)
                    if not (contained and equiv):
                        ok = False
                        worst = f"B={B} m={m} {make.__name__}"
    _report("1", ok, "containment and outside-set equivalence on "
                     f"synthetic ensembles{'; failed at ' + worst if worst else ''}")


# ------------------------------------------------------------------ #
# criterion 2: hand-worked MAD example
# ------------------------------------------------------------------ #


def test_criterion_2_hand_worked_mad():
    ens = FunctionEnsemble(grid=np.array([0.0]),
                           values=np.array([[0.0], [1.0], [2.0], [3.0]]))
    env = mad_envelope(ens, 0.5)
    ok = (
        env.critical == 0.5
        and np.array_equal(env.lower, [1.0])
        and np.array_equal(env.upper, [2.0])
    )
    _report("2", ok, f"critical={env.critical}, band=({env.lower[0]}, {env.upper[0]})")


# ------------------------------------------------------------------ #
# criterion 3: fitter oracles
# ------------------------------------------------------------------ #


def test_criterion_3_fitter_oracles():
    rng = np.random.default_rng(99)

    worst_glm = 0.0
    hits = 0
    while hits < 20:
        n = int(rng.integers(10, 30))
        x = rng.uniform(-1.0, 1.0, n)
        X = np.column_stack([np.ones(n), x])
        y = rng.poisson(np.exp(X @ np.array([0.8, 0.6]))).astype(float)
        if y.sum() == 0:
            continue
        m = fit_model(Dataset(y=y, X=X), ModelKind.GLM_POISSON)
        worst_glm = max(worst_glm, float(np.max(np.abs(m.beta - newton_poisson_mle(X, y)))))
        hits += 1

    worst_glmm = 0.0
    fixtures = [
        (0.0, 1.0, [[2.0]]),
        (math.log(2.0), 1.0, [[2.0]]),
        (0.3, 0.7, [[1.0, 3.0], [0.0, 2.0]]),
        (0.5, 1.5, [[4.0, 2.0, 1.0]]),
    ]
    for beta0, omega, groups in fixtures:
        ys = np.concatenate([np.asarray(g, dtype=float) for g in groups])
        labels = np.concatenate(
            [np.full(len(g), i, dtype=int) for i, g in enumerate(groups)]
        )
        X = np.ones((ys.size, 1))
        ours = glmm_marginal_loglik(np.array([beta0]), omega, X, ys, labels)
        oracle = gh_fixed_loglik(beta0, omega, groups)
        worst_glmm = max(worst_glmm, abs(ours - oracle))

    worst_lm = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 40))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=n)
        m = fit_model(Dataset(y=y, X=X), ModelKind.LM)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        worst_lm = max(worst_lm, float(np.max(np.abs(m.beta - beta))))

    ok = worst_glm < 1e-8 and worst_glmm < 1e-6 and worst_lm < 1e-10
    _report("3", ok,
            f"IRLS vs Newton {worst_glm:.2e} (<1e-8), "
            f"AGHQ vs 201-node quadrature {worst_glmm:.2e} (<1e-6), "
            f"LM vs normal equations {worst_lm:.2e} (<1e-10)")


# ------------------------------------------------------------------ #
# criterion 4: Type I error control
# ------------------------------------------------------------------ #


def test_criterion_4_type_one_error(null_results):
    ok = True
    details = []
    for model, res in null_results.items():
        worst_method = max(res.rates, key=res.rates.get)
        worst = res.rates[worst_method]
        details.append(f"{model.value}: max {worst:.3f} ({worst_method})")
        if worst > 0.08:
            ok = False
    _report("4", ok, "null rejection rates <= 0.08; " + "; ".join(details))


def test_criterion_4b_small_n_type_one_error():
    """Type I error at small n, with criterion 4's bound: the null cells
    of every class at n = 10 and 20 (400 datasets, B = 99).  A dataset
    that fails (``n_failed``) leaves the denominator: at seed 1 that is 5
    at ``poisson-ri`` n = 10 and 1 at ``poisson`` n = 10, draws with no
    finite MLE among the bootstrap children.  The six cells add about
    35 s to Tier-1 on one worker (one core of a 2-core Intel Xeon)."""
    ok = True
    details = []
    for model in (ModelKind.LM, ModelKind.GLM_POISSON, ModelKind.GLMM_POISSON_RI):
        for n in (10, 20):
            spec = ScenarioSpec(model=model, violation=Violation.NULL_OK, n=n,
                                n_datasets=400, B=99, alpha=ALPHA,
                                seed=STUDY_SEED)
            res = run_scenario(spec)
            worst_method = max(res.rates, key=res.rates.get)
            worst = res.rates[worst_method]
            details.append(f"{model.value} n={n}: max {worst:.3f} "
                           f"({worst_method}), n_failed {res.n_failed}")
            if worst > 0.08:
                ok = False
    _report("4b", ok, "small-n null rejection rates <= 0.08; "
            + "; ".join(details))


# ------------------------------------------------------------------ #
# criteria 5-7: power orderings
# ------------------------------------------------------------------ #


def _pooled_se(res, a, b):
    return math.sqrt(res.ses[a] ** 2 + res.ses[b] ** 2)


def test_criterion_5_mixture_ordering(mixture_results):
    ok = True
    details = []
    for model, res in mixture_results.items():
        gap_pp = res.rates["qq"] - res.rates["pp"]
        gap_sl = res.rates["qq"] - res.rates["scale_location"]
        thr_pp = 2 * _pooled_se(res, "qq", "pp")
        thr_sl = 2 * _pooled_se(res, "qq", "scale_location")
        details.append(
            f"{model.value}: qq-pp {gap_pp:.3f} (> {thr_pp:.3f}), "
            f"qq-sl {gap_sl:.3f} (> {thr_sl:.3f})"
        )
        if not (gap_pp > thr_pp and gap_sl > thr_sl):
            ok = False
    _report("5", ok, "mixture power ordering; " + "; ".join(details))


def test_mixture_gof_weaker_than_qq(mixture_results):
    # companion ordering from the same run: the likelihood baseline
    # detects Poisson overdispersion less often than the quantile plot
    res = mixture_results[ModelKind.GLM_POISSON]
    assert res.rates["qq"] > res.rates["loglik_gof"]


def test_criterion_6_quadratic_ordering(quadratic_results):
    ok = True
    details = []
    for model, res in quadratic_results.items():
        rvf = res.rates["res_vs_fits"]
        others = {k: v for k, v in res.rates.items() if k != "res_vs_fits"}
        runner_up = max(others, key=others.get)
        details.append(
            f"{model.value}: res_vs_fits {rvf:.3f} vs next "
            f"{others[runner_up]:.3f} ({runner_up})"
        )
        if not all(rvf > v for v in others.values()):
            ok = False
    _report("6", ok, "res-vs-fits strictly greatest under the quadratic; "
            + "; ".join(details))


def test_criterion_7_quadratic_overdispersion_on_qq(null_results,
                                                    quadratic_results):
    null_b = null_results[ModelKind.GLM_POISSON]
    quad_b = quadratic_results[ModelKind.GLM_POISSON]
    gap = quad_b.rates["qq"] - null_b.rates["qq"]
    thr = 2 * math.sqrt(quad_b.ses["qq"] ** 2 + null_b.ses["qq"] ** 2)
    _report("7", gap > thr,
            f"Poisson quadratic lifts the qq rate by {gap:.3f} (> {thr:.3f})")


# ------------------------------------------------------------------ #
# criterion 8: smoother null-space exactness
# ------------------------------------------------------------------ #


def test_criterion_8_smoother_null_space():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 1.0, 60))
    design = PSplineDesign(x)
    worst_line = 0.0
    for lam in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        f_lin = design.fit(1.5 - 2.0 * x, lam=lam)
        f_con = design.fit(np.full(60, 0.7), lam=lam)
        worst_line = max(
            worst_line,
            float(np.max(np.abs(f_lin(x) - (1.5 - 2.0 * x)))),
            float(np.max(np.abs(f_con(x) - 0.7))),
        )
    y = 1.0 + 0.5 * x + rng.normal(0, 0.3, 60)
    A = np.column_stack([np.ones(60), x])
    c = np.linalg.lstsq(A, y, rcond=None)[0]
    dense = np.linspace(x.min(), x.max(), 2000)
    f = PSplineDesign(x).fit(y, lam=1e8)
    limit_dist = float(np.max(np.abs(f(dense) - (c[0] + c[1] * dense))))
    ok = worst_line < 1e-8 and limit_dist < 1e-4
    _report("8", ok,
            f"null-space reproduction {worst_line:.2e} (<1e-8), "
            f"large-lambda OLS distance {limit_dist:.2e} (<1e-4)")


# ------------------------------------------------------------------ #
# criterion 9: byte-identical reruns
# ------------------------------------------------------------------ #


def test_criterion_9_determinism(tmp_path):
    rng = np.random.default_rng(0)
    n = 40
    x = (np.arange(1, n + 1) - 0.5) / n
    y = -2 + 4 * x + 0.25 * rng.standard_normal(n)
    data = tmp_path / "d.csv"
    data.write_text(
        "y,x\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(y, x)) + "\n"
    )
    outs = []
    for tag in ("a", "b"):
        cfg = RunConfig(data=str(data), model="lm", B=49, seed=12,
                        out=str(tmp_path / f"diag_{tag}"))
        run_diagnose(cfg)
        outs.append(tmp_path / f"diag_{tag}")
    same_diag = all(
        (outs[0] / f"{k}.csv").read_bytes() == (outs[1] / f"{k}.csv").read_bytes()
        for k in ("res_vs_fits", "qq")
    )

    grid_cfg = {
        "scenarios": [{"model": "lm", "violation": "null", "n": 20}],
        "n_datasets": 20,
        "B": 49,
        "seed": 3,
    }
    csv_a, _ = run_power_study(grid_cfg, str(tmp_path / "pow_a"))
    csv_b, _ = run_power_study(grid_cfg, str(tmp_path / "pow_b"))
    same_power = open(csv_a, "rb").read() == open(csv_b, "rb").read()
    _report("9", same_diag and same_power,
            "diagnose and power-study reruns are byte-identical")
