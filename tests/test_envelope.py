import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envdiag import (
    AlphaTooSmall,
    FunctionEnsemble,
    mad_envelope,
    studentized_mad_envelope,
)


def _ensemble(values, grid=None):
    values = np.asarray(values, dtype=float)
    if grid is None:
        grid = np.arange(values.shape[1], dtype=float)
    return FunctionEnsemble(grid=grid, values=values)


# ------------------------------------------------------------------ #
# center function
# ------------------------------------------------------------------ #


def test_center_of_identical_rows():
    e = _ensemble([[2.0, 5.0]] * 4)
    assert np.array_equal(mad_envelope(e, 0.5).center, [2.0, 5.0])


def test_center_arithmetic_mean():
    e = _ensemble([[0.0], [1.0], [2.0], [3.0]])
    assert np.array_equal(mad_envelope(e, 0.5).center, [1.5])


def test_center_symmetry():
    e = _ensemble([[0.0, 2.0], [2.0, 0.0]])
    assert np.array_equal(mad_envelope(e, 0.5).center, [1.0, 1.0])


# ------------------------------------------------------------------ #
# hand-worked MAD example
# ------------------------------------------------------------------ #


def test_mad_hand_example():
    e = _ensemble([[0.0], [1.0], [2.0], [3.0]])
    env = mad_envelope(e, 0.5)
    assert np.array_equal(env.center, [1.5])
    assert np.allclose(env.stats, [1.5, 0.5, 0.5, 1.5])
    assert env.critical == 0.5
    assert np.array_equal(env.lower, [1.0])
    assert np.array_equal(env.upper, [2.0])
    outside = env.stats > env.critical
    assert list(np.where(outside)[0]) == [0, 3]  # rows one and four
    assert env.observed_outside


def test_mad_identical_rows_degenerate():
    e = _ensemble([[1.0, 2.0]] * 5)
    env = mad_envelope(e, 0.2)
    assert env.critical == 0.0
    assert np.array_equal(env.lower, env.center)
    assert not env.observed_outside
    assert np.sum(env.stats > env.critical) == 0


@pytest.mark.parametrize("alpha, B, k", [
    (0.05, 200, 190),
    # (1 - alpha) * B rounds to 123.00000000000001 and 58.00000000000001
    (0.18, 150, 123), (0.42, 100, 58)])
def test_mad_critical_index(rng, alpha, B, k):
    """The critical value is the k-th smallest statistic, k = (1 - alpha)
    B rounded up, exactly even where the product does not round to k."""
    vals = rng.standard_normal((B, 3))
    env = mad_envelope(_ensemble(vals), alpha)
    stats = np.sort(env.stats)
    assert env.critical == stats[k - 1]


def test_studentized_hand_example():
    e = _ensemble([[0.0], [1.0], [2.0], [3.0]])
    env = studentized_mad_envelope(e, 0.5)
    assert np.allclose(env.pointwise_sd**2, [5.0 / 3.0])
    scale = np.sqrt(5.0 / 3.0)
    assert np.allclose(env.stats, np.array([1.5, 0.5, 0.5, 1.5]) / scale)
    mad = mad_envelope(e, 0.5)
    assert np.array_equal(env.stats > env.critical, mad.stats > mad.critical)


@given(st.integers(0, 6), st.floats(0.2, 5.0))
def test_studentized_invariant_to_pointwise_scaling(seed, s0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((40, 6))
    scale = np.linspace(s0, 3.0 * s0, 6)
    base = studentized_mad_envelope(_ensemble(vals), 0.1)
    scaled = studentized_mad_envelope(_ensemble(vals * scale[None, :]), 0.1)
    assert np.allclose(base.stats, scaled.stats)
    assert np.array_equal(
        base.stats > base.critical, scaled.stats > scaled.critical
    )


def test_studentized_null_coverage_monte_carlo(rng):
    vals = rng.standard_normal((1000, 1))
    env = studentized_mad_envelope(_ensemble(vals), 0.05)
    n_out = int(np.sum(env.stats > env.critical))
    assert abs(n_out - 50) <= 21  # binomial 3 sigma


def test_zero_variance_points_collapse():
    vals = np.column_stack([np.full(10, 2.0), np.arange(10.0)])
    env = studentized_mad_envelope(_ensemble(vals), 0.2)
    assert env.degenerate_points[0] and not env.degenerate_points[1]
    assert env.lower[0] == env.center[0] == env.upper[0] == 2.0
    assert np.isfinite(env.stats).all()


def test_alpha_too_small_rejected():
    e = _ensemble(np.random.default_rng(0).standard_normal((10, 2)))
    with pytest.raises(AlphaTooSmall):
        mad_envelope(e, 0.05)  # alpha < 1/B = 0.1
    mad_envelope(e, 0.1)  # boundary value is fine


# ------------------------------------------------------------------ #
# the envelope test and shared properties
# ------------------------------------------------------------------ #


def test_envelope_test_center_observed():
    # an observed row equal to the simulation mean is also the mean of
    # the full ensemble: it can never reject, and p is maximal
    sims = np.random.default_rng(3).normal(1.5, 1.0, (19, 4))
    e = _ensemble(np.vstack([sims.mean(axis=0), sims]))
    env = mad_envelope(e, 0.2)
    assert np.allclose(env.center, e.values[0])
    assert not env.observed_outside
    assert env.p_value == 1.0


def test_envelope_test_extreme_observed():
    e = _ensemble([[3.0], [1.0], [2.0], [0.0]])
    env = mad_envelope(e, 0.5)
    assert env.observed_outside
    assert env.p_value == pytest.approx(0.5)


@given(st.integers(0, 20), st.sampled_from([20, 100, 200]),
       st.sampled_from([1, 5, 50]))
def test_containment_and_equivalence(seed, B, m):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((B, m))
    e = _ensemble(vals)
    alpha = 0.05
    for make in (mad_envelope, studentized_mad_envelope):
        env = make(e, alpha)
        exceed = env.stats > env.critical
        assert int(exceed.sum()) <= int(np.floor(alpha * B))
        exits = np.any(
            (vals < env.lower[None, :] - 1e-12)
            | (vals > env.upper[None, :] + 1e-12),
            axis=1,
        )
        assert np.array_equal(exits, exceed)


@given(st.integers(0, 20), st.floats(-5.0, 5.0))
def test_constant_shift_moves_bounds_only(seed, c):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((30, 4))
    a = studentized_mad_envelope(_ensemble(vals), 0.1)
    b = studentized_mad_envelope(_ensemble(vals + c), 0.1)
    assert np.allclose(a.stats, b.stats)
    assert a.critical == pytest.approx(b.critical)
    assert a.p_value == b.p_value
    assert np.allclose(a.center + c, b.center)
    assert np.allclose(a.upper + c, b.upper)


def test_mad_equals_studentized_under_constant_variance(rng):
    # equal pointwise variance: same rows stray outside in both modes
    base = rng.standard_normal((60, 1))
    vals = np.repeat(base, 5, axis=1)  # identical columns
    e = _ensemble(vals)
    a = mad_envelope(e, 0.1)
    b = studentized_mad_envelope(e, 0.1)
    assert np.array_equal(a.stats > a.critical, b.stats > b.critical)


@given(st.integers(0, 30))
def test_p_value_bounds_and_reject_consistency(seed):
    rng = np.random.default_rng(seed)
    B = 50
    e = _ensemble(rng.standard_normal((B, 3)))
    env = studentized_mad_envelope(e, 0.1)
    assert env.p_value >= 1.0 / B
    if env.observed_outside:
        assert env.p_value <= 0.1 + 1.0 / B


def test_null_exactness_rejection_rate(rng):
    # simple hypothesis: iid rows, repeated tests at alpha=0.05
    hits = 0
    reps = 2000
    for _ in range(reps):
        e = _ensemble(rng.standard_normal((100, 4)))
        env = studentized_mad_envelope(e, 0.05)
        hits += int(env.observed_outside)
    rate = hits / reps
    assert rate <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / reps)


@pytest.mark.parametrize("envelope", [mad_envelope, studentized_mad_envelope])
def test_envelope_does_not_depend_on_memory_layout(rng, envelope):
    """C- and F-ordered copies of one 199 x 64 ensemble give the same
    center, bands and statistics, bit for bit: the column sums take one
    order whatever the layout of the values given."""
    values = rng.normal(0.0, 1.0, (199, 64)) * np.linspace(0.5, 2.0, 64)
    c = envelope(_ensemble(np.ascontiguousarray(values)), 0.05)
    f = envelope(_ensemble(np.asfortranarray(values)), 0.05)
    for field in ("center", "lower", "upper", "stats"):
        assert np.array_equal(getattr(c, field), getattr(f, field)), field


def test_rejects_nonfinite_and_malformed():
    with pytest.raises(ValueError):
        _ensemble([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        _ensemble([[1.0, 2.0]])
    with pytest.raises(ValueError):
        FunctionEnsemble(grid=[1.0, 0.0], values=[[0.0, 1.0], [1.0, 0.0]])
