"""Product-limit estimation, Weibull MLE, Cox fit, and scale conversions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from survquack import (
    ARM_C,
    ARM_RX,
    Measure,
    SubgroupTable,
    SurvivalSample,
    WeibullDist,
    cox_fit_two_arm,
    derive_rng,
    empirical_llp,
    generate_prognostic_sample,
    hr_from_llp,
    hr_to_tr,
    km_fit,
    km_median,
    llp_from_hr,
    load_oak_analog_spec,
    quantile,
    realize_scenario,
    run_study,
    sample_times,
    sample_tr,
    tr_to_hr,
    weibull_from_median,
    weibull_mle,
)
from survquack import estim, sim
from survquack.errors import (
    DomainError,
    NotReachedError,
    NumericalError,
    UnsupportedCensoring,
)

from oracles import (
    breslow_counts,
    breslow_functions,
    breslow_score,
    complete_tables_by_argsort,
    draw_trial,
    empirical_survival,
    km_by_hand,
    pairwise_win_fraction,
    weibull_density,
    weibull_loglik,
    weibull_profile_root,
)


# --------------------------------------------------------------------- km_fit

def test_km_uncensored_equals_empirical_fractions():
    km = km_fit([1.0, 2.0, 3.0], [True] * 3)
    assert km.survival(2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert km.survival(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert km.survival(0.5) == 1.0
    assert km.survival(3.0) == 0.0


def test_km_with_censoring_hand_oracle():
    times = [1.0, 2.0, 3.0]
    events = [True, False, True]
    km = km_fit(times, events)
    assert km.survival(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert km.survival(3.0) == 0.0
    for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        assert km.survival(t) == pytest.approx(km_by_hand(times, events, t), rel=1e-14)


def test_km_single_subject():
    km = km_fit([5.0], [True])
    assert km.survival(4.999) == 1.0
    assert km.survival(5.0) == 0.0
    assert km.survival_left(5.0) == 1.0


def test_km_rejects_bad_input():
    with pytest.raises(DomainError):
        km_fit([], [])
    with pytest.raises(DomainError):
        km_fit([1.0, 2.0], [True])
    with pytest.raises(DomainError):
        km_fit([0.0, 1.0], [True, True])


def test_km_matches_empirical_survival_everywhere():
    for i in range(40):
        rng = derive_rng(17, "km-vs-emp", i)
        n = int(rng.integers(1, 60))
        # rounding forces ties so the risk-set bookkeeping gets exercised
        t = np.round(sample_times(WeibullDist(1.1, 9.0), rng, n), 1) + 0.1
        km = km_fit(t, np.ones(n, bool))
        for tt in np.unique(t):
            assert abs(km.survival(tt) - empirical_survival(t, tt)) <= 1e-12


def test_km_plateau_flag():
    km = km_fit([1.0, 2.0], [True, False])
    assert km.final_survival() == pytest.approx(0.5)
    assert km_fit([1.0, 2.0], [True, True]).final_survival() == 0.0


@st.composite
def _two_arm_samples(draw):
    n = draw(st.integers(2, 40))
    # few distinct times force ties within and across arms
    time = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    is_rx = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SurvivalSample(np.asarray(time, float) / 4.0, event, is_rx)


def _assert_km_from_table_is_km_fit(sample):
    for rx in (True, False):
        if not (sample.is_rx == rx).any():
            continue
        shared, alone = sample.km(rx), km_fit(*sample.arm(rx))
        assert shared.times.tobytes() == alone.times.tobytes()
        assert shared.survival_after.tobytes() == alone.survival_after.tobytes()


@given(_two_arm_samples())
@settings(max_examples=200, deadline=None)
def test_km_read_off_the_shared_table_is_bitwise_km_fit(sample):
    _assert_km_from_table_is_km_fit(sample)


def test_km_read_off_the_shared_table_with_a_censored_last_observation():
    # Rx ends censored at 9 and C at 7; both arms share tied times 2 and 5
    sample = SurvivalSample(
        [2.0, 2.0, 5.0, 9.0, 2.0, 5.0, 5.0, 7.0, 1.0],
        [True, False, True, False, True, True, False, False, True],
        [True, True, True, True, False, False, False, False, False],
    )
    assert sample.km(True).final_survival() > 0 and sample.km(False).final_survival() > 0
    _assert_km_from_table_is_km_fit(sample)
    rng = derive_rng(17, "km-shared")
    t = np.round(sample_times(WeibullDist(1.1, 9.0), rng, 300), 1) + 0.1
    _assert_km_from_table_is_km_fit(SurvivalSample(t, rng.random(300) < 0.7, rng.random(300) < 0.5))


def _assert_sides(curve, t):
    left, right = curve.sides(t)
    assert np.asarray(left).tobytes() == np.asarray(curve.survival_left(t)).tobytes()
    assert np.asarray(right).tobytes() == np.asarray(curve.survival(t)).tobytes()
    assert type(left) is type(curve.survival_left(t)) and type(right) is type(curve.survival(t))


def test_km_sides_are_both_limits_from_one_search():
    curve = km_fit([2.0, 2.0, 3.0, 5.0, 5.0, 8.0, 9.0], [True, False, True, True, True, True, False])
    jumps = curve.jump_times()
    np.testing.assert_array_equal(jumps, [2.0, 3.0, 5.0, 8.0])
    between = 0.5 * (jumps[1:] + jumps[:-1])
    for t in (jumps, between, [0.0, 1.0, 1.999], [8.0000001, 9.0, 100.0],
              np.concatenate([jumps[::-1], between, [0.5, 50.0]])):
        _assert_sides(curve, np.asarray(t))
    for t in (0.0, 1.0, 2.0, 2.5, 5.0, 8.0, 9.0, 1e9):
        _assert_sides(curve, t)
    # at the jumps the right values are the curve's rows, the left values the rows before
    left, right = curve.sides(jumps)
    np.testing.assert_array_equal(right, curve.survival_after)
    np.testing.assert_array_equal(left, np.concatenate(([1.0], curve.survival_after[:-1])))
    empty = km_fit([1.0, 2.0], [False, False])
    assert empty.jump_times().size == 0
    for t in (np.array([0.0, 1.0, 2.0, 3.0]), 1.0, np.array([])):
        _assert_sides(empty, t)
    with pytest.raises(DomainError):
        curve.sides([-1.0])
    # sides() reads a jump's right value one row on, so a time may not repeat
    for times in ([1.0, 1.0], [2.0, 1.0]):
        with pytest.raises(DomainError, match="strictly increasing"):
            estim.KMCurve(times, [0.5, 0.25])


# ------------------------------------------------------------------- km_median

def test_km_median_examples():
    assert km_median(km_fit([1.0, 2.0, 3.0, 4.0], [True] * 4)) == 2.0
    assert km_median(km_fit([1.0, 2.0, 3.0], [False] * 3)) is None


@given(
    st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=8)
)
# curves that fall to exactly 1/2 and stay there: at a death, after a tie
@example([(1, True), (2, False)])
@example([(1, True), (1, True), (2, False), (2, False)])
@settings(max_examples=200, deadline=None)
def test_km_median_is_the_product_limit_quantile(records):
    times, events = zip(*records)
    curve = km_fit(times, events)
    # the smallest death time where the estimate is at most 1/2
    reached = [u for u in sorted({t for t, e in records if e}) if km_by_hand(times, events, u) <= 0.5]
    try:
        q = quantile(curve, 0.5)
    except NotReachedError:
        q = None
    assert km_median(curve) == q == (float(reached[0]) if reached else None)


def test_km_median_of_scenario_sample(section3):
    rng = derive_rng(99, "median-check")
    mix = SubgroupTable(Measure.TR, section3.subgroups).arm_mixture(True)
    draws = []
    for prevalence, comp in mix.components:
        k = int(round(500 * prevalence))
        draws.append(sample_times(comp, rng, k))
    t = np.concatenate(draws)
    med = km_median(km_fit(t, np.ones(t.size, bool)))
    assert med == pytest.approx(8.554587319734248, rel=1e-12)  # frozen draw
    assert abs(med - 8.0) < 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 10, 499, 500, 501])
def test_complete_median_rank_matches_km_median(n):
    t = derive_rng(7, "median-rank", n).permutation(np.arange(1.0, n + 1.0))
    rank = estim._complete_median_rank(n)
    assert km_median(km_fit(t, np.ones(n, bool))) == rank + 1.0


# a block's values: ties, both zeros, negatives, infinities and NaN among
# arbitrary floats
_BLOCK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0, 5e-324, math.inf, -math.inf, math.nan, -math.nan]),
    st.floats(),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_complete_tables_match_the_argsort_route(data):
    rows, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    n_rx = data.draw(st.integers(0, m))
    times = np.array(data.draw(st.lists(_BLOCK_VALUES, min_size=rows * m, max_size=rows * m)))
    times = times.reshape(rows, m)
    kept = times.copy()
    tb, irregular = estim._complete_tables(times, n_rx)
    np.testing.assert_array_equal(times.view(np.uint64), kept.view(np.uint64))
    want_t, want_x, want_at_risk_rx, want_irregular = complete_tables_by_argsort(times, n_rx)
    np.testing.assert_array_equal(irregular, want_irregular)
    regular = ~irregular
    for got, want in ((tb.times, want_t), (tb.events_rx, want_x), (tb.at_risk_rx, want_at_risk_rx)):
        np.testing.assert_array_equal(got[regular].view(np.uint64), want[regular].view(np.uint64))
    np.testing.assert_array_equal(tb.at_risk, np.arange(m, 0, -1))
    np.testing.assert_array_equal(tb.events, np.ones(m))


# ------------------------------------------------------------------ weibull_mle

def test_weibull_mle_consistency():
    rng = derive_rng(11, "mle")
    t = sample_times(WeibullDist(1.2, 10.0), rng, 10_000)
    fit = weibull_mle(t, np.ones(t.size, bool))
    assert isinstance(fit, WeibullDist)
    assert abs(fit.shape - 1.2) < 0.05
    assert abs(fit.scale - 10.0) < 0.3


def test_weibull_mle_degenerate_sample():
    with pytest.raises(NumericalError):
        weibull_mle([3.0, 3.0], [True, True])
    with pytest.raises(DomainError):
        weibull_mle([3.0, 4.0], [True, False])  # a single event is not enough


def _loglik_gradient(times, events, shape, scale):
    """Analytic gradient of the censored log-likelihood in (log k, log lam)."""
    t = np.asarray(times, float)
    e = np.asarray(events, bool)
    z = (t / scale) ** shape
    logr = np.log(t / scale)
    g_logk = float(e.sum() + shape * logr[e].sum() - shape * (z * logr).sum())
    g_loglam = float(shape * (z.sum() - e.sum()))
    return np.array([g_logk, g_loglam])


def test_weibull_mle_gradient_vanishes_at_optimum():
    for i, censor in enumerate([0.0, 0.25]):
        rng = derive_rng(23, "grad", i)
        t = sample_times(WeibullDist(0.9, 6.0), rng, 400)
        e = rng.random(400) >= censor
        if censor:
            t = np.where(e, t, t * rng.random(400))  # censor earlier than death
        e = np.asarray(e, bool)
        fit = weibull_mle(t, e)
        g = _loglik_gradient(t, e, fit.shape, fit.scale)
        assert np.linalg.norm(g) <= 1e-8


def test_analytic_gradient_matches_finite_differences():
    rng = derive_rng(24, "fd")
    t = sample_times(WeibullDist(1.4, 12.0), rng, 60)
    e = rng.random(60) < 0.8
    h = 1e-6
    for _ in range(20):
        k = float(rng.uniform(0.5, 3.0))
        lam = float(rng.uniform(2.0, 30.0))
        g = _loglik_gradient(t, e, k, lam)
        fd = np.array(
            [
                (
                    weibull_loglik(t, e, k * math.exp(h), lam)
                    - weibull_loglik(t, e, k * math.exp(-h), lam)
                )
                / (2 * h),
                (
                    weibull_loglik(t, e, k, lam * math.exp(h))
                    - weibull_loglik(t, e, k, lam * math.exp(-h))
                )
                / (2 * h),
            ]
        )
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


def _weibull_case(rng, hard):
    """A censored sample: a regular one of 15-300 subjects with a true shape
    of 0.1-4, or a hard one of 3-40 subjects, shape 0.03-20 and some times
    rounded."""
    n = int(rng.integers(3, 40) if hard else rng.integers(15, 300))
    lo, hi = (0.03, 20.0) if hard else (0.1, 4.0)
    shape = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    t = rng.weibull(shape, n) * (10.0 ** rng.uniform(-3, 3) if hard else 10.0)
    c = rng.exponential(float(np.median(t)) * rng.uniform(0.3, 5.0), n)
    time, event = np.minimum(t, c), t <= c
    if hard and rng.random() < 0.3:
        time = np.round(time, int(rng.integers(0, 3))) + 0.01
    return time, event


def test_weibull_mle_finds_the_profile_root():
    # every sample with two distinct death times is fitted, including those
    # on which a two-parameter Newton solve started from the product-limit
    # plot stalled, at the root brentq finds
    rng = np.random.default_rng(20261019)
    fits = low_shape = 0
    for hard in [False] * 60 + [True] * 120:
        time, event = _weibull_case(rng, hard)
        if np.unique(time[event]).size < 2:
            continue  # rejected before any fit
        fit = weibull_mle(time, event)
        shape, scale = weibull_profile_root(time, event)
        assert fit.shape == pytest.approx(shape, rel=1e-12)
        assert fit.scale == pytest.approx(scale, rel=1e-12)
        fits += 1
        low_shape += fit.shape < 0.3
    assert fits == 163 and low_shape >= 5


def test_weibull_mle_scale_past_the_largest_double_is_a_numerical_error():
    # two deaths near the largest double and twenty censorings at it
    time = np.array([1e307, 2e307] + [1.79e308] * 20)
    with pytest.raises(NumericalError, match="scale exceeds the largest double") as failed:
        weibull_mle(time, np.arange(time.size) < 2)
    diagnostics = failed.value.diagnostics
    assert sorted(diagnostics) == ["log_scale", "shape"]
    assert 0.0 < diagnostics["shape"] and diagnostics["log_scale"] > math.log(np.finfo(float).max)


# ---------------------------------------------------------------- empirical_llp

def test_empirical_llp_examples():
    assert empirical_llp([2.0, 4.0], [1.0, 3.0]) == 0.75
    assert empirical_llp([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5


def test_empirical_llp_matches_pair_loop():
    rng = derive_rng(41, "pairs")
    rx = np.round(sample_times(WeibullDist(1.0, 5.0), rng, 23), 1) + 0.1
    c = np.round(sample_times(WeibullDist(1.0, 7.0), rng, 31), 1) + 0.1
    assert empirical_llp(rx, c) == pairwise_win_fraction(rx, c)


def test_empirical_llp_lehmann_theta_two():
    rng = derive_rng(77, "llp-consistency")
    c = sample_times(WeibullDist(1.0, 1.0), rng, 20_000)
    rx = sample_times(WeibullDist(1.0, 0.5), rng, 20_000)  # survival squared
    llp = empirical_llp(rx, c)
    assert llp == pytest.approx(0.333514795, rel=1e-9)  # frozen draw
    assert abs(llp - 1.0 / 3.0) < 0.01


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_empirical_llp_refuses_times_that_are_not_finite_and_positive(bad):
    # a NaN Rx time once outlived every control: 0.8333 for the first call
    with pytest.raises(DomainError, match="observation times must be finite and > 0"):
        empirical_llp([bad, 2.0, 3.0], [1.0, 2.5])
    with pytest.raises(DomainError, match="observation times must be finite and > 0"):
        empirical_llp([2.0, 3.0], [1.0, bad])


def test_empirical_llp_rejects_censoring():
    with pytest.raises(UnsupportedCensoring):
        empirical_llp([1.0, 2.0], [3.0], rx_events=[True, False])
    with pytest.raises(UnsupportedCensoring):
        empirical_llp([1.0], [2.0, 3.0], c_events=[False, True])


def test_empirical_llp_antisymmetry_frozen_cases():
    for i in range(200):
        rng = derive_rng(9, "anti", i)
        x = rng.random(int(rng.integers(1, 30))) + 0.1
        y = rng.random(int(rng.integers(1, 30))) + 0.2
        assert empirical_llp(x, y) + empirical_llp(y, x) == 1.0


@given(
    x=st.lists(st.integers(0, 1000), min_size=1, max_size=25),
    y=st.lists(st.integers(0, 1000), min_size=1, max_size=25),
)
@settings(deadline=None)
def test_empirical_llp_antisymmetry_property(x, y):
    xs = np.asarray(x, float) + 0.5
    ys = np.asarray(y, float) + 0.5
    assert abs(empirical_llp(xs, ys) + empirical_llp(ys, xs) - 1.0) <= 1e-12


# --------------------------------------------------------------- hr <-> llp

def test_hr_llp_known_values():
    assert llp_from_hr(2.0 / 3.0) == pytest.approx(0.6, rel=1e-15)
    assert hr_from_llp(0.5) == 1.0
    assert hr_from_llp(llp_from_hr(0.767)) == pytest.approx(0.767, abs=1e-12)


def test_hr_llp_boundaries_rejected():
    for llp in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            hr_from_llp(llp)
    for hr in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            llp_from_hr(hr)


@given(hr=st.floats(1e-6, 1e6))
@settings(deadline=None)
def test_hr_llp_round_trip(hr):
    assert hr_from_llp(llp_from_hr(hr)) == pytest.approx(hr, rel=1e-12)


@given(llp=st.floats(1e-9, 1.0 - 1e-9))
@settings(deadline=None)
def test_llp_hr_round_trip(llp):
    assert llp_from_hr(hr_from_llp(llp)) == pytest.approx(llp, rel=1e-12)


# ---------------------------------------------------------------- tr <-> hr

def test_tr_hr_known_values():
    assert tr_to_hr(1.0, 0.7) == 1.0
    assert tr_to_hr(2.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert tr_to_hr(2.0, 1.2) == pytest.approx(2.0 ** -1.2, rel=1e-15)


def test_tr_to_hr_matches_pointwise_hazard_ratio():
    # doubling the median at common shape scales hazards by 2^(-shape)
    fast = weibull_from_median(1.2, 6.0)
    slow = weibull_from_median(1.2, 12.0)
    f_fast = weibull_density(fast.shape, fast.scale)
    f_slow = weibull_density(slow.shape, slow.scale)
    for t in np.linspace(0.5, 30.0, 40):
        ratio = (f_slow(t) / slow.survival(t)) / (f_fast(t) / fast.survival(t))
        assert ratio == pytest.approx(tr_to_hr(2.0, 1.2), rel=1e-12)


@given(hr=st.floats(1e-4, 1e4), shape=st.floats(0.3, 5.0))
@settings(deadline=None)
def test_tr_hr_round_trip(hr, shape):
    assert tr_to_hr(hr_to_tr(hr, shape), shape) == pytest.approx(hr, rel=1e-12)


def test_tr_hr_rejects_nonpositive():
    with pytest.raises(DomainError):
        tr_to_hr(0.0, 1.0)
    with pytest.raises(DomainError):
        hr_to_tr(1.0, -1.0)


# ------------------------------------------------------------ cox_fit_two_arm

def _two_arm_sample(seed, n_rx=40, n_c=35, scale_rx=9.0, scale_c=7.0):
    rng = derive_rng(seed, "cox-sample")
    rx = sample_times(WeibullDist(1.1, scale_rx), rng, n_rx)
    c = sample_times(WeibullDist(1.0, scale_c), rng, n_c)
    return SurvivalSample.from_arms(rx, c)


def test_cox_swap_negates_log_hr():
    s = _two_arm_sample(3)
    swapped = SurvivalSample(s.time, s.event, ~s.is_rx)
    b1, se1 = cox_fit_two_arm(s)
    b2, se2 = cox_fit_two_arm(swapped)
    assert abs(b1 + b2) <= 1e-12
    assert se1 == pytest.approx(se2, abs=1e-12)


def test_cox_consistency_under_proportional_hazards():
    rng = derive_rng(21, "cox")
    c = sample_times(WeibullDist(1.0, 10.0), rng, 2000)
    rx = sample_times(WeibullDist(1.0, 20.0), rng, 2000)  # exponent 1/2
    b, se = cox_fit_two_arm(SurvivalSample.from_arms(rx, c))
    assert abs(b - math.log(0.5)) < 0.1
    assert 0.0 < se < 0.1


@pytest.mark.parametrize(
    "seed, censor_mean, factor, level, n",
    [(1031, 80.0, "sex", "male", 3699), (2011, None, "egfr", "wild", 5381)],
)
def test_cox_converges_when_rounding_keeps_the_score_off_zero(seed, censor_mean, factor, level, n):
    # On these levels of the packaged cohort the score at the optimum rounds
    # to about 2e-10, so no bound on |score| near 1e-10 can be met.
    sample = generate_prognostic_sample(dataclasses.replace(load_oak_analog_spec(), seed=seed))
    if censor_mean is not None:
        c = derive_rng(99, "censor", seed).exponential(censor_mean, sample.n)
        sample = SurvivalSample(
            np.minimum(sample.time, c), sample.time <= c, sample.is_rx, sample.strata
        )
    sub = dict(sample.levels(factor))[level]
    assert sub.n == n
    log_hr, _ = cox_fit_two_arm(sub)
    root = brentq(breslow_score(sub.time, sub.event, sub.is_rx), -2.0, 2.0, xtol=1e-14)
    assert log_hr == pytest.approx(root, abs=1e-9)


def test_cox_on_tied_censored_data_solves_the_breslow_score():
    rng = derive_rng(7, "cox-ties")
    time = np.round(
        np.concatenate([
            sample_times(WeibullDist(1.2, 6.0), rng, 60),
            sample_times(WeibullDist(1.2, 4.0), rng, 50),
        ]),
        1,
    ) + 0.1
    censor = np.round(rng.exponential(8.0, time.size), 1) + 0.1
    sample = SurvivalSample(np.minimum(time, censor), time <= censor, np.arange(time.size) < 60)
    deaths = sample.time[sample.event]
    assert np.unique(deaths).size < deaths.size and not sample.event.all()
    log_hr, se = cox_fit_two_arm(sample)
    score = breslow_score(sample.time, sample.event, sample.is_rx)
    root = brentq(score, -2.0, 2.0, xtol=1e-14)
    assert log_hr == pytest.approx(root, abs=1e-9)
    h = 1e-5
    info = (score(root - h) - score(root + h)) / (2.0 * h)
    assert se == pytest.approx(1.0 / math.sqrt(info), rel=1e-6)


def test_cox_monotone_likelihood_raises():
    # (Rx times, C times, death flags, score limits at -inf and +inf)
    cases = [
        ([10.0, 11.0, 12.0], [1.0, 2.0, 3.0], None, (0.0, -3.0)),  # Rx outlives C
        ([1.0, 2.0, 3.0], [10.0, 11.0, 12.0], None, (3.0, 0.0)),  # C outlives Rx
        ([1.0, 2.0, 3.0], [1.5, 2.5], [False, True, False, False, False], (1.0, 0.0)),  # one death
    ]
    for rx, c, events, (lo, hi) in cases:
        time = np.array(rx + c)
        events = np.ones(time.size, bool) if events is None else events
        s = SurvivalSample(time, events, np.arange(time.size) < len(rx))
        with pytest.raises(NumericalError, match="^monotone partial likelihood") as excinfo:
            cox_fit_two_arm(s)
        assert excinfo.value.diagnostics == {"score_at_minus_inf": lo, "score_at_plus_inf": hi}


@pytest.mark.parametrize(
    "code, message",
    [
        (estim._OVERFLOW, "partial-likelihood score overflow"),
        (estim._FLAT, "partial likelihood has no curvature"),
        (estim._NO_INFO, "no information about the treatment coefficient"),
    ],
)
def test_cox_failure_codes_raise_their_messages(monkeypatch, code, message):
    # these failures need tables no sample can hold; the solve's code and the
    # beta it stopped at must still reach the caller
    failed = (np.array([31.5]), np.array([np.nan]), np.array([code], dtype=np.int8))
    monkeypatch.setattr(estim, "_cox_rows", lambda tb, oe, variance: failed)
    with pytest.raises(NumericalError) as excinfo:
        cox_fit_two_arm(_two_arm_sample(3))
    assert str(excinfo.value) == message
    assert excinfo.value.diagnostics == {"beta": 31.5}


def _random_cox_table(rng):
    """A risk table of one of four kinds: tied times, arms that may separate,
    one or a few Rx subjects against up to 1,000 C subjects, or an Rx arm
    whose numbers at risk are scaled far from the C arm's. Deaths are
    censored at a random rate."""
    kind = int(rng.integers(4))
    n_rx, n_c = (int(k) for k in rng.integers(1, 40, size=2))
    if kind == 2:
        n_rx, n_c = int(rng.integers(1, 4)), int(rng.integers(10, 1000))
    time = np.concatenate([
        rng.weibull(1.3, n_rx) * rng.uniform(0.3, 3.0), rng.weibull(1.3, n_c)
    ])
    is_rx = np.arange(time.size) < n_rx
    if kind == 0:
        time = np.round(2.0 * time) + 1.0
    elif kind == 1:
        time[is_rx] = np.abs(time[is_rx] + rng.choice([-0.5, 0.5]) * time.max()) + 0.01
    tb = SurvivalSample(time, rng.random(time.size) < rng.uniform(0.3, 1.0), is_rx).tables
    return _scale_rx(tb, 10.0 ** rng.uniform(-300.0, 300.0)) if kind == 3 else tb


def _scale_rx(tb, factor):
    """The risk table ``tb`` with its Rx numbers at risk multiplied by ``factor``."""
    weighted = tb.at_risk_rx * factor
    return dataclasses.replace(tb, at_risk_rx=weighted, at_risk=tb.at_risk - tb.at_risk_rx + weighted)


@pytest.mark.parametrize(
    "factor, code, beta",
    [
        # the root lies just past 709, beyond which exp overflows
        (1e-310, estim._OVERFLOW, 709.0),
        # every expected Rx death at the start underflows to zero
        (5e-324, estim._FLAT, 0.0),
    ],
)
def test_cox_rows_stop_where_the_root_is_out_of_reach(factor, code, beta):
    # one Rx subject, dying between C deaths, with its root at 0.896 before
    # the scaling moves it by -log(factor)
    tb = _scale_rx(SurvivalSample.from_arms([2.0], [1.0, 3.0, 4.0]).tables, factor)
    got_beta, _, got_code = estim._cox_rows(tb, *estim._logrank_terms(tb))
    assert (got_beta.tolist(), got_code.tolist()) == ([beta], [code])


def _assert_at_the_root(beta, se, counts):
    """Check a fit against the brentq root of the oracle's score, bracketed
    by the first of 1, 2, 4, ... out to 709 (where exp stays finite) on
    each side at which the score has that side's sign; return the root."""
    score, information = breslow_functions(*counts)
    ends = [min(2.0 ** k, 709.0) for k in range(11)]
    lo = -next(b for b in ends if score(-b) > 0.0)
    hi = next(b for b in ends if score(b) < 0.0)
    root = brentq(score, lo, hi, xtol=1e-14)
    # brentq's own tolerance is the floor of the comparison
    assert beta == pytest.approx(root, rel=1e-12, abs=1e-14)
    assert se == pytest.approx(1.0 / math.sqrt(information(root)), rel=1e-12)
    return root


def test_cox_rows_find_the_breslow_root_on_section3_blocks(section3):
    n_rx = section3.n_rx
    for start in range(0, 256, 8):
        time = np.stack([draw_trial(section3, rep)[0] for rep in range(start, start + 8)])
        tb = estim._complete_tables(time, n_rx)[0]
        beta, se, code = estim._cox_rows(tb, *estim._logrank_terms(tb))
        assert not code.any()
        is_rx = np.arange(time.shape[1]) < n_rx
        for row, b, s in zip(time, beta, se):
            _assert_at_the_root(b, s, breslow_counts(row, np.ones(row.size, bool), is_rx))


def test_cox_rows_keep_the_seed_153_fit_that_once_stalled(section3):
    # replication 3 of master seed 153 stalled under the old absolute-score
    # stop; in a block of five it fits, as on its own sample
    scenario = realize_scenario(dataclasses.replace(section3.config, master_seed=153))
    time = np.stack([draw_trial(scenario, rep)[0] for rep in range(5)])
    tb = estim._complete_tables(time, scenario.n_rx)[0]
    beta, se, code = estim._cox_rows(tb, *estim._logrank_terms(tb))
    is_rx = np.arange(time.shape[1]) < scenario.n_rx
    log_hr, want_se = cox_fit_two_arm(SurvivalSample(time[3], np.ones(time.shape[1], bool), is_rx))
    assert code[3] == 0
    assert beta[3] == pytest.approx(log_hr, rel=1e-12, abs=0)
    assert se[3] == pytest.approx(want_se, rel=1e-12, abs=0)


def test_section3_cox_fits_take_four_passes_and_no_log(section3, monkeypatch):
    # each row starts from its block's log-rank step (O - E)/V, so a block's
    # fit takes three Newton passes, or two, and the final information pass;
    # no pass evaluates the log partial likelihood
    counts = {"_cox_rows": 0, "_exp": 0, "log": 0}
    solving = []
    cox_rows, exp, log = estim._cox_rows, estim._exp, np.log

    def counting_rows(*args):
        counts["_cox_rows"] += 1
        solving.append(True)
        try:
            return cox_rows(*args)
        finally:
            solving.pop()

    def counting_exp(beta):
        counts["_exp"] += 1
        return exp(beta)

    def counting_log(*args, **kwargs):
        counts["log"] += bool(solving)
        return log(*args, **kwargs)

    for module in (estim, sim):
        monkeypatch.setattr(module, "_cox_rows", counting_rows)
    monkeypatch.setattr(estim, "_exp", counting_exp)
    monkeypatch.setattr(np, "log", counting_log)
    run_study(realize_scenario(dataclasses.replace(section3.config, replications=2000)), workers=1)
    assert counts["_cox_rows"] == 2000 // sim._BLOCK
    assert counts["_exp"] <= 4 * counts["_cox_rows"]
    assert counts["log"] == 0


def test_cox_rows_find_the_breslow_root_on_random_tables(monkeypatch):
    # Of the seed's tables, 323 have score limits that do not bracket zero.
    # Every other one fits, 130 of them at roots past |beta| = 30, out to
    # about 690; in 37 of those the Rx numbers at risk are near 1e-300, so
    # squaring the risk set would underflow the information to nothing.
    exps = []
    monkeypatch.setattr(estim, "_exp", lambda beta, _exp=estim._exp: exps.append(1) or _exp(beta))
    rng = np.random.default_rng(20261019)
    limits, far, most_exps = 0, 0, 0
    for _ in range(1200):
        tb = _random_cox_table(rng)
        exps.clear()
        (beta,), (se,), (code,) = estim._cox_rows(tb, *estim._logrank_terms(tb))
        most_exps = max(most_exps, len(exps))
        counts = (tb.events_rx, tb.events - tb.events_rx, tb.at_risk_rx, tb.at_risk - tb.at_risk_rx)
        d1, d0, n1, n0 = (np.asarray(c, dtype=float) for c in counts)
        if not np.sum(d1 - (d1 + d0) * (n0 == 0.0)) > 0.0 > np.sum(d1 - (d1 + d0) * (n1 > 0.0)):
            assert code == estim._LIMITS
            limits += 1
            continue
        assert code == 0
        far += abs(_assert_at_the_root(beta, se, counts)) > 30.0
    assert (limits, far) == (323, 130)
    # the cap that doubles toward an open side reaches a root near 690 in
    # about ten steps; a fixed +-2 cap would need hundreds
    assert most_exps <= 30


def test_cox_requires_both_arms():
    s = SurvivalSample([1.0, 2.0], [True, True], [True, True])
    with pytest.raises(DomainError):
        cox_fit_two_arm(s)
    with pytest.raises(DomainError, match="at least one death"):
        cox_fit_two_arm(SurvivalSample([1.0, 2.0], [False, False], [True, False]))


# -------------------------------------------------------------------- sample_tr

def test_sample_tr_examples():
    same = sample_tr(SurvivalSample.from_arms([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
    assert same == 1.0
    double = sample_tr(SurvivalSample.from_arms([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]))
    assert double == 0.5


def test_sample_tr_on_favorable_subgroup(section3):
    gplus = next(g for g in section3.subgroups if g.label == "g+")
    rng = derive_rng(55, "tr-check")
    rx = sample_times(gplus.rx, rng, 4000)
    c = sample_times(gplus.c, rng, 4000)
    tr = sample_tr(SurvivalSample.from_arms(rx, c))
    assert tr == pytest.approx(2.0, abs=0.15)


def test_sample_tr_reports_unreached_arm():
    t = [1.0, 2.0, 3.0]
    heavy = [True, False, False]
    with pytest.raises(NotReachedError) as err:
        sample_tr(SurvivalSample.from_arms(t, t, rx_events=heavy))
    assert err.value.arm == ARM_RX
    with pytest.raises(NotReachedError) as err:
        sample_tr(SurvivalSample.from_arms(t, t, c_events=heavy))
    assert err.value.arm == ARM_C


# ------------------------------------------------------------- SurvivalSample

def test_sample_validation():
    with pytest.raises(DomainError):
        SurvivalSample([], [], [])
    with pytest.raises(DomainError):
        SurvivalSample([1.0, -2.0], [True, True], [True, False])
    with pytest.raises(DomainError):
        SurvivalSample([1.0, 2.0], [True], [True, False])
    with pytest.raises(DomainError):
        SurvivalSample([1.0, 2.0], [True, True], [True, False], {"sex": ["F"]})


def test_sample_subset_and_arnames():
    s = SurvivalSample(
        [1.0, 2.0, 3.0, 4.0],
        [True, True, False, True],
        [True, False, True, False],
        {"site": np.asarray(["a", "a", "b", "b"])},
    )
    rx_t, rx_e = s.arm(True)
    np.testing.assert_array_equal(rx_t, [1.0, 3.0])
    np.testing.assert_array_equal(rx_e, [True, False])
    levels = s.levels("site")
    assert s.levels("site") is levels  # built once
    assert [label for label, _ in levels] == ["a", "b"]
    sub = levels[1][1]
    assert sub.n == 2 and sub.strata == {}
    np.testing.assert_array_equal(sub.time, [3.0, 4.0])
    with pytest.raises(DomainError):
        s.levels("nope")
    assert ARM_RX == "Rx" and ARM_C == "C"


@st.composite
def _stratified_samples(draw):
    n = draw(st.integers(1, 60))
    # few distinct times tie subjects within a level, across levels and
    # across arms, censored ties among them
    time = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    is_rx = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    site = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    arm_site = [s + ("+" if x else "-") for s, x in zip(site, is_rx)]
    return SurvivalSample(np.asarray(time, float) / 2.0, event, is_rx,
                          {"site": np.asarray(site), "arm_site": np.asarray(arm_site)})


def _assert_tables_equal(got, want):
    for name in ("times", "events", "events_rx", "at_risk", "at_risk_rx"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _own_table(sample):
    """The table of the sample's own stable sort of its times."""
    o = np.argsort(sample.time, kind="stable")
    return estim._risk_tables(sample.time[o], sample.event[o], sample.is_rx[o])


def _assert_orders_and_tables_read_off_the_one_sort(sample):
    assert np.array_equal(sample.order, np.argsort(sample.time, kind="stable"))
    _assert_tables_equal(sample.tables, _own_table(sample))
    for factor in sample.strata:
        for label, sub in sample.levels(factor):
            assert np.array_equal(sub.order, np.argsort(sub.time, kind="stable"))
            _assert_tables_equal(sub.tables, _own_table(sub))
            np.testing.assert_array_equal(sub.time, sample.time[sample.strata[factor] == label])


@given(_stratified_samples())
@settings(max_examples=100, deadline=None)
def test_level_orders_and_tables_equal_their_own_sorts(sample):
    _assert_orders_and_tables_read_off_the_one_sort(sample)


def test_level_orders_and_tables_on_a_tied_censored_cohort():
    full = generate_prognostic_sample(dataclasses.replace(load_oak_analog_spec(), n=2000))
    c = derive_rng(5, "level-ties").exponential(60.0, full.n)
    time = np.round(np.minimum(full.time, c)) + 1.0  # about 100 distinct times
    sample = SurvivalSample(time, full.time <= c, full.is_rx, full.strata)
    assert np.unique(time).size < 200 and not sample.event.all()
    _assert_orders_and_tables_read_off_the_one_sort(sample)


def test_km_is_built_once_per_arm():
    s = SurvivalSample([1.0, 2.0, 3.0, 4.0], [True, True, False, True], [True, False, True, False])
    assert s.km(True) is s.km(np.bool_(True)) and s.km(False) is s.km(0)
    assert s.km(True) is not s.km(False)
    with pytest.raises(DomainError, match="the C arm is empty"):
        SurvivalSample([1.0, 2.0], [True, True], [True, True]).km(False)
