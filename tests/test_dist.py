"""Parametric curves, transforms, mixtures, quantiles, and the scale solver."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from survquack import (
    LehmannCurve,
    MixtureCurve,
    SurvivalCurve,
    WeibullDist,
    derive_rng,
    km_fit,
    lehmann_transform,
    mixture_llp,
    quantile,
    sample_times,
    solve_complement_scale,
    weibull_from_median,
)
from survquack.errors import DomainError, InfeasibleScenario, NotReachedError

from oracles import bisect_complement_scale

LN2 = math.log(2.0)

shapes = st.floats(0.3, 5.0)
scales = st.floats(0.1, 100.0)
ratios = st.floats(0.05, 20.0)


# -------------------------------------------------------- WeibullDist.survival

def test_weibull_survival_known_points():
    w = WeibullDist(1.0, 1.0)
    assert w.survival(0.0) == 1.0
    assert w.survival(LN2) == pytest.approx(0.5, rel=1e-15)


def test_weibull_survival_shifted_median_curve():
    # weibull_from_median(1.2, 12) evaluated two thirds of the way to its median
    w = weibull_from_median(1.2, 12.0)
    s = w.survival(8.0)
    assert s == pytest.approx(0.6530, abs=5e-5)
    # direct-formula oracle, frozen
    assert s == pytest.approx(math.exp(-((8.0 / w.scale) ** 1.2)), rel=0, abs=0)
    assert s == pytest.approx(0.6530482042988376, rel=1e-15)


def test_weibull_survival_rejects_negative_time():
    with pytest.raises(DomainError):
        WeibullDist(1.0, 1.0).survival(-0.5)


def test_weibull_rejects_bad_parameters():
    for shape, scale in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(DomainError):
            WeibullDist(shape, scale)


# ------------------------------------------------------------------- quantile

def test_quantile_exponential_median():
    assert quantile(WeibullDist(1.0, 1.0), 0.5) == pytest.approx(LN2, abs=1e-10)


def test_quantile_median_round_trip():
    w = weibull_from_median(1.2, 12.0)
    assert quantile(w, 0.5) == pytest.approx(12.0, abs=1e-9)


def test_quantile_of_scenario_mixture(section3):
    rx_mix = section3.arm_mixture(True)
    assert quantile(rx_mix, 0.5) == pytest.approx(8.0, abs=1e-6)


def test_quantile_rejects_bad_level():
    w = WeibullDist(1.0, 1.0)
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            quantile(w, p)


def test_quantile_not_reached_on_plateaued_step_curve():
    # largest observation censored: the estimate plateaus at 2/3 > 0.5
    km = km_fit([1.0, 2.0, 3.0], [True, False, False])
    with pytest.raises(NotReachedError):
        quantile(km, 0.5)


def test_quantile_not_reached_when_the_summed_curve_ends_above_the_level():
    # math.fsum would round the weighted finals' exact sum to
    # 0.46499999999999997, below the level; summed in survival's order they
    # make 0.4650000000000001, the survival after the last jump, so the
    # level is never reached
    steps = [km_fit([t, 5.0], [True, False]) for t in (1.0, 2.0, 3.0, 4.0)]
    finals = (0.51, 0.61, 0.14, 0.6)
    mix = MixtureCurve(tuple(
        (0.25, dataclasses.replace(km, survival_after=np.array([f]))) for km, f in zip(steps, finals)
    ))
    assert mix.final_survival() == mix.survival(4.0) == mix.survival(9.0) > 0.465
    with pytest.raises(NotReachedError):
        quantile(mix, 0.465)


class _NoSurvival(SurvivalCurve):
    """A curve that defines nothing of its own."""


class _ExponentialByFormula(SurvivalCurve):
    """exp(-t) with no inverse cumulative hazard and no jumps."""

    def survival(self, t):
        return np.exp(-np.asarray(t, dtype=float))


class _StepsAboveTheirLimit(SurvivalCurve):
    """Jumps at 1 and 2 to 0.9 and 0.8, yet a limit of 0: a step curve whose
    final value disagrees with its values at the jumps."""

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, 1.0, np.where(t < 2.0, 0.9, 0.8))

    def jump_times(self):
        return np.array([1.0, 2.0])


def test_a_curve_without_survival_raises_not_implemented():
    with pytest.raises(NotImplementedError):
        _NoSurvival().sides(1.0)


def test_mixture_llp_against_a_control_with_neither_jumps_nor_an_inverse_raises():
    # mixture_llp needs each control component's jumps or its inverse cumulative hazard
    with pytest.raises(DomainError, match="_ExponentialByFormula exposes no inverse cumulative hazard"):
        mixture_llp(WeibullDist(1.0, 1.0), _ExponentialByFormula())


def test_quantile_not_reached_when_no_jump_falls_to_the_level():
    # the limit passes the "never falls to p" check, the jump scan finds no value at or below p
    assert _StepsAboveTheirLimit().final_survival() == 0.0 < 0.5
    with pytest.raises(NotReachedError, match="never falls to survival 0.5"):
        quantile(_StepsAboveTheirLimit(), 0.5)


def test_quantile_of_step_mixture_is_its_first_jump_through_p():
    # 0.5 * km([1, 2, 3, 4]) + 0.5 * km([2.6, 5]) first falls to 1/2 at 2.6
    mix = MixtureCurve(((0.5, km_fit([1.0, 2.0, 3.0, 4.0], [True] * 4)), (0.5, km_fit([2.6, 5.0], [True] * 2))))
    assert quantile(mix, 0.5) == 2.6
    assert quantile(mix, 0.8) == 2.0


def _assert_first_crossing(curve, p, q, tol=1e-10):
    assert curve.survival(q) <= p < curve.survival(max(q - tol, 0.0))


_WEIBULL_MIXTURES = (
    ((0.2, WeibullDist(0.4, 3.0)), (0.5, WeibullDist(1.0, 10.0)), (0.3, WeibullDist(3.0, 40.0))),
    ((0.5, WeibullDist(3.0, 10.0)), (0.5, WeibullDist(4.0, 12.0))),  # concave near p = 0.9
)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("components", _WEIBULL_MIXTURES)
def test_quantile_of_weibull_mixture_matches_root_finder(components, p, monkeypatch):
    mix = MixtureCurve(components)
    calls = []
    survival = MixtureCurve.survival
    monkeypatch.setattr(MixtureCurve, "survival", lambda self, t: calls.append(t) or survival(self, t))
    q = quantile(mix, p)
    # false position that keeps both bracket ends moving needs at most 11 here
    assert len(calls) <= 15
    monkeypatch.undo()
    root = brentq(lambda t: mix.survival(t) - p, 1e-9, 1e3, xtol=1e-14)
    assert q == pytest.approx(root, abs=1e-10)
    _assert_first_crossing(mix, p, q)


def test_quantile_of_mixture_with_a_plateaued_step_component():
    # after t = 1 the step half stays at 2/3, so the Weibull half must reach 1/3
    mix = MixtureCurve(((0.5, km_fit([1.0, 2.0, 3.0], [True, False, False])), (0.5, WeibullDist(1.0, 10.0))))
    q = quantile(mix, 0.5)
    assert q == pytest.approx(10.0 * math.log(3.0), abs=1e-10)
    _assert_first_crossing(mix, 0.5, q)


def test_quantile_of_power_of_a_mixture():
    mix = MixtureCurve(((0.5, WeibullDist(1.0, 10.0)), (0.5, WeibullDist(2.0, 20.0))))
    powered = LehmannCurve(mix, 2.0)
    _assert_first_crossing(powered, 0.5, quantile(powered, 0.5))


@given(shape=shapes, scale=scales, frac=st.floats(0.05, 0.95))
@settings(deadline=None)
def test_quantile_round_trip_on_weibull(shape, scale, frac):
    w = WeibullDist(shape, scale)
    t = quantile(w, 0.5) * (0.2 + 2.0 * frac)
    p = w.survival(t)
    if not (1e-9 < p < 1.0 - 1e-12):
        return
    assert quantile(w, p) == pytest.approx(t, abs=1e-8)


# --------------------------------------------------------- weibull_from_median

def test_weibull_from_median_exponential():
    assert weibull_from_median(1.0, LN2).scale == pytest.approx(1.0, rel=1e-15)


def test_weibull_from_median_hits_its_median():
    assert weibull_from_median(1.2, 12.0).survival(12.0) == pytest.approx(0.5, rel=1e-14)
    assert weibull_from_median(1.05, 6.0).survival(6.0) == pytest.approx(0.5, rel=1e-14)


def test_weibull_from_median_rejects_nonpositive():
    with pytest.raises(DomainError):
        weibull_from_median(0.0, 12.0)
    with pytest.raises(DomainError):
        weibull_from_median(1.2, -3.0)


@given(shape=shapes, median=st.floats(0.1, 200.0))
@settings(deadline=None)
def test_weibull_from_median_property(shape, median):
    w = weibull_from_median(shape, median)
    assert w.survival(median) == pytest.approx(0.5, rel=1e-12)


# ------------------------------------------------------- solve_complement_scale

def test_solver_matches_bisection_oracle():
    # complementary shape 1.05 against a favorable shape-1.2 curve, both
    # arms of the equal-median construction
    plus_rx = weibull_from_median(1.2, 12.0)
    plus_c = weibull_from_median(1.2, 6.0)
    lam_rx = solve_complement_scale(1.05, 8.0, 0.5, plus_rx)
    lam_c = solve_complement_scale(1.05, 8.0, 0.5, plus_c)
    assert lam_rx == pytest.approx(7.58, abs=5e-3)
    assert lam_c == pytest.approx(16.38, abs=5e-3)
    oracle_rx = bisect_complement_scale(1.05, 8.0, 0.5, plus_rx.survival(8.0))
    oracle_c = bisect_complement_scale(1.05, 8.0, 0.5, plus_c.survival(8.0))
    assert lam_rx == pytest.approx(oracle_rx, abs=1e-9)
    assert lam_c == pytest.approx(oracle_c, abs=1e-9)
    # frozen closed-form values
    assert lam_rx == pytest.approx(7.577880500069559, rel=1e-15)
    assert lam_c == pytest.approx(16.38218301751561, rel=1e-15)


def test_solver_result_pins_the_mixture_median():
    plus = weibull_from_median(1.2, 12.0)
    lam = solve_complement_scale(1.05, 8.0, 0.5, plus)
    mix = MixtureCurve(((0.5, plus), (0.5, WeibullDist(1.05, lam))))
    assert mix.survival(8.0) == pytest.approx(0.5, abs=1e-10)
    assert quantile(mix, 0.5) == pytest.approx(8.0, abs=1e-6)


def test_solver_symmetric_case():
    # when the pinned half already sits at 1/2, the complement must too
    plus = weibull_from_median(1.7, 8.0)
    lam = solve_complement_scale(2.3, 8.0, 0.5, plus)
    assert WeibullDist(2.3, lam).survival(8.0) == pytest.approx(0.5, rel=1e-12)
    assert lam == pytest.approx(weibull_from_median(2.3, 8.0).scale, rel=1e-12)


def test_solver_infeasible_targets():
    # required complement survival < 0
    with pytest.raises(InfeasibleScenario):
        solve_complement_scale(1.0, 8.0, 0.8, weibull_from_median(1.0, 16.0))
    # required complement survival > 1
    with pytest.raises(InfeasibleScenario):
        solve_complement_scale(1.0, 8.0, 0.8, weibull_from_median(1.0, 0.5))


def test_solver_rejects_degenerate_prevalence():
    with pytest.raises(DomainError):
        solve_complement_scale(1.0, 8.0, 1.0, weibull_from_median(1.0, 12.0))


# ------------------------------------------------------------ lehmann_transform

def test_lehmann_identity_returns_reference():
    w = WeibullDist(1.2, 10.0)
    assert lehmann_transform(w, 1.0) is w


def test_lehmann_squares_and_roots_survival():
    w = WeibullDist(1.0, 1.0)
    t0 = LN2  # S(t0) = 0.5
    doubled = lehmann_transform(w, 2.0)
    assert doubled.survival(t0) == pytest.approx(0.25, rel=1e-12)
    t1 = 2.0 * LN2  # S(t1) = 0.25
    halved = lehmann_transform(w, 0.5)
    assert halved.survival(t1) == pytest.approx(0.5, rel=1e-12)


def test_lehmann_rejects_nonpositive_exponent():
    with pytest.raises(DomainError):
        lehmann_transform(WeibullDist(1.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        LehmannCurve(WeibullDist(1.0, 1.0), -2.0)


def test_lehmann_rejects_a_reference_that_is_not_a_curve():
    with pytest.raises(DomainError, match="reference must be a SurvivalCurve"):
        LehmannCurve(lambda t: 0.5, 2.0)


@given(shape=shapes, scale=scales, hr=ratios, t=st.floats(0.0, 300.0))
@settings(deadline=None)
def test_lehmann_round_trip(shape, scale, hr, t):
    w = WeibullDist(shape, scale)
    back = LehmannCurve(LehmannCurve(w, hr), 1.0 / hr)
    assert abs(back.survival(t) - w.survival(t)) <= 1e-12


def test_lehmann_of_weibull_is_rescaled_weibull():
    # raising a Weibull law to theta only changes its scale
    w = WeibullDist(1.3, 9.0)
    theta = 2.5
    rescaled = WeibullDist(1.3, 9.0 * theta ** (-1.0 / 1.3))
    for t in np.linspace(0.0, 40.0, 17):
        assert LehmannCurve(w, theta).survival(t) == pytest.approx(
            rescaled.survival(t), abs=1e-14
        )


# ----------------------------------------------------------------- sample_times

def test_sample_times_empty_and_negative():
    rng = derive_rng(1, "empty")
    assert sample_times(WeibullDist(1.0, 1.0), rng, 0).size == 0
    with pytest.raises(DomainError):
        sample_times(WeibullDist(1.0, 1.0), rng, -1)


def test_sample_times_deterministic():
    a = sample_times(WeibullDist(1.2, 7.0), derive_rng(8, "det"), 5)
    b = sample_times(WeibullDist(1.2, 7.0), derive_rng(8, "det"), 5)
    np.testing.assert_array_equal(a, b)


def test_sample_times_one_uniform_per_subject():
    # drawing n then m from one stream equals drawing n+m in one call
    both = sample_times(WeibullDist(1.0, 3.0), derive_rng(8, "split"), 10)
    rng = derive_rng(8, "split")
    first = sample_times(WeibullDist(1.0, 3.0), rng, 6)
    second = sample_times(WeibullDist(1.0, 3.0), rng, 4)
    np.testing.assert_array_equal(both, np.concatenate([first, second]))


def test_sample_times_median_converges():
    t = sample_times(WeibullDist(1.0, 1.0), derive_rng(31, "lln"), 1_000_000)
    assert np.median(t) == pytest.approx(LN2, abs=0.01)


# ------------------------------------------------------------------- mixtures

def test_mixture_validates_components():
    w = WeibullDist(1.0, 1.0)
    with pytest.raises(DomainError):
        MixtureCurve(())
    with pytest.raises(DomainError):
        MixtureCurve(((0.5, w), (0.6, w)))
    with pytest.raises(DomainError):
        MixtureCurve(((0.0, w), (1.0, w)))
    with pytest.raises(DomainError):
        MixtureCurve(((1.0, "not a curve"),))


@given(
    data=st.lists(st.tuples(st.floats(0.05, 1.0), shapes, scales), min_size=1, max_size=4),
    t=st.floats(0.0, 200.0),
)
@settings(deadline=None)
def test_mixture_equals_hand_weighted_sum(data, t):
    weights = np.array([w for w, _, _ in data])
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    curves = [WeibullDist(k, lam) for _, k, lam in data]
    mix = MixtureCurve(tuple(zip(weights.tolist(), curves)))
    acc = None
    for w, c in zip(weights.tolist(), curves):
        term = w * float(c.survival(t))
        acc = term if acc is None else acc + term
    assert mix.survival(t) == acc


@given(
    shape=shapes,
    scale=scales,
    hr=ratios,
    pair=st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0)),
)
@settings(deadline=None)
def test_monotonicity(shape, scale, hr, pair):
    t1, t2 = sorted(pair)
    w = WeibullDist(shape, scale)
    curves = [w, LehmannCurve(w, hr), MixtureCurve(((0.4, w), (0.6, LehmannCurve(w, hr))))]
    for curve in curves:
        assert curve.survival(t1) >= curve.survival(t2)
        assert curve.survival(0.0) == 1.0


def test_scenario_medians_pinned(section3):
    for rx in (True, False):
        assert section3.arm_median(rx) == pytest.approx(8.0, abs=1e-6)
