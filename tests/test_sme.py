"""Naive pooled ratios versus ingredient-mixing aggregation, plus the audit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats as sps

from survquack import (
    ARM_C,
    ARM_RX,
    Measure,
    MixtureCurve,
    SubgroupRow,
    SubgroupTable,
    SurvivalSample,
    WeibullDist,
    derive_rng,
    empirical_llp,
    km_fit,
    lehmann_transform,
    mixture_llp,
    naive_stratified_ratio,
    sample_times,
    sme_overall_hr,
    sme_overall_rr,
    sme_overall_tr,
    stratified_audit,
    weibull_from_median,
)
from survquack import sme
from survquack.errors import DomainError, NotReachedError, NumericalError

from oracles import (
    llp_against_steps_by_hand,
    mixture_density,
    power_curve_density,
    quad_llp,
    quantile_llp,
    step_survival_by_hand,
    weibull_density,
)


def lehmann_pair(shape, scale, theta):
    """Control Weibull plus the treated curve with proportional hazards theta."""
    c = WeibullDist(shape, scale)
    return WeibullDist(shape, scale * theta ** (-1.0 / shape)), c


# ----------------------------------------------------- naive_stratified_ratio

def test_naive_pooling_of_the_two_stratum_demo():
    pooled = naive_stratified_ratio([(0.521, 0.5), (0.983, 0.5)])
    assert round(pooled, 3) == 0.716
    assert pooled == pytest.approx(0.715641670111516, rel=1e-15)


def test_naive_single_stratum_returns_the_ratio():
    assert naive_stratified_ratio([(0.75, 1.0)]) == 0.75


def test_naive_reciprocal_pair_cancels():
    r = 1.37
    assert naive_stratified_ratio([(r, 0.5), (1.0 / r, 0.5)]) == pytest.approx(1.0, abs=1e-12)


def test_naive_is_exactly_invariant_to_relabeling():
    pairs = [(0.5, 0.25), (2.5, 0.35), (0.9, 0.4)]
    perm = [pairs[2], pairs[0], pairs[1]]
    assert naive_stratified_ratio(pairs) == naive_stratified_ratio(perm)


def test_naive_validates_inputs():
    with pytest.raises(DomainError):
        naive_stratified_ratio([])
    with pytest.raises(DomainError):
        naive_stratified_ratio([(0.0, 1.0)])
    with pytest.raises(DomainError):
        naive_stratified_ratio([(-2.0, 1.0)])
    with pytest.raises(DomainError):
        naive_stratified_ratio([(float("inf"), 1.0)])
    with pytest.raises(DomainError):
        naive_stratified_ratio([(1.0, -0.1), (1.0, 1.1)])
    with pytest.raises(DomainError):
        naive_stratified_ratio([(1.0, 0.5), (1.0, 0.4)])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_naive_stays_inside_the_stratum_range(data):
    k = data.draw(st.integers(1, 5), label="k")
    ratios = data.draw(
        st.lists(st.floats(0.05, 20.0), min_size=k, max_size=k), label="ratios"
    )
    raw = data.draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k), label="raw")
    weights = np.asarray(raw) / math.fsum(raw)
    pooled = naive_stratified_ratio(zip(ratios, weights))
    assert min(ratios) * (1.0 - 1e-12) <= pooled <= max(ratios) * (1.0 + 1e-12)


# ----------------------------------------------------------------- sme RR

def test_sme_rr_mixes_rates_before_dividing():
    table = SubgroupTable(
        Measure.RR,
        (SubgroupRow("a", 0.5, 0.2, 0.3), SubgroupRow("b", 0.5, 0.3, 0.4)),
    )
    out = sme_overall_rr(table)
    # mixed responses 0.25 / 0.35; inside the stratum range [2/3, 3/4]
    assert out == pytest.approx(5.0 / 7.0, rel=1e-15)
    assert 2.0 / 3.0 < out < 3.0 / 4.0


def test_sme_rr_shared_ratio_passes_through():
    table = SubgroupTable(
        Measure.RR,
        (SubgroupRow("a", 0.25, 0.36, 0.6), SubgroupRow("b", 0.75, 0.18, 0.3)),
    )
    assert sme_overall_rr(table) == pytest.approx(0.6, rel=1e-12)


def test_sme_rr_single_row():
    table = SubgroupTable(Measure.RR, (SubgroupRow("a", 1.0, 0.42, 0.84),))
    assert sme_overall_rr(table) == pytest.approx(0.5, rel=1e-15)


def test_sme_rr_zero_control_response_is_domain_error():
    table = SubgroupTable(
        Measure.RR, (SubgroupRow("a", 0.5, 0.1, 0.0), SubgroupRow("b", 0.5, 0.2, 0.0))
    )
    with pytest.raises(DomainError):
        sme_overall_rr(table)


def test_sme_rr_zero_rx_response_is_domain_error():
    table = SubgroupTable(
        Measure.RR, (SubgroupRow("a", 0.5, 0.0, 0.1), SubgroupRow("b", 0.5, 0.0, 0.2))
    )
    with pytest.raises(DomainError, match="Rx response is zero"):
        sme_overall_rr(table)


def test_sme_rr_rejects_wrong_measure_table():
    d = WeibullDist(1.0, 1.0)
    table = SubgroupTable(Measure.TR, (SubgroupRow("a", 1.0, d, d),))
    with pytest.raises(DomainError):
        sme_overall_rr(table)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sme_rr_is_logic_respecting(data):
    k = data.draw(st.integers(1, 4), label="k")
    rx = data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k), label="rx")
    c = data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k), label="c")
    raw = data.draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k), label="raw")
    prev = [r / math.fsum(raw) for r in raw]
    prev[-1] = 1.0 - math.fsum(prev[:-1])
    assume(prev[-1] > 0.0)
    rows = tuple(
        SubgroupRow(f"g{i}", prev[i], rx[i], c[i]) for i in range(k)
    )
    value = sme_overall_rr(SubgroupTable(Measure.RR, rows))
    ratios = [x / y for x, y in zip(rx, c)]
    assert min(ratios) * (1.0 - 1e-12) <= value <= max(ratios) * (1.0 + 1e-12)


# ----------------------------------------------------------------- sme TR

def test_sme_tr_identical_arms_is_exactly_one():
    c1, c2 = WeibullDist(1.2, 10.0), WeibullDist(0.9, 5.0)
    table = SubgroupTable(
        Measure.TR, (SubgroupRow("a", 0.6, c1, c1), SubgroupRow("b", 0.4, c2, c2))
    )
    assert sme_overall_tr(table) == 1.0


def test_sme_tr_uniform_time_stretch():
    # Rx curves are the control curves with every scale multiplied by 1.5,
    # so the Rx mixture median is exactly 1.5 times the control one.
    c1, c2 = WeibullDist(1.2, 10.0), WeibullDist(0.9, 5.0)
    r1, r2 = WeibullDist(1.2, 15.0), WeibullDist(0.9, 7.5)
    table = SubgroupTable(
        Measure.TR, (SubgroupRow("a", 0.6, r1, c1), SubgroupRow("b", 0.4, r2, c2))
    )
    assert sme_overall_tr(table) == pytest.approx(1.5, abs=1e-12)


def test_sme_tr_of_the_balanced_scenario_is_one(section3):
    rows = tuple(
        SubgroupRow(g.label, g.prevalence, g.rx, g.c) for g in section3.subgroups
    )
    value = sme_overall_tr(SubgroupTable(Measure.TR, rows))
    assert abs(value - 1.0) < 1e-6


def test_sme_tr_unreached_median_names_the_arm():
    plateau = km_fit([1.0, 2.0, 3.0], [True, False, False])
    good = WeibullDist(1.0, 1.0)
    with pytest.raises(NotReachedError) as exc:
        sme_overall_tr(SubgroupTable(Measure.TR, (SubgroupRow("x", 1.0, plateau, good),)))
    assert exc.value.arm == ARM_RX
    with pytest.raises(NotReachedError) as exc:
        sme_overall_tr(SubgroupTable(Measure.TR, (SubgroupRow("x", 1.0, good, plateau),)))
    assert exc.value.arm == ARM_C


def test_sme_tr_rejects_wrong_measure_table():
    table = SubgroupTable(Measure.RR, (SubgroupRow("a", 1.0, 0.5, 0.5),))
    with pytest.raises(DomainError):
        sme_overall_tr(table)


# ----------------------------------------------------------------- sme HR

def test_sme_hr_identical_arms_is_one():
    base = WeibullDist(1.3, 9.0)
    table = SubgroupTable(Measure.HR, (SubgroupRow("a", 1.0, base, base),))
    assert sme_overall_hr(table) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_sme_hr_recovers_single_subgroup_exponent(theta):
    base = WeibullDist(1.3, 9.0)
    table = SubgroupTable(
        Measure.HR, (SubgroupRow("a", 1.0, lehmann_transform(base, theta), base),)
    )
    assert sme_overall_hr(table) == pytest.approx(theta, abs=1e-6)


def test_sme_hr_mixing_dilutes_a_shared_exponent_toward_one():
    # Both subgroups have hazard ratio exactly 0.5 but different baselines,
    # so the mixture's hazards are no longer proportional and the overall
    # summary lands strictly between 0.5 and 1.
    theta = 0.5
    rows = []
    for label, median in (("fast", 6.0), ("slow", 18.0)):
        c = weibull_from_median(1.1, median)
        rows.append(SubgroupRow(label, 0.5, lehmann_transform(c, theta), c))
    table = SubgroupTable(Measure.HR, tuple(rows))
    value = sme_overall_hr(table)
    assert theta < value < 1.0
    assert value == pytest.approx(0.5519793259652118, rel=1e-9)
    rx_mix = table.arm_mixture(True)
    c_mix = table.arm_mixture(False)
    c_density = mixture_density(
        [(p, weibull_density(c.shape, c.scale)) for p, c in c_mix.components]
    )
    oracle = quad_llp(lambda t: float(rx_mix.survival(t)), c_density)
    assert mixture_llp(rx_mix, c_mix) == pytest.approx(oracle, abs=1e-7)
    # the same pair the other way round: a control mixture of power curves
    rx_parts = []
    for p, r in rx_mix.components:
        ref = r.reference
        rx_parts.append((p, power_curve_density(ref.survival, weibull_density(ref.shape, ref.scale), r.hr)))
    oracle = quad_llp(lambda t: float(c_mix.survival(t)), mixture_density(rx_parts))
    assert mixture_llp(c_mix, rx_mix) == pytest.approx(oracle, abs=1e-7)


def test_sme_hr_starved_quadrature_raises(monkeypatch):
    theta = 0.5
    c = weibull_from_median(1.1, 6.0)
    table = SubgroupTable(
        Measure.HR, (SubgroupRow("a", 1.0, lehmann_transform(c, theta), c),)
    )
    monkeypatch.setattr(sme, "_MAX_HALVINGS", 0)
    with pytest.raises(NumericalError):
        sme_overall_hr(table)


def test_sme_hr_degenerate_win_probability_raises():
    never_dies = km_fit([1.0, 2.0], [False, False])
    table = SubgroupTable(
        Measure.HR, (SubgroupRow("a", 1.0, WeibullDist(1.0, 1.0), never_dies),)
    )
    with pytest.raises(NumericalError):
        sme_overall_hr(table)


def test_sme_hr_rejects_wrong_measure_table():
    table = SubgroupTable(Measure.RR, (SubgroupRow("a", 1.0, 0.5, 0.5),))
    with pytest.raises(DomainError):
        sme_overall_hr(table)


# ------------------------------------------------------------- SubgroupTable

def test_subgroup_table_validations():
    d = WeibullDist(1.0, 1.0)
    with pytest.raises(DomainError):
        SubgroupTable(Measure.TR, ())
    with pytest.raises(DomainError):
        SubgroupTable(Measure.TR, (SubgroupRow("a", 0.4, d, d), SubgroupRow("b", 0.4, d, d)))
    with pytest.raises(DomainError):
        SubgroupTable(Measure.TR, (SubgroupRow("a", 0.0, d, d), SubgroupRow("b", 1.0, d, d)))
    with pytest.raises(DomainError):
        SubgroupTable(Measure.RR, (SubgroupRow("a", 1.0, 1.5, 0.5),))
    with pytest.raises(DomainError):
        SubgroupTable(Measure.TR, (SubgroupRow("a", 1.0, 0.5, 0.5),))


def test_subgroup_table_refinement_is_harmless():
    # Splitting the first row into two identical halves leaves every mixture
    # evaluation bitwise unchanged; splits elsewhere agree to rounding.
    c1, c2 = WeibullDist(1.2, 10.0), WeibullDist(0.9, 5.0)
    r1, r2 = WeibullDist(1.1, 14.0), WeibullDist(1.0, 6.0)
    base = SubgroupTable(
        Measure.TR, (SubgroupRow("a", 0.6, r1, c1), SubgroupRow("b", 0.4, r2, c2))
    )
    split_first = SubgroupTable(
        Measure.TR,
        (
            SubgroupRow("a1", 0.3, r1, c1),
            SubgroupRow("a2", 0.3, r1, c1),
            SubgroupRow("b", 0.4, r2, c2),
        ),
    )
    split_last = SubgroupTable(
        Measure.TR,
        (
            SubgroupRow("a", 0.6, r1, c1),
            SubgroupRow("b1", 0.2, r2, c2),
            SubgroupRow("b2", 0.2, r2, c2),
        ),
    )
    v = sme_overall_tr(base)
    assert sme_overall_tr(split_first) == v
    assert sme_overall_tr(split_last) == pytest.approx(v, abs=1e-9)


def test_refining_rr_rows_is_bitwise_neutral_anywhere():
    rows = (SubgroupRow("a", 0.6, 0.23, 0.31), SubgroupRow("b", 0.4, 0.52, 0.47))
    split_last = (
        SubgroupRow("a", 0.6, 0.23, 0.31),
        SubgroupRow("b1", 0.2, 0.52, 0.47),
        SubgroupRow("b2", 0.2, 0.52, 0.47),
    )
    a = sme_overall_rr(SubgroupTable(Measure.RR, rows))
    b = sme_overall_rr(SubgroupTable(Measure.RR, split_last))
    assert a == b


# ---------------------------------------------------------------- mixture_llp

def test_mixture_llp_step_step_tiny_cases_are_exact():
    def km_of(values):
        return km_fit(values, [True] * len(values))

    assert mixture_llp(km_of([2.0, 4.0]), km_of([1.0, 3.0])) == 0.75
    assert mixture_llp(km_of([1.0, 2.0]), km_of([2.0, 3.0])) == 0.125
    assert mixture_llp(km_of([1.0]), km_of([1.0])) == 0.5


def test_mixture_llp_of_an_all_censored_rx_arm_against_a_weibull_control():
    # an Rx curve with no jumps never dies, so it outlives every control
    never_dies = km_fit([1.0, 2.0, 3.0], [False] * 3)
    assert never_dies.jump_times().size == 0
    assert mixture_llp(never_dies, WeibullDist(1.0, 2.0)) == 1.0


def test_mixture_llp_step_step_matches_pairwise_estimator():
    rng = derive_rng(41, "llp-steps")
    rx_t = np.maximum(np.round(sample_times(WeibullDist(1.1, 8.0), rng, 60), 1), 0.1)
    c_t = np.maximum(np.round(sample_times(WeibullDist(1.1, 6.0), rng, 60), 1), 0.1)
    assert len(set(rx_t) & set(c_t)) > 0  # ties exercise the half-credit rule
    km_rx = km_fit(rx_t, np.ones(60, bool))
    km_c = km_fit(c_t, np.ones(60, bool))
    assert mixture_llp(km_rx, km_c) == pytest.approx(empirical_llp(rx_t, c_t), rel=1e-13)


def _tied_km(rng, scale, n=40):
    t = np.maximum(np.round(sample_times(WeibullDist(1.2, scale), rng, n)), 1.0)
    return km_fit(t, rng.random(n) < 0.8)


def _by_hand(km):
    return lambda t, left: step_survival_by_hand(km.times, km.survival_after, t, left)


def test_mixture_llp_against_a_lehmann_transformed_step_control():
    # neither curve is a product-limit curve itself, so both limits at the
    # control's jumps come from the base class's sides()
    rng = derive_rng(43, "llp-lehmann")
    km_rx, km_c = _tied_km(rng, 9.0), _tied_km(rng, 6.0)
    rx, c = lehmann_transform(km_rx, 0.7), lehmann_transform(km_c, 1.6)
    assert np.intersect1d(km_rx.times, km_c.times).size > 0  # ties get half credit
    want = llp_against_steps_by_hand(
        lambda t, left: _by_hand(km_rx)(t, left) ** 0.7,
        lambda t, left: _by_hand(km_c)(t, left) ** 1.6,
        km_c.times,
    )
    assert mixture_llp(rx, c) == pytest.approx(want, rel=1e-12)
    assert mixture_llp(km_rx, c) == pytest.approx(
        llp_against_steps_by_hand(_by_hand(km_rx), lambda t, left: _by_hand(km_c)(t, left) ** 1.6, km_c.times),
        rel=1e-12,
    )


def test_mixture_llp_against_a_nested_mixture_step_control():
    # a mixture inside a transform is one component, whose limits are the
    # prevalence-weighted sums of its own components' limits
    rng = derive_rng(44, "llp-nested")
    kms = [_tied_km(rng, scale) for scale in (5.0, 7.0, 10.0, 8.0)]
    inner = MixtureCurve(((0.5, kms[1]), (0.5, kms[2])))
    c = lehmann_transform(MixtureCurve(((0.4, kms[0]), (0.6, inner))), 1.3)
    rx = MixtureCurve(((0.25, kms[3]), (0.75, lehmann_transform(kms[0], 0.8))))
    hand = [_by_hand(km) for km in kms]

    def c_hand(t, left):
        return (0.4 * hand[0](t, left) + 0.6 * (0.5 * hand[1](t, left) + 0.5 * hand[2](t, left))) ** 1.3

    def rx_hand(t, left):
        return 0.25 * hand[3](t, left) + 0.75 * hand[0](t, left) ** 0.8

    jumps = np.concatenate([km.times for km in kms[:3]])
    assert mixture_llp(rx, c) == pytest.approx(llp_against_steps_by_hand(rx_hand, c_hand, jumps), rel=1e-12)


def test_mixture_llp_step_against_smooth_is_an_exact_piece_sum():
    rng = derive_rng(41, "llp-steps")
    rx_t = np.maximum(np.round(sample_times(WeibullDist(1.1, 8.0), rng, 60), 1), 0.1)
    km_rx = km_fit(rx_t, np.ones(60, bool))
    smooth = WeibullDist(1.4, 7.0)
    # independent oracle: sum the constant pieces against scipy's cdf
    cdf = sps.weibull_min(c=1.4, scale=7.0).cdf
    jumps = np.sort(np.unique(rx_t))
    vals = [1.0] + [float(km_rx.survival(j)) for j in jumps]
    bps = [0.0] + list(jumps) + [np.inf]
    oracle = math.fsum(
        v * (cdf(b) - cdf(a)) for v, a, b in zip(vals, bps[:-1], bps[1:])
    )
    forward = mixture_llp(km_rx, smooth)
    backward = mixture_llp(smooth, km_rx)
    assert forward == pytest.approx(oracle, abs=1e-12)
    assert forward + backward == pytest.approx(1.0, abs=1e-12)


def test_mixture_llp_rx_mixture_of_step_and_smooth_curves():
    # The Rx integrand jumps, so no single trapezoid rule over it converges;
    # each (Rx, control) component pair has an exact or smooth route.
    rng = derive_rng(41, "llp-steps")
    t = np.maximum(np.round(sample_times(WeibullDist(1.1, 8.0), rng, 60), 1), 0.1)
    ev = rng.random(60) < 0.8
    km = km_fit(t, ev)
    smooth = WeibullDist(1.0, 9.0)
    c = WeibullDist(1.1, 7.0)
    oracle = 0.5 * mixture_llp(km, c) + 0.5 * quantile_llp(
        lambda x: float(smooth.survival(x)), _weibull_quantile(1.1, 7.0)
    )
    value = mixture_llp(MixtureCurve(((0.5, km), (0.5, smooth))), c)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_mixture_llp_smooth_mixtures_match_quadrature_oracle():
    rx = MixtureCurve(((0.3, WeibullDist(0.9, 5.0)), (0.7, WeibullDist(1.6, 11.0))))
    c = MixtureCurve(((0.5, WeibullDist(1.2, 6.0)), (0.5, WeibullDist(1.0, 9.0))))
    value = mixture_llp(rx, c)
    c_density = mixture_density([(p, weibull_density(w.shape, w.scale)) for p, w in c.components])
    oracle = quad_llp(lambda t: float(rx.survival(t)), c_density)
    assert value == pytest.approx(oracle, abs=1e-8)
    assert value == pytest.approx(0.5765925629675359, rel=1e-12)


def _weibull_quantile(shape, scale):
    return lambda u: scale * (-math.log(u)) ** (1.0 / shape)


@pytest.mark.parametrize("shape", [0.05, 0.1, 0.15, 0.2, 0.35, 1.0, 3.0, 5.0])
def test_mixture_llp_matches_survival_scale_oracle_for_any_shape(shape):
    # Small control shapes put much of the control's mass at times near 0
    # and spread the rest over decades. At shape 0.15 the first two pairs
    # are 0.613281058440 and 0.568852450583 (mpmath, 40 digits).
    q_small = _weibull_quantile(shape, 8.0)
    q_two = _weibull_quantile(2.0, 8.0)
    small = WeibullDist(shape, 8.0)
    rx = WeibullDist(1.0, 10.0)
    rx_mix = MixtureCurve(((0.4, WeibullDist(shape, 12.0)), (0.6, WeibullDist(1.5, 6.0))))
    cases = (
        (rx, small, [(1.0, q_small)]),
        (
            rx,
            MixtureCurve(((0.5, WeibullDist(2.0, 8.0)), (0.5, small))),
            [(0.5, q_two), (0.5, q_small)],
        ),
        (rx_mix, small, [(1.0, q_small)]),
        # S = S_ref^0.7 reaches u where S_ref reaches u^(1/0.7)
        (rx, lehmann_transform(small, 0.7), [(1.0, lambda u: q_small(u ** (1.0 / 0.7)))]),
    )
    for rx_curve, c_curve, parts in cases:
        oracle = math.fsum(
            w * quantile_llp(lambda t: float(rx_curve.survival(t)), q) for w, q in parts
        )
        assert mixture_llp(rx_curve, c_curve) == pytest.approx(oracle, abs=1e-10)


# ------------------------------------------------------------ stratified_audit

def _lehmann_sample(seed_path, n, theta, shape, scale):
    rng = derive_rng(*seed_path)
    rx_dist, c_dist = lehmann_pair(shape, scale, theta)
    return sample_times(rx_dist, rng, n), sample_times(c_dist, rng, n)


def test_audit_single_level_factor_collapses_to_marginal():
    rx_t, c_t = _lehmann_sample((58, "audit-single"), 150, 0.5, 1.2, 10.0)
    base = SurvivalSample.from_arms(rx_t, c_t)
    sample = SurvivalSample(
        base.time, base.event, base.is_rx, {"only": np.array(["x"] * 300)}
    )
    hr_comp, = stratified_audit(sample, ["only"], measure=Measure.HR)
    assert hr_comp.factor == "only"
    assert hr_comp.naive_value == hr_comp.marginal_value
    # per-level Cox versus the rank-based mixture summary: same estimand,
    # different estimators, so they agree loosely at n = 150 per arm
    assert abs(hr_comp.sme_value - hr_comp.naive_value) < 0.05
    assert hr_comp.dropped_levels == ()

    tr_comp, = stratified_audit(sample, ["only"], measure=Measure.TR)
    assert tr_comp.naive_value == tr_comp.marginal_value
    assert tr_comp.sme_value == pytest.approx(tr_comp.naive_value, abs=1e-8)


def test_audit_pure_noise_factor_changes_nothing_much():
    rx_t, c_t = _lehmann_sample((58, "audit-single"), 150, 0.5, 1.2, 10.0)
    base = SurvivalSample.from_arms(rx_t, c_t)
    labels = np.where(derive_rng(59, "audit-noise").random(300) < 0.5, "L", "R")
    sample = SurvivalSample(base.time, base.event, base.is_rx, {"noise": labels})
    comp, = stratified_audit(sample, ["noise"], measure=Measure.HR)
    assert abs(comp.naive_value - comp.marginal_value) < 0.02
    assert abs(comp.sme_value - comp.marginal_value) < 0.02


def test_audit_drops_sparse_levels_with_a_warning():
    rx_t, c_t = _lehmann_sample((58, "audit-single"), 150, 0.5, 1.2, 10.0)
    base = SurvivalSample.from_arms(rx_t, c_t)
    time = np.concatenate([base.time, [5.0, 6.0]])
    event = np.concatenate([base.event, [True, False]])
    is_rx = np.concatenate([base.is_rx, [True, False]])
    labels = np.concatenate([np.array(["common"] * 300), np.array(["rare"] * 2)])
    sample = SurvivalSample(time, event, is_rx, {"f": labels})
    with pytest.warns(UserWarning, match="dropped sparse level"):
        comp, = stratified_audit(sample, ["f"], measure=Measure.HR)
    assert comp.dropped_levels == ("rare",)
    # the surviving level is exactly the original 300 subjects
    only = SurvivalSample(base.time, base.event, base.is_rx, {"o": np.array(["x"] * 300)})
    ref, = stratified_audit(only, ["o"], measure=Measure.HR)
    assert comp.naive_value == ref.naive_value


def test_audit_curves_follow_the_data():
    # product-limit curves on complete data, Weibull fits under censoring
    rx_t, c_t = _lehmann_sample((58, "audit-single"), 150, 0.5, 1.2, 10.0)
    base = SurvivalSample.from_arms(rx_t, c_t)
    labels = np.where(derive_rng(59, "audit-noise").random(300) < 0.5, "L", "R")
    for events, curves in ((base.event, lambda sub: (sub.km(True), sub.km(False))),
                           (np.arange(300) % 7 != 0, lambda sub: sub.weibull)):
        sample = SurvivalSample(base.time, events, base.is_rx, {"noise": labels})
        comp, = stratified_audit(sample, ["noise"], measure=Measure.HR)
        levels = sample.levels("noise")
        weights = [sub.n / sample.n for _, sub in levels]
        weights[-1] = 1.0 - sum(weights[:-1])
        rows = tuple(SubgroupRow(lv, w, *curves(sub)) for (lv, sub), w in zip(levels, weights))
        assert comp.sme_value == sme_overall_hr(SubgroupTable(Measure.HR, rows))


@pytest.mark.parametrize("unit", [1e-10, 1e-6, 1e-3, 1e3, 1e6])
def test_censored_tr_audit_does_not_depend_on_the_time_unit(unit):
    # the mixture median stops relative to its bracket, so times in another
    # unit give the same time ratio up to rounding
    rx_t, c_t = _lehmann_sample((58, "audit-single"), 150, 0.5, 1.2, 10.0)
    base = SurvivalSample.from_arms(rx_t, c_t)
    labels = {"noise": np.where(derive_rng(59, "audit-noise").random(300) < 0.5, "L", "R")}
    events = np.arange(300) % 7 != 0
    want, = stratified_audit(SurvivalSample(base.time, events, base.is_rx, labels), ["noise"], measure=Measure.TR)
    got, = stratified_audit(SurvivalSample(base.time * unit, events, base.is_rx, labels), ["noise"], measure=Measure.TR)
    assert got.sme_value == pytest.approx(want.sme_value, rel=1e-11, abs=0)


def test_audit_validates_inputs():
    rx_t, c_t = _lehmann_sample((58, "audit-single"), 150, 0.5, 1.2, 10.0)
    base = SurvivalSample.from_arms(rx_t, c_t)
    labels = np.where(derive_rng(59, "audit-noise").random(300) < 0.5, "L", "R")
    sample = SurvivalSample(base.time, base.event, base.is_rx, {"noise": labels})
    with pytest.raises(DomainError):
        stratified_audit(sample, ["nope"])
    with pytest.raises(DomainError):
        stratified_audit(sample, ["noise"], measure=Measure.RR)


def test_audit_needs_one_usable_level():
    sample = SurvivalSample(
        np.array([2.0, 5.0, 1.0, 6.0]),
        np.array([True, False, True, False]),
        np.array([True, False, False, True]),
        {"g": np.array(["a", "a", "b", "b"])},
    )
    with pytest.raises(DomainError):
        stratified_audit(sample, ["g"], measure=Measure.HR)
