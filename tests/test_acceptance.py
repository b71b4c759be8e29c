"""The acceptance gate: one test per shipped claim, with pinned tolerances.

Each test wraps its assertions in the ``criterion`` context manager so the
terminal summary ends with one PASS/FAIL line per criterion. Heavy shared
artifacts (the equal-median scenario studies, the null-calibration study,
the synthetic stratified cohort) come from session fixtures in conftest.
"""

import math
import time
from itertools import combinations_with_replacement, product

import numpy as np

from oracles import bisect_complement_scale, logrank_by_hand, mw_exact_region
from survquack.dist import (
    WeibullDist,
    lehmann_transform,
    sample_times,
    weibull_from_median,
)
from survquack.estim import (
    Measure,
    SurvivalSample,
    empirical_llp,
    hr_from_llp,
    hr_to_tr,
    km_fit,
    llp_from_hr,
    tr_to_hr,
)
from survquack.infer import logrank_test, mw_acceptance_region, mw_pivot_ci
from survquack.rng import derive_rng
from survquack.sme import (
    SubgroupRow,
    SubgroupTable,
    naive_stratified_ratio,
    sme_overall_hr,
    sme_overall_rr,
    sme_overall_tr,
)


def test_criterion_01_pooled_log_average(criterion):
    with criterion(1, "pooled log-average reproduces the worked example"):
        value = naive_stratified_ratio([(0.521, 0.5), (0.983, 0.5)])
        assert round(value, 3) == 0.716


def test_criterion_02_equal_median_rejection_rates(criterion, study_1k, study_10k):
    with criterion(2, "equal-median scenario rejection and directional rates"):
        report, elapsed = study_1k
        assert report.replications == 1000
        assert 0.25 <= report.rejection_rate <= 0.36
        assert elapsed < 60.0
        assert study_10k.replications == 10_000
        assert 0.27 <= study_10k.rejection_rate <= 0.34
        max_directional = max(study_10k.rx_longer_rate, study_10k.c_longer_rate)
        assert max_directional > 0.12


def test_criterion_03_scenario_construction(criterion, section3):
    with criterion(3, "scenario medians and solved scales"):
        assert abs(section3.arm_median(True) - 8.0) < 1e-6
        assert abs(section3.arm_median(False) - 8.0) < 1e-6
        solved = {g.label: g for g in section3.subgroups}["g-"]
        plus_rx = weibull_from_median(1.05, 12.0)
        plus_c = weibull_from_median(1.05, 6.0)
        oracle_rx = bisect_complement_scale(1.2, 8.0, 0.5, float(plus_rx.survival(8.0)))
        oracle_c = bisect_complement_scale(1.2, 8.0, 0.5, float(plus_c.survival(8.0)))
        assert abs(solved.rx.scale - oracle_rx) < 1e-6
        assert abs(solved.c.scale - oracle_c) < 1e-6


def test_criterion_04_null_calibration(criterion, null_study_10k):
    with criterion(4, "null calibration at the nominal level"):
        assert null_study_10k.replications == 10_000
        assert abs(null_study_10k.rejection_rate - 0.05) <= 0.015
        assert abs(null_study_10k.cox_rejection_rate - 0.05) <= 0.015


def test_criterion_05_bijections_and_recovery(criterion):
    with criterion(5, "scale bijections and power-parameter recovery"):
        rng = derive_rng(505, "bijection")
        for hr in np.exp(rng.uniform(-4.0, 4.0, 10_000)):
            assert abs(hr_from_llp(llp_from_hr(hr)) - hr) / hr < 1e-12
        for llp in rng.uniform(1e-3, 1.0 - 1e-3, 10_000):
            assert abs(llp_from_hr(hr_from_llp(llp)) - llp) < 1e-12
        shapes = rng.uniform(0.5, 3.0, 10_000)
        for tr, shape in zip(np.exp(rng.uniform(-2.0, 2.0, 10_000)), shapes):
            assert abs(hr_to_tr(tr_to_hr(tr, shape), shape) - tr) / tr < 1e-12
        for theta in (0.25, 0.5, 2.0, 4.0):
            control = WeibullDist(1.3, 9.0)
            table = SubgroupTable(
                Measure.HR,
                (SubgroupRow("all", 1.0, lehmann_transform(control, theta), control),),
            )
            assert abs(sme_overall_hr(table) - theta) < 1e-6


def test_criterion_06_logic_respecting_suites(criterion):
    with criterion(6, "logic-respecting aggregation suites"):
        rng = derive_rng(606, "rr-suite")
        violations = 0
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(k))
            c_p = rng.uniform(0.05, 1.0, k)
            rx_p = rng.uniform(0.0, 1.0, k)
            rows = tuple(
                SubgroupRow(f"s{j}", float(weights[j]), float(rx_p[j]), float(c_p[j]))
                for j in range(k)
            )
            value = sme_overall_rr(SubgroupTable(Measure.RR, rows))
            ratios = rx_p / c_p
            if not (ratios.min() - 1e-12 <= value <= ratios.max() + 1e-12):
                violations += 1
        assert violations == 0

        rng = derive_rng(607, "tr-suite")
        for _ in range(500):
            prevalence = float(rng.uniform(0.05, 0.95))
            shapes = rng.uniform(0.6, 2.5, 2)
            c_medians = rng.uniform(2.0, 20.0, 2)
            ratios = rng.uniform(0.4, 2.5, 2)
            rows = []
            for j, weight in enumerate((prevalence, 1.0 - prevalence)):
                control = weibull_from_median(float(shapes[j]), float(c_medians[j]))
                treated = weibull_from_median(
                    float(shapes[j]), float(c_medians[j] * ratios[j])
                )
                rows.append(SubgroupRow(f"s{j}", weight, treated, control))
            value = sme_overall_tr(SubgroupTable(Measure.TR, tuple(rows)))
            lo, hi = min(ratios), max(ratios)
            # false position closes a mixture quantile's bracket to 1e-10, so allow that much slack
            if not (lo - 1e-8 * hi <= value <= hi + 1e-8 * hi):
                violations += 1
        assert violations == 0


def test_criterion_07_hazard_ratio_dilution(criterion):
    with criterion(7, "mixture hazard ratio dilution"):
        for theta in (0.3, 0.5, 0.8):
            for ratio in (2, 3, 5):
                near = weibull_from_median(1.0, 6.0)
                far = weibull_from_median(1.0, 6.0 * ratio)
                rows = (
                    SubgroupRow("near", 0.5, lehmann_transform(near, theta), near),
                    SubgroupRow("far", 0.5, lehmann_transform(far, theta), far),
                )
                value = sme_overall_hr(SubgroupTable(Measure.HR, rows))
                assert theta < value < 1.0


def test_criterion_08_stratified_cohort_stability(criterion, oak_sample, oak_audit):
    with criterion(8, "stratified cohort audit stability"):
        assert len(oak_audit) >= 3
        naive = [c.naive_value for c in oak_audit]
        sme = [c.sme_value for c in oak_audit]
        assert max(naive) - min(naive) > 0.05
        assert max(sme) - min(sme) < 0.02
        rx_t, rx_e = oak_sample.arm(True)
        c_t, c_e = oak_sample.arm(False)
        marginal_sme = hr_from_llp(empirical_llp(rx_t, c_t, rx_e, c_e))
        for value in sme:
            assert abs(value - marginal_sme) < 0.02


def test_criterion_09_pivot_coverage_and_exact_regions(criterion):
    with criterion(9, "pivot confidence set coverage and exact regions"):
        start = time.perf_counter()
        grid = np.geomspace(0.5, 8.0, 33)
        assert grid[16] == 2.0
        control_dist = WeibullDist(1.0, 1.0)
        treated_dist = WeibullDist(1.0, 0.5)
        point_hits = 0
        hull_hits = 0
        for i in range(500):
            rng = derive_rng(4242, "coverage", i)
            c_t = sample_times(control_dist, rng, 50)
            rx_t = sample_times(treated_dist, rng, 50)
            result = mw_pivot_ci(rx_t, c_t, level=0.95, grid=grid, seed=i)
            point_hits += bool(result.accepted[16])
            hull_hits += bool(not result.empty and result.lo <= 2.0 <= result.hi)
        assert 0.93 <= point_hits / 500 <= 0.98
        assert 0.93 <= hull_hits / 500 <= 0.98

        # exact enumeration agrees with the Monte Carlo region everywhere;
        # off-default powers dodge knife-edge quantiles for a few shapes
        special = {(3, 6): 0.5, (5, 6): 0.5, (6, 3): 2.0, (6, 5): 2.0}
        for n in range(1, 7):
            for m in range(1, 7):
                theta = special.get((n, m), 1.0)
                exact = mw_exact_region(n, m, theta, 0.95, margin=0.002)
                rng = derive_rng(2026, "mw-exact", n, m)
                mc = mw_acceptance_region(n, m, theta, 0.95, 200_000, rng)
                assert tuple(exact) == tuple(mc), (n, m, theta)
        assert time.perf_counter() - start < 300.0


def _logrank_sweep_cases():
    """Every two-arm layout with <= 6 all-event subjects, plus censoring
    patterns up to n=4: time multisets over {1..n} cover all tie layouts."""
    for n in range(2, 7):
        for times in combinations_with_replacement(range(1, n + 1), n):
            for arms in product((False, True), repeat=n):
                if any(arms) and not all(arms):
                    yield np.array(times, float), np.ones(n, bool), np.array(arms)
    for n in range(2, 5):
        for times in combinations_with_replacement(range(1, n + 1), n):
            for arms in product((False, True), repeat=n):
                if not (any(arms) and not all(arms)):
                    continue
                for events in product((False, True), repeat=n):
                    if not any(events) or all(events):
                        continue
                    yield np.array(times, float), np.array(events), np.array(arms)


def test_criterion_10_oracle_equivalence(criterion):
    with criterion(10, "product-limit and log-rank oracle equivalence"):
        for i in range(200):
            rng = derive_rng(808, "km-emp", i)
            n = int(rng.integers(1, 40))
            times = rng.integers(1, 8, n) * 0.5
            curve = km_fit(times, np.ones(n, dtype=bool))
            for j, t in enumerate(curve.times):
                empirical = float((times > t).mean())
                assert abs(float(curve.survival_after[j]) - empirical) <= 1e-12

        count = 0
        for times, events, arms in _logrank_sweep_cases():
            result = logrank_test(SurvivalSample(times, events, arms))
            oe, var = logrank_by_hand(times, events, arms)
            assert math.isclose(
                result.observed_minus_expected, oe, rel_tol=1e-12, abs_tol=1e-12
            ), (times, events, arms)
            assert math.isclose(result.variance, var, rel_tol=1e-12, abs_tol=1e-12), (
                times,
                events,
                arms,
            )
            count += 1
        assert count == 40_212
