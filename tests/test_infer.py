"""Log-rank test, Wald tests, the test-then-declare rule, and the MW pivot."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from survquack import (
    Claim,
    SurvivalSample,
    WeibullDist,
    decision_procedure,
    derive_rng,
    logrank_test,
    mw_pair_count,
    mw_pivot_ci,
    realize_scenario,
    sample_times,
    wald_test_cox,
    weibull_from_median,
)
from survquack import _pool, estim, infer
from survquack.errors import DomainError
from survquack.infer import (
    MC_REPS,
    _BLOCK_KEYS,
    _cross_counts,
    _first_at_most,
    _null_blocks,
    mw_acceptance_region,
)
from survquack.sim import simulate_sample

from oracles import logrank_by_hand, logrank_moments_scipy, mw_exact_region


# --------------------------------------------------------------- logrank_test

def test_logrank_identical_arms_is_exactly_null():
    t = [1.0, 2.0, 3.0, 4.0]
    r = logrank_test(SurvivalSample.from_arms(t, t))
    assert r.observed_minus_expected == 0.0
    assert r.z == 0.0
    assert r.p_two_sided == 1.0
    assert not r.zero_variance
    assert r.variance > 0.0


def test_logrank_hand_example():
    # Rx deaths at 1, 3 and C deaths at 2, 4: per-table terms are
    # 1/2 - 1/3 + 1/2 for O-E and 1/4 + 2/9 + 1/4 = 13/18 for V.
    s = SurvivalSample.from_arms([1.0, 3.0], [2.0, 4.0])
    r = logrank_test(s)
    assert r.observed_minus_expected == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert r.variance == pytest.approx(13.0 / 18.0, rel=1e-15)
    assert r.z == pytest.approx(0.7844645405527362, rel=1e-13)
    assert r.p_two_sided == pytest.approx(0.43276758066778465, rel=1e-13)


def test_logrank_matches_both_oracles_on_censored_data():
    times = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 7.0, 9.0]
    events = [True, True, False, True, True, False, True, True]
    is_rx = [True, False, True, False, True, True, False, False]
    s = SurvivalSample(np.array(times), np.array(events, bool), np.array(is_rx, bool))
    r = logrank_test(s)
    oe_hand, var_hand = logrank_by_hand(times, events, is_rx)
    oe_sp, var_sp = logrank_moments_scipy(times, events, is_rx)
    assert r.observed_minus_expected == pytest.approx(oe_hand, rel=1e-13)
    assert r.variance == pytest.approx(var_hand, rel=1e-13)
    assert r.observed_minus_expected == pytest.approx(oe_sp, rel=1e-12)
    assert r.variance == pytest.approx(var_sp, rel=1e-12)


def test_logrank_zero_variance_flagged_not_crashed():
    # Single shared death time: the only 2x2 table has n = d = 2, so the
    # hypergeometric variance vanishes.
    r = logrank_test(SurvivalSample.from_arms([5.0], [5.0]))
    assert r.zero_variance
    assert r.variance == 0.0
    assert r.z == 0.0
    assert r.p_two_sided == 1.0


def test_logrank_rejects_single_arm_and_no_deaths():
    one_arm = SurvivalSample(np.array([1.0, 2.0]), np.ones(2, bool), np.ones(2, bool))
    with pytest.raises(DomainError):
        logrank_test(one_arm)
    no_deaths = SurvivalSample.from_arms(
        [1.0, 2.0], [3.0], rx_events=[False, False], c_events=[False]
    )
    with pytest.raises(DomainError):
        logrank_test(no_deaths)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_logrank_z_antisymmetric_under_arm_swap(data):
    n = data.draw(st.integers(2, 8), label="n_rx")
    m = data.draw(st.integers(2, 8), label="n_c")
    rx_t = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n), label="rx_t")
    c_t = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m), label="c_t")
    rx_e = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="rx_e")
    c_e = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="c_e")
    assume(any(rx_e) or any(c_e))
    fwd = logrank_test(SurvivalSample.from_arms(rx_t, c_t, rx_events=rx_e, c_events=c_e))
    rev = logrank_test(SurvivalSample.from_arms(c_t, rx_t, rx_events=c_e, c_events=rx_e))
    assert fwd.z == pytest.approx(-rev.z, abs=1e-12)
    assert fwd.variance == pytest.approx(rev.variance, rel=1e-12)


# -------------------------------------------------------------- wald_test_cox

def test_wald_cox_antisymmetric_and_strong_effect():
    rng = derive_rng(33, "wald")
    rx = sample_times(WeibullDist(1.0, 2.0), rng, 1000)
    c = sample_times(WeibullDist(1.0, 1.0), rng, 1000)
    z, p = wald_test_cox(SurvivalSample.from_arms(rx, c))
    z_sw, p_sw = wald_test_cox(SurvivalSample.from_arms(c, rx))
    assert z == pytest.approx(-z_sw, abs=1e-12)
    assert p == pytest.approx(p_sw, rel=1e-12)
    # True hazard ratio 0.5 at n = 1000 per arm: overwhelming evidence.
    assert z < -8.0
    assert p < 1e-10


def test_wald_cox_reads_the_cached_fit(monkeypatch):
    rng = derive_rng(34, "wald")
    sample = SurvivalSample.from_arms(
        sample_times(WeibullDist(1.0, 2.0), rng, 60), sample_times(WeibullDist(1.0, 1.0), rng, 60)
    )
    calls = []
    original = estim.cox_fit_two_arm

    def counting(s):
        calls.append(s)
        return original(s)

    for module in (estim, infer):
        monkeypatch.setattr(module, "cox_fit_two_arm", counting, raising=False)
    log_hr, se = sample.cox
    z, p = wald_test_cox(sample)
    assert wald_test_cox(sample) == (z, p)
    assert calls == [sample]
    assert z == log_hr / se
    assert p == math.erfc(abs(z) / math.sqrt(2.0))


def test_decision_and_wald_of_one_sample_build_one_risk_table(section3, count_builds):
    # the log-rank test, both product-limit medians and the Cox fit share
    # one sort, one table, one set of log-rank terms and one curve per arm
    scenario = realize_scenario(dataclasses.replace(section3.config, n_total=60))
    samples = [simulate_sample(scenario, rep) for rep in range(3)]
    counts = count_builds()
    for sample in samples:
        decision_procedure(sample, scenario.config.alpha)
        wald_test_cox(sample)
    assert counts == {
        "sorts": [((60,), "stable")] * 3, "curves": 6,
        "_risk_tables": 3, "_logrank_terms": 3, "weibull_mle": 0, "km_fit": 0,
    }


# --------------------------------------------------------- decision_procedure

def test_decision_identical_arms_makes_no_claim():
    t = [1.0, 2.0, 3.0, 4.0, 5.0]
    out = decision_procedure(SurvivalSample.from_arms(t, t), 0.05)
    assert out.claim is Claim.NO_CLAIM
    assert out.p_value == 1.0
    assert not out.tie


def test_decision_declares_longer_rx_median():
    rng = derive_rng(63, "decision")
    rx = sample_times(weibull_from_median(1.0, 12.0), rng, 250)
    c = sample_times(weibull_from_median(1.0, 6.0), rng, 250)
    out = decision_procedure(SurvivalSample.from_arms(rx, c), 0.05)
    assert out.claim is Claim.RX_LONGER_MEDIAN
    assert out.p_value < 1e-6
    assert out.median_rx > out.median_c
    assert out.logrank is not None
    swapped = decision_procedure(SurvivalSample.from_arms(c, rx), 0.05)
    assert swapped.claim is Claim.C_LONGER_MEDIAN


def test_decision_exact_median_tie_rejects_without_direction():
    # Both medians sit at t = 5 exactly, yet C collapses at 6 while Rx
    # survives to 100, so the log-rank test rejects decisively.
    rx = [5.0] * 10 + [100.0] * 10
    c = [5.0] * 10 + [6.0] * 10
    out = decision_procedure(SurvivalSample.from_arms(rx, c), 0.05)
    assert out.logrank.observed_minus_expected == -5.0
    assert out.logrank.variance == pytest.approx(100.0 / 39.0 + 25.0 / 19.0, rel=1e-15)
    assert out.p_value == pytest.approx(0.011136039105306389, rel=1e-12)
    assert out.median_rx == out.median_c == 5.0
    assert out.claim is Claim.NO_CLAIM
    assert out.tie


def test_decision_unreached_median_rejects_without_direction():
    rx = SurvivalSample.from_arms(
        np.full(15, 20.0),
        np.arange(1.0, 16.0),
        rx_events=np.zeros(15, bool),
        c_events=np.ones(15, bool),
    )
    out = decision_procedure(rx, 0.05)
    assert out.p_value < 1e-6
    assert out.median_rx is None
    assert out.claim is Claim.NO_CLAIM
    assert out.tie


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_decision_rejects_bad_alpha(alpha):
    s = SurvivalSample.from_arms([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(DomainError):
        decision_procedure(s, alpha)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_decision_claims_are_internally_consistent(data):
    n = data.draw(st.integers(2, 8), label="n_rx")
    m = data.draw(st.integers(2, 8), label="n_c")
    rx_t = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n), label="rx_t")
    c_t = data.draw(st.lists(st.integers(1, 6), min_size=m, max_size=m), label="c_t")
    rx_e = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="rx_e")
    c_e = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="c_e")
    assume(any(rx_e) or any(c_e))
    s = SurvivalSample.from_arms(rx_t, c_t, rx_events=rx_e, c_events=c_e)
    out = decision_procedure(s, 0.5)
    if out.claim is not Claim.NO_CLAIM:
        # A directional call always rests on a rejection and ordered medians.
        assert out.p_value < 0.5
        assert not out.tie
        assert out.median_rx is not None and out.median_c is not None
        if out.claim is Claim.RX_LONGER_MEDIAN:
            assert out.median_rx > out.median_c
        else:
            assert out.median_rx < out.median_c
    elif out.p_value < 0.5:
        assert out.tie


# ---------------------------------------------------------------- mw machinery

def test_mw_pair_count_examples():
    assert mw_pair_count([2.0, 4.0], [1.0, 3.0]) == 3.0
    assert mw_pair_count([1.0, 2.0], [2.0, 3.0]) == 0.5
    assert mw_pair_count([1.0], [1.0]) == 0.5


def test_pair_counts_refuse_times_that_are_not_finite_and_positive():
    # five NaN Rx times once counted as 50 wins, and the pivot returned
    # (0.339, 2.83) with no warning
    rx, c = [math.nan] * 5 + [1.0] * 5, [2.0] * 10
    with pytest.raises(DomainError, match="observation times must be finite and > 0"):
        mw_pair_count(rx, c)
    with pytest.raises(DomainError, match="observation times must be finite and > 0"):
        mw_pivot_ci(rx, c)
    with pytest.raises(DomainError, match="observation times must be finite and > 0"):
        mw_pair_count([1.0], [0.0])


def test_null_blocks_draw_finite_values_from_a_zero_uniform(zero_first_rng):
    # the stream's first two uniforms, row 0's first reference ones, are 0.0
    v, u, _, _ = next(_null_blocks(3, 4, 10, zero_first_rng(), range(10)))
    assert np.isfinite(v).all() and np.isfinite(u).all()
    assert v[0, 0] == v[0, 1] == pytest.approx(-math.log(np.finfo(float).tiny), rel=1e-12)


def test_mw_acceptance_region_bounds_and_determinism():
    lo, hi = mw_acceptance_region(4, 5, 1.0, 0.95, 4000, derive_rng(3, "region"))
    lo2, hi2 = mw_acceptance_region(4, 5, 1.0, 0.95, 4000, derive_rng(3, "region"))
    assert (lo, hi) == (lo2, hi2)
    assert 0.0 <= lo <= hi <= 20.0
    assert lo == int(lo) or (lo * 2) == int(lo * 2)  # counts move in half steps


@pytest.mark.parametrize("n,m", [(1, 1), (3, 7), (7, 3), (50, 50)])
def test_cross_counts_match_pairwise_comparison_with_ties(n, m):
    rng = derive_rng(17, "cross-counts", n, m)
    theta = rng.uniform(0.2, 5.0, 300)
    v = -np.log(rng.random((300, m)))
    u = -np.log(rng.random((300, n)))
    k = min(n, m)
    u[::3, :k] = theta[::3, None] * v[::3, :k]  # exact ties count as theta * v <= u
    v[::5, 0] = 0.0
    u[::7, -1] = 0.0
    expected = (theta[:, None, None] * v[:, None, :] <= u[:, :, None]).sum(axis=(1, 2))
    keys = np.full((300, n + m), np.iinfo(np.uint64).max, dtype=np.uint64)  # stale contents
    assert np.array_equal(_cross_counts(theta, v, u, keys, np.arange(n + m)), expected)


@pytest.mark.parametrize("theta", [0.0, -1.0, float("inf"), float("nan")])
def test_mw_acceptance_region_rejects_bad_theta(theta):
    with pytest.raises(DomainError):
        mw_acceptance_region(3, 3, theta, 0.95, 2000, derive_rng(0, "bad"))


@pytest.mark.parametrize(
    "level,mc_reps,name",
    [
        (1.5, 2000, "level"),
        (0.0, 2000, "level"),
        (float("nan"), 2000, "level"),
        (0.95, 0, "mc_reps"),
    ],
)
def test_mw_acceptance_region_rejects_bad_level_and_mc_reps(level, mc_reps, name):
    with pytest.raises(DomainError, match=name):
        mw_acceptance_region(13, 2, 1.0, level, mc_reps, derive_rng(0, "bad"))


@pytest.mark.parametrize(
    "n,m,mc_reps,match",
    [
        (-1, 3, 200, "Rx arm"),
        (0, 3, 200, "Rx arm"),
        (3, 0, 200, "C arm"),
        (3, -2, 200, "C arm"),
        (2.5, 3, 200, "Rx arm"),
        (3, 3, 2.5, "mc_reps"),
        (3, 3, True, "mc_reps"),
    ],
)
def test_mw_acceptance_region_rejects_bad_arm_sizes_and_draw_counts(n, m, mc_reps, match):
    with pytest.raises(DomainError, match=match):
        mw_acceptance_region(n, m, 1.0, 0.95, mc_reps, derive_rng(0, "bad"))


def test_mw_acceptance_region_takes_numpy_integer_sizes():
    # PCG64.advance takes no numpy integer, so the sizes are made Python ints
    args = (np.int64(4), np.int32(5), 1.0, 0.95, np.int64(400))
    got = mw_acceptance_region(*args, derive_rng(3, "r"))
    assert got == mw_acceptance_region(4, 5, 1.0, 0.95, 400, derive_rng(3, "r"))


@pytest.mark.parametrize("n,m,theta", [(3, 3, 1.0), (3, 6, 0.5)])
def test_mw_acceptance_region_matches_exact_enumeration(n, m, theta):
    # The exact pmf oracle confirms the cut points are clear of knife edges
    # before the Monte Carlo comparison, so 200k replicates pin them down.
    exact = mw_exact_region(n, m, theta, 0.95, margin=0.002)
    mc = mw_acceptance_region(n, m, theta, 0.95, 200_000, derive_rng(2026, "mw-exact", n, m))
    assert (int(mc[0]), int(mc[1])) == (int(exact[0]), int(exact[1]))


def _reference_region(n, m, theta, level, mc_reps, rng):
    # Fresh draws, the log form and a broadcast pair count: no buffers, no keys.
    a = rng.random((mc_reps, m))
    b = rng.random((mc_reps, n))
    v = -np.log(np.maximum(a, np.finfo(float).tiny))
    u = -np.log(np.maximum(b, np.finfo(float).tiny))
    counts = np.sort((theta * v[:, None, :] <= u[:, :, None]).sum(axis=(1, 2)))
    k = math.floor(0.5 * (1.0 - level) * mc_reps)
    return float(counts[k]), float(counts[mc_reps - 1 - k])


def _power_region(n, m, theta, level, mc_reps, rng):
    # The same draws in the power form: a pair counts when b ** (1 / theta) <= a.
    a = rng.random((mc_reps, m))
    w = rng.random((mc_reps, n))
    b = np.maximum(w, np.finfo(float).tiny) ** (1.0 / theta)
    counts = np.sort((b[:, :, None] <= a[:, None, :]).sum(axis=(1, 2)))
    k = math.floor(0.5 * (1.0 - level) * mc_reps)
    return float(counts[k]), float(counts[mc_reps - 1 - k])


_PIVOT_GRID = np.geomspace(0.3, 3.0, 9)


def _one_run(accepted):
    """Whether the accepted grid points are one run (or none)."""
    idx = np.flatnonzero(accepted)
    return idx.size == 0 or idx[-1] - idx[0] + 1 == idx.size


@pytest.mark.parametrize("n,m", [(37, 23), (23, 37)])
def test_mw_pivot_in_place_kernel_matches_fresh_draw_reference(n, m):
    rng = derive_rng(41, "pivot-data", n, m)
    rx = rng.exponential(1.0, n)
    c = rng.exponential(1.3, m)
    ci = mw_pivot_ci(rx, c, level=0.9, grid=_PIVOT_GRID, seed=41)
    obs = mw_pair_count(rx, c)
    expected = []
    for theta in _PIVOT_GRID:
        lo, hi = _reference_region(n, m, theta, 0.9, 2000, derive_rng(41, "mw-pivot"))
        assert _power_region(n, m, theta, 0.9, 2000, derive_rng(41, "mw-pivot")) == (lo, hi)
        region = mw_acceptance_region(n, m, theta, 0.9, 2000, derive_rng(41, "mw-pivot"))
        assert region == (lo, hi)
        expected.append(lo <= obs <= hi)
    assert 0 < sum(expected) < len(expected)
    assert ci.accepted.tolist() == expected


_BISECTED_GRIDS = {
    1: np.array([1.0]),
    2: np.array([0.5, 2.0]),
    9: _PIVOT_GRID,
    33: np.geomspace(0.1, 10.0, 33),
    "linear": np.linspace(0.05, 6.0, 40),
    "gap": np.r_[np.geomspace(0.2, 5.0, 12), 1e6 + np.arange(1.0, 4.0)],
}


@pytest.mark.parametrize("points", list(_BISECTED_GRIDS))
@pytest.mark.parametrize("n,m", [(1, 1), (3, 6), (37, 23), (23, 37)])
def test_mw_pivot_accepts_each_grid_points_shared_stream_region(n, m, points):
    # The searched set equals evaluating every grid point's region on a fresh
    # copy of the one stream, for whole and half-integer counts (one tie).
    grid = _BISECTED_GRIDS[points]
    rng = derive_rng(45, "pivot-bisect", n, m)
    rx = rng.exponential(1.0, n)
    c = rng.exponential(1.3, m)
    tied = rx.copy()
    tied[0] = c[0]
    for level in (0.8, 0.95):
        for times in (rx, tied):
            obs = mw_pair_count(times, c)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty set is a valid outcome
                ci = mw_pivot_ci(times, c, level=level, grid=grid, seed=45)
            expected = []
            for theta in grid:
                lo, hi = _reference_region(n, m, theta, level, 2000, derive_rng(45, "mw-pivot"))
                region = mw_acceptance_region(n, m, theta, level, 2000, derive_rng(45, "mw-pivot"))
                assert region == (lo, hi)
                expected.append(lo <= obs <= hi)
            assert ci.accepted.tolist() == expected, (level, obs)
            assert _one_run(ci.accepted)


_SEARCHED_GRIDS = {
    "one": np.array([1.0]),
    "two": np.array([0.5, 2.0]),
    "default": np.geomspace(1.0 / 50.0, 50.0, 200),
    # a linear grid and one with a gap of 1e6 mislead the aim: rows crawl
    # towards their crossing unless they fall back to bisection
    "linear": np.linspace(0.01, 50.0, 200),
    "gap": np.r_[np.geomspace(0.2, 5.0, 30), 1e6 + np.arange(1.0, 31.0)],
}


@pytest.mark.parametrize("name", list(_SEARCHED_GRIDS))
def test_first_at_most_matches_a_linear_scan(name, monkeypatch):
    grid = _SEARCHED_GRIDS[name]
    n = m = 20
    v, u, keys, positions = next(_null_blocks(n, m, 250, derive_rng(47, "search", name), range(250)))
    rows = v.shape[0]
    counts = np.array(
        [_cross_counts(np.full(rows, theta), v, u, keys, positions) for theta in grid]
    ).T
    passes = []

    def counted(*args):
        passes.append(1)
        return _cross_counts(*args)

    monkeypatch.setattr(infer, "_cross_counts", counted)
    starts = derive_rng(47, "search-starts").integers(0, grid.size + 1, rows)
    # after the first pass, every three passes halve each open bracket
    bound = 1 + 3 * grid.size.bit_length()
    for limit in (-1, 10, 100, 200, 300, 390, n * m, n * m + 5):
        for lo in (0, grid.size - 1, starts):
            passes.clear()
            first, at = _first_at_most(grid, limit, v, u, keys, positions, lo)
            fits = (counts <= limit) & (np.arange(grid.size) >= np.reshape(lo, (-1, 1)))
            expected = np.where(fits.any(axis=1), fits.argmax(axis=1), grid.size)
            assert np.array_equal(first, expected), (limit, lo)
            ends = np.minimum(expected, grid.size - 1)
            expected_at = np.where(expected < grid.size, counts[np.arange(rows), ends], -1)
            assert np.array_equal(at, expected_at), (limit, lo)
            assert len(passes) <= bound, (limit, lo)


@pytest.mark.parametrize(
    "n,m,theta,mc_reps",
    [(23, 37, 1.7, 2000), (37, 23, 0.4, 2000), (3, 6, 2.5, 200_000)],
)
def test_mw_acceptance_region_streams_blocks_like_one_fresh_draw(n, m, theta, mc_reps):
    # mc_reps is no multiple of the block rows, so the last block is short;
    # the generator must end where one draw of every uniform leaves it
    rows = min(mc_reps, max(1, _BLOCK_KEYS // (n + m)))
    assert rows < mc_reps and mc_reps % rows != 0
    rng = derive_rng(43, "mw-stream", n, m)
    ref_rng = derive_rng(43, "mw-stream", n, m)
    region = mw_acceptance_region(n, m, theta, 0.95, mc_reps, rng)
    assert region == _reference_region(n, m, theta, 0.95, mc_reps, ref_rng)
    assert rng.random() == ref_rng.random()
    assert region == _power_region(n, m, theta, 0.95, mc_reps, derive_rng(43, "mw-stream", n, m))


def test_mw_pivot_allocates_one_buffer_set_per_call():
    # Each process refills one block of buffers for its share of the rows:
    # at n = m = 100 a block is 250 rows, 0.8 MB of draws and keys. Gathering
    # the open rows into the keys takes a transient copy of at most one
    # block's draws, and it peaked at 1.04 MB in the calling process (numpy
    # 2.4), or 1.15 MB when the call starts the worker pool. Whole-region
    # buffers (6.4 MB) go far past 2.3 MB.
    rng = derive_rng(8, "pivot-memory")
    rx = rng.exponential(1.0, 100)
    c = rng.exponential(1.5, 100)
    tracemalloc.start()
    try:
        mw_pivot_ci(rx, c, grid=np.geomspace(0.2, 5.0, 20), seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_300_000


def test_mw_pivot_counts_few_rows_per_null_draw(monkeypatch, usable_cpus):
    # Aimed searches close most rows in about three counted passes; the two
    # full bisections they replaced counted each row 16 times on this grid.
    # One process searches every row, so that each count is seen here.
    usable_cpus(1)
    counted = []

    def counting(theta, *args):
        counted.append(theta.size)
        return _cross_counts(theta, *args)

    monkeypatch.setattr(infer, "_cross_counts", counting)
    rng = derive_rng(9, "pivot-work")
    rx = rng.exponential(1.0, 100)
    c = rng.exponential(1.5, 100)
    mw_pivot_ci(rx, c, seed=9)
    assert sum(counted) <= 5 * MC_REPS


@pytest.mark.parametrize(
    "n, m, tie, shares",
    [
        (120, 80, False, [1, 2, 2]),  # benchmark-shaped: a whole count, so the tie search runs
        (120, 80, True, [1, 2, 2]),  # a half-integer count
        (200, 133, False, [1, 2, 3]),  # blocks of 150 rows: every share ends inside a block
        (70, 70, False, [1, 1, 1]),  # too few subjects to split
    ],
)
def test_mw_pivot_is_the_same_on_any_number_of_cpus(monkeypatch, usable_cpus, n, m, tie, shares):
    rng = derive_rng(53, "pivot-cpus", n, m)
    rx, c = rng.exponential(1.0, n), rng.exponential(1.3, m)
    if tie:
        rx[0] = c[0]
    split, shares_of = [], _pool._shares

    def recording(*args):
        split.append(len(shares_of(*args)))
        return shares_of(*args)

    monkeypatch.setattr(_pool, "_shares", recording)
    results = []
    for cpus in (1, 2, 3):
        usable_cpus(cpus)
        results.append(mw_pivot_ci(rx, c, seed=53))
    assert split == shares
    first = results[0]
    assert first.observed_count % 1 == (0.5 if tie else 0.0)
    assert 0 < first.accepted.sum() < first.grid.size
    for ci in results[1:]:
        assert np.array_equal(ci.grid, first.grid) and np.array_equal(ci.accepted, first.accepted)
        assert (ci.lo, ci.hi, ci.observed_count, ci.empty) == (first.lo, first.hi, first.observed_count, first.empty)


# ----------------------------------------------------------------- mw_pivot_ci

def test_mw_pivot_identical_arms_straddles_one():
    base = [float(x) for x in range(1, 9)]
    ci = mw_pivot_ci(base, base, seed=5)
    assert ci.observed_count == 32.0  # 28 wins + 8 ties at half
    assert ci.lo < 1.0 < ci.hi
    assert not ci.empty and _one_run(ci.accepted)
    assert ci.accepted.sum() > 0
    assert ci.n_rx == ci.n_c == 8
    assert ci.level == 0.95 and ci.mc_reps == MC_REPS == 2000


def test_mw_pivot_rx_dominating_pushes_hull_below_one():
    base = [float(x) for x in range(1, 9)]
    ci = mw_pivot_ci([x + 100.0 for x in base], base, seed=5)
    assert ci.observed_count == 64.0
    assert ci.hi < 1.0
    assert ci.lo == pytest.approx(ci.grid[0])


def test_mw_pivot_empty_set_warns_and_reports_grid_range():
    base = [float(x) for x in range(1, 9)]
    with pytest.warns(UserWarning, match="no grid exponent"):
        ci = mw_pivot_ci([x + 100.0 for x in base], base, grid=[1.0], seed=5)
    assert ci.empty
    assert _one_run(ci.accepted)
    assert (ci.lo, ci.hi) == (1.0, 1.0)
    assert not ci.accepted.any()


def test_mw_pivot_empty_set_warns_in_the_callers_thread():
    # the warning points at the caller's line, not into the package
    base = [float(x) for x in range(1, 9)]
    with pytest.warns(UserWarning, match="no grid exponent") as record:
        ci = mw_pivot_ci([x + 100.0 for x in base], base, grid=[0.9, 1.0, 1.1], seed=5)
    assert ci.empty
    assert [w.filename for w in record] == [__file__]


def test_mw_pivot_stretching_rx_times_shifts_hull_down():
    rx = [2.0, 3.0, 5.0, 7.0]
    c = [1.0, 4.5, 6.5, 8.5]
    stretched = [2.0 * x for x in rx]
    assert mw_pair_count(stretched, c) > mw_pair_count(rx, c)
    ci = mw_pivot_ci(rx, c, seed=9)
    ci_st = mw_pivot_ci(stretched, c, seed=9)
    assert ci_st.lo <= ci.lo
    assert ci_st.hi <= ci.hi


def test_mw_pivot_is_deterministic_and_matches_manual_regions():
    rx = [2.0, 3.0, 5.0, 7.0]
    c = [1.0, 4.5, 6.5, 8.5]
    grid = np.geomspace(0.25, 4.0, 33)
    ci = mw_pivot_ci(rx, c, grid=grid, seed=11)
    again = mw_pivot_ci(rx, c, grid=grid, seed=11)
    assert np.array_equal(ci.accepted, again.accepted)
    assert (ci.lo, ci.hi) == (again.lo, again.hi)
    obs = mw_pair_count(rx, c)
    assert obs == ci.observed_count
    for i in (0, 17, 32):
        lo_cnt, hi_cnt = mw_acceptance_region(
            4, 4, float(grid[i]), 0.95, 2000, derive_rng(11, "mw-pivot")
        )
        assert ci.accepted[i] == (lo_cnt <= obs <= hi_cnt)


def test_mw_pivot_validates_inputs():
    rx, c = [1.0, 2.0], [3.0, 4.0]
    with pytest.raises(DomainError):
        mw_pivot_ci(rx, c, level=1.0)
    with pytest.raises(DomainError):
        mw_pivot_ci(rx, c, level=0.0)
    with pytest.raises(DomainError):
        mw_pivot_ci(rx, c, grid=[2.0, 1.0])
    with pytest.raises(DomainError):
        mw_pivot_ci(rx, c, grid=[-1.0, 2.0])
    with pytest.raises(DomainError):
        mw_pivot_ci(rx, c, grid=[])
    with pytest.raises(DomainError):
        mw_pivot_ci(rx, c, grid=[[1.0, 2.0]])
    for grid in ([1.0, math.inf], [math.nan, 1.0], [0.5, math.nan, 2.0]):
        with pytest.raises(DomainError, match="grid must be .*finite"):
            mw_pivot_ci(rx, c, grid=grid)
