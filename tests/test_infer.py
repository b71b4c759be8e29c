"""Log-rank test, Wald tests, the test-then-declare rule, and the MW pivot."""

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from survquack import (
    Claim,
    NOT_REACHED,
    SurvivalSample,
    WeibullDist,
    decision_procedure,
    derive_rng,
    logrank_test,
    mw_pair_count,
    mw_pivot_ci,
    sample_times,
    wald_test_cox,
    weibull_from_median,
)
from survquack import estim, infer
from survquack.errors import DomainError
from survquack.infer import MC_REPS, _BLOCK_KEYS, _cross_counts, mw_acceptance_region

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
    assert out.median_rx is NOT_REACHED
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
        assert out.median_rx is not NOT_REACHED and out.median_c is not NOT_REACHED
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


def test_mw_acceptance_region_bounds_and_determinism():
    lo, hi = mw_acceptance_region(4, 5, 1.0, 0.95, 4000, derive_rng(3, "region"))
    lo2, hi2 = mw_acceptance_region(4, 5, 1.0, 0.95, 4000, derive_rng(3, "region"))
    assert (lo, hi) == (lo2, hi2)
    assert 0.0 <= lo <= hi <= 20.0
    assert lo == int(lo) or (lo * 2) == int(lo * 2)  # counts move in half steps


@pytest.mark.parametrize("n,m", [(1, 1), (3, 7), (7, 3), (50, 50)])
def test_cross_counts_match_pairwise_comparison_with_ties(n, m):
    rng = derive_rng(17, "cross-counts", n, m)
    a = rng.random((300, m))
    b = np.power(rng.random((300, n)), 1.0 / 3.0)
    k = min(n, m)
    b[::3, :k] = a[::3, :k]  # exact ties count as b <= a
    b[::5, 0] = 0.0
    a[::7, -1] = 0.0
    expected = (b[:, :, None] <= a[:, None, :]).sum(axis=(1, 2))
    keys = np.full((300, n + m), np.iinfo(np.uint64).max, dtype=np.uint64)  # stale contents
    assert np.array_equal(_cross_counts(b, a, keys, np.arange(n + m)), expected)


@pytest.mark.parametrize("theta", [0.0, -1.0, float("inf"), float("nan")])
def test_mw_acceptance_region_rejects_bad_theta(theta):
    with pytest.raises(DomainError):
        mw_acceptance_region(3, 3, theta, 0.95, 2000, derive_rng(0, "bad"))


@pytest.mark.parametrize("n,m,theta", [(3, 3, 1.0), (3, 6, 0.5)])
def test_mw_acceptance_region_matches_exact_enumeration(n, m, theta):
    # The exact pmf oracle confirms the cut points are clear of knife edges
    # before the Monte Carlo comparison, so 200k replicates pin them down.
    exact = mw_exact_region(n, m, theta, 0.95, margin=0.002)
    mc = mw_acceptance_region(n, m, theta, 0.95, 200_000, derive_rng(2026, "mw-exact", n, m))
    assert (int(mc[0]), int(mc[1])) == (int(exact[0]), int(exact[1]))


def _reference_region(n, m, theta, level, mc_reps, rng):
    # Fresh draws, plain power and a broadcast pair count: no buffers, no keys.
    a = rng.random((mc_reps, m))
    w = rng.random((mc_reps, n))
    b = np.maximum(w, np.finfo(float).tiny) ** (1.0 / theta)
    counts = np.sort((b[:, :, None] <= a[:, None, :]).sum(axis=(1, 2)))
    k = math.floor(0.5 * (1.0 - level) * mc_reps)
    return float(counts[k]), float(counts[mc_reps - 1 - k])


_PIVOT_GRID = np.geomspace(0.3, 3.0, 9)


@pytest.mark.parametrize("n,m", [(37, 23), (23, 37)])
def test_mw_pivot_in_place_kernel_matches_fresh_draw_reference(n, m):
    rng = derive_rng(41, "pivot-data", n, m)
    rx = rng.exponential(1.0, n)
    c = rng.exponential(1.3, m)
    ci = mw_pivot_ci(rx, c, level=0.9, grid=_PIVOT_GRID, seed=41)
    obs = mw_pair_count(rx, c)
    expected = []
    for i, theta in enumerate(_PIVOT_GRID):
        lo, hi = _reference_region(n, m, theta, 0.9, 2000, derive_rng(41, "mw-pivot", i))
        region = mw_acceptance_region(n, m, theta, 0.9, 2000, derive_rng(41, "mw-pivot", i))
        assert region == (lo, hi)
        expected.append(lo <= obs <= hi)
    assert 0 < sum(expected) < len(expected)
    assert ci.accepted.tolist() == expected


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


def test_mw_pivot_allocates_one_buffer_set_per_call(monkeypatch):
    # Each region refills one block of buffers it allocates itself: at
    # n = m = 100 a block is 250 rows, 0.8 MB of draws and keys, and two
    # threads peaked at 1.92 MB (numpy 2.4); 2.3 MB leaves 20% headroom.
    # Whole-region buffers (6.4 MB per thread) go far past it.
    monkeypatch.setattr(infer, "_usable_cpus", lambda: 2)
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


def _fields(ci):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(ci).items()}


class _RecordingPool(ThreadPoolExecutor):
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.mark.parametrize("grid", [_PIVOT_GRID, _PIVOT_GRID[4:6]])
def test_mw_pivot_result_does_not_depend_on_thread_count(monkeypatch, grid):
    rng = derive_rng(44, "pivot-threads")
    rx = rng.exponential(1.0, 37)
    c = rng.exponential(1.3, 23)
    monkeypatch.setattr(infer, "ThreadPoolExecutor", _RecordingPool)
    _RecordingPool.sizes = []
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(infer, "_usable_cpus", lambda: cpus)
        results.append(_fields(mw_pivot_ci(rx, c, level=0.9, grid=grid, seed=44)))
    assert results[0] == results[1] == results[2]
    assert _RecordingPool.sizes == [min(k, grid.size) for k in (1, 2, 3)]


def test_mw_pivot_threads_share_nothing_under_stress(monkeypatch):
    # more threads than cores, switching every few microseconds: a lost or
    # misplaced write to ``accepted`` or a shared buffer changes the set
    grid = np.geomspace(0.02, 50.0, 24)
    rx, c = [2.0, 3.0, 5.0, 7.0, 9.5], [1.0, 4.5, 6.5, 8.5]
    monkeypatch.setattr(infer, "_usable_cpus", lambda: 1)
    expected = _fields(mw_pivot_ci(rx, c, grid=grid, seed=12))
    assert 0 < sum(expected["accepted"]) < grid.size
    monkeypatch.setattr(infer, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            assert _fields(mw_pivot_ci(rx, c, grid=grid, seed=12)) == expected
    finally:
        sys.setswitchinterval(interval)


def test_mw_pivot_worker_error_reaches_the_caller(monkeypatch):
    boom = RuntimeError("region failed")
    original = infer.mw_acceptance_region

    def failing(n, m, theta, *args, **kwargs):
        if theta == _PIVOT_GRID[5]:
            raise boom
        return original(n, m, theta, *args, **kwargs)

    monkeypatch.setattr(infer, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(infer, "mw_acceptance_region", failing)
    with pytest.raises(RuntimeError) as excinfo:
        mw_pivot_ci([1.0, 2.0, 3.0], [1.5, 2.5], grid=_PIVOT_GRID, seed=3)
    assert excinfo.value is boom


# ----------------------------------------------------------------- mw_pivot_ci

def test_mw_pivot_identical_arms_straddles_one():
    base = [float(x) for x in range(1, 9)]
    ci = mw_pivot_ci(base, base, seed=5)
    assert ci.observed_count == 32.0  # 28 wins + 8 ties at half
    assert ci.lo < 1.0 < ci.hi
    assert not ci.empty and not ci.non_convex
    assert ci.accepted.sum() > 0
    assert ci.n_rx == ci.n_c == 8
    assert ci.level == 0.95 and ci.mc_reps == MC_REPS == 2000 and ci.seed == 5


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
    assert not ci.non_convex
    assert (ci.lo, ci.hi) == (1.0, 1.0)
    assert not ci.accepted.any()


def test_mw_pivot_empty_set_warns_in_the_callers_thread(monkeypatch):
    # a warning raised in a worker thread would point into the thread pool
    monkeypatch.setattr(infer, "_usable_cpus", lambda: 3)
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
            4, 4, float(grid[i]), 0.95, 2000, derive_rng(11, "mw-pivot", i)
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
