"""Scenario realization and the directional-error Monte Carlo machinery."""

import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.stats import binomtest

from survquack import (
    Claim,
    ScenarioConfig,
    SubgroupSpec,
    realize_scenario,
    run_replication,
    run_study,
    tr_to_hr,
    weibull_from_median,
)
from survquack import estim, sim
from survquack.cli import main, parse_scenario_config
from survquack.errors import DomainError, InfeasibleScenario, NumericalError
from survquack.sim import simulate_sample, wilson_interval

from oracles import bisect_complement_scale, draw_trial


def section3_config(**changes):
    """The packaged equal-median scenario, with ``changes`` applied."""
    return dataclasses.replace(parse_scenario_config("builtin:section3"), **changes)


@pytest.fixture(scope="module")
def small_scenario():
    return realize_scenario(section3_config(n_total=60, replications=40))


@pytest.fixture(scope="module")
def pool_scenario():
    # room for four minimum shares, not five
    return realize_scenario(section3_config(n_total=60, replications=4 * sim._MIN_CHUNK + 30))


@pytest.fixture
def fresh_pool():
    """Shut the warm worker pool down before and after the test, so that
    the test's first split starts a pool of its own (whose workers see the
    test's patches of this package) and leaves none behind."""
    sim._shutdown_pool()
    yield
    sim._shutdown_pool()


def _pool_pids():
    return {process.pid for process in multiprocessing.active_children()}


# ------------------------------------------------------ builtin:section3

def test_builtin_scenario_config_fields():
    cfg = section3_config()
    assert cfg.n_total == 1000
    assert cfg.allocation == 0.5
    assert cfg.alpha == 0.05
    assert cfg.overall_median == 8.0
    assert cfg.solve_subgroup == "g-"
    assert cfg.membership == "stochastic"
    assert cfg.replications == 1000
    gp, gm = cfg.subgroups
    assert (gp.label, gp.prevalence, gp.shape) == ("g+", 0.5, 1.05)
    assert (gp.rx_median, gp.c_median) == (12.0, 6.0)
    assert (gm.label, gm.prevalence, gm.shape) == ("g-", 0.5, 1.2)
    assert gm.is_open and not gp.is_open


def test_realized_scenario_matches_bisection_oracle():
    sc = realize_scenario(section3_config())
    gp, gm = sc.subgroups
    assert gp.rx.median == pytest.approx(12.0, rel=1e-12)
    assert gp.c.median == pytest.approx(6.0, rel=1e-12)
    assert gp.time_ratio == pytest.approx(2.0, rel=1e-12)
    assert gp.hazard_ratio == tr_to_hr(2.0, 1.05)

    assert gm.rx.scale == pytest.approx(7.9330603336157, rel=1e-12)
    assert gm.c.scale == pytest.approx(14.329010790988683, rel=1e-12)
    plus_rx = weibull_from_median(1.05, 12.0)
    plus_c = weibull_from_median(1.05, 6.0)
    assert gm.rx.scale == pytest.approx(
        bisect_complement_scale(1.2, 8.0, 0.5, float(plus_rx.survival(8.0))), rel=1e-9
    )
    assert gm.c.scale == pytest.approx(
        bisect_complement_scale(1.2, 8.0, 0.5, float(plus_c.survival(8.0))), rel=1e-9
    )
    # both arms share the overall median while the subgroups disagree in sign
    assert abs(sc.arm_median(True) - 8.0) < 1e-6
    assert abs(sc.arm_median(False) - 8.0) < 1e-6
    assert gp.time_ratio > 1.0 > gm.time_ratio
    assert gm.hazard_ratio > 1.0 > gp.hazard_ratio


# ------------------------------------------------------------ config validation

def _replace(cfg, **kw):
    return dataclasses.replace(cfg, **kw)

def test_config_validation_gates():
    cfg = section3_config()
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, membership="blocks"))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, n_total=19))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, allocation=0.0))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, n_total=20, allocation=0.01))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, alpha=0.0))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, alpha=0.6))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, replications=0))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, subgroups=()))


def test_subgroup_validation_gates():
    cfg = section3_config()
    gp, gm = cfg.subgroups
    dup = _replace(cfg, subgroups=(gp, dataclasses.replace(gm, label="g+")))
    with pytest.raises(DomainError):
        realize_scenario(dup)
    off_sum = _replace(cfg, subgroups=(dataclasses.replace(gp, prevalence=0.4), gm))
    with pytest.raises(DomainError):
        realize_scenario(off_sum)
    degenerate = _replace(
        cfg,
        subgroups=(dataclasses.replace(gp, prevalence=0.0), dataclasses.replace(gm, prevalence=1.0)),
    )
    with pytest.raises(DomainError):
        realize_scenario(degenerate)
    bad_shape = _replace(cfg, subgroups=(dataclasses.replace(gp, shape=-1.0), gm))
    with pytest.raises(DomainError):
        realize_scenario(bad_shape)
    half_pinned = _replace(cfg, subgroups=(dataclasses.replace(gp, c_median=None), gm))
    with pytest.raises(DomainError, match="must pin each arm by its median"):
        realize_scenario(half_pinned)


def test_solve_subgroup_wiring_is_checked():
    cfg = section3_config()
    gp, gm = cfg.subgroups
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, solve_subgroup=None))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, overall_median=None))
    with pytest.raises(DomainError):
        realize_scenario(_replace(cfg, solve_subgroup="g+"))
    pinned_only = ScenarioConfig(
        subgroups=(SubgroupSpec("all", 1.0, 1.0, rx_median=8.0, c_median=8.0),),
        overall_median=8.0,
    )
    with pytest.raises(DomainError):
        realize_scenario(pinned_only)
    lone_open = ScenarioConfig(
        subgroups=(SubgroupSpec("g-", 1.0, 1.2),),
        overall_median=8.0,
        solve_subgroup="g-",
    )
    with pytest.raises(DomainError):
        realize_scenario(lone_open)


def test_single_pinned_subgroup_needs_no_solving():
    cfg = ScenarioConfig(
        subgroups=(SubgroupSpec("all", 1.0, 1.0, rx_median=8.0, c_median=8.0),)
    )
    sc = realize_scenario(cfg)
    assert len(sc.subgroups) == 1
    assert sc.subgroups[0].time_ratio == 1.0


def test_infeasible_equal_median_target():
    # the pinned subgroup alone already holds more than half the survival
    # mass at the target median, so no complement scale can work
    cfg = ScenarioConfig(
        subgroups=(
            SubgroupSpec("g+", 0.8, 1.0, rx_median=16.0, c_median=16.0),
            SubgroupSpec("g-", 0.2, 1.0),
        ),
        overall_median=8.0,
        solve_subgroup="g-",
        n_total=100,
        replications=5,
    )
    with pytest.raises(InfeasibleScenario):
        realize_scenario(cfg)


# -------------------------------------------------------------- simulate/run

def test_simulate_sample_layout(small_scenario):
    sample = simulate_sample(small_scenario, 0)
    n = small_scenario.config.n_total
    assert sample.n == n
    assert sample.event.all()
    assert sample.is_rx.sum() == small_scenario.n_rx
    assert sample.is_rx[: small_scenario.n_rx].all()
    assert set(np.unique(sample.strata["subgroup"])) <= {"g+", "g-"}


def test_simulate_sample_is_deterministic(small_scenario):
    a = simulate_sample(small_scenario, 3)
    b = simulate_sample(small_scenario, 3)
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.is_rx, b.is_rx)
    assert np.array_equal(a.strata["subgroup"], b.strata["subgroup"])
    c = simulate_sample(small_scenario, 4)
    assert not np.array_equal(a.time, c.time)


def test_quota_membership_hits_exact_counts():
    cfg = section3_config(membership="quota", n_total=20, replications=1)
    sample = simulate_sample(realize_scenario(cfg), 0)
    for arm in (True, False):
        labels = sample.strata["subgroup"][sample.is_rx == arm]
        _, counts = np.unique(labels, return_counts=True)
        assert list(counts) == [5, 5]

    uneven = ScenarioConfig(
        subgroups=(
            SubgroupSpec("a", 1.0 / 3.0, 1.0, rx_median=5.0, c_median=5.0),
            SubgroupSpec("b", 1.0 - 1.0 / 3.0, 1.0, rx_median=7.0, c_median=7.0),
        ),
        n_total=30,
        membership="quota",
        replications=1,
    )
    sample = simulate_sample(realize_scenario(uneven), 0)
    for arm in (True, False):
        labels = sample.strata["subgroup"][sample.is_rx == arm]
        counts = dict(zip(*np.unique(labels, return_counts=True)))
        assert counts == {"a": 5, "b": 10}


@pytest.mark.parametrize(
    "prevalences, n, counts",
    [((0.15, 0.35, 0.5), 101, (15, 35, 51)), ((1 / 3, 1 / 3, 1 / 3), 500, (167, 167, 166))],
)
def test_quota_counts_give_the_remainder_to_the_largest_fractions(prevalences, n, counts):
    # n·p is not whole: each subgroup gets floor(n·p), and the subjects left
    # go one each to the largest fractional parts, the first of equal ones
    assert tuple(sim._quota_counts(np.array(prevalences), n)) == counts


def test_quota_index_splits_each_arm_by_the_remainder_rule():
    subgroups = tuple(
        SubgroupSpec(label, p, 1.0, rx_median=5.0, c_median=6.0)
        for label, p in (("a", 0.15), ("b", 0.35), ("c", 0.5))
    )
    index = realize_scenario(ScenarioConfig(subgroups, n_total=202, membership="quota"))._quota_index
    for arm in (index[:101], index[101:]):
        assert tuple(np.bincount(arm)) == (15, 35, 51)


def test_tally_counts_a_rejection_whose_medians_tie(monkeypatch):
    # every trial: Rx's first nine deaths after C's, both 10th deaths at
    # 10.0 and Rx's last ten far later, so the log-rank test rejects while
    # the product-limit medians tie; the tied time sends each row to its
    # own sample
    scenario = realize_scenario(section3_config(membership="quota", n_total=40, replications=3))
    rx = np.concatenate([np.linspace(9.1, 9.9, 9), [10.0], np.arange(100.0, 110.0)])
    c = np.concatenate([np.arange(1.0, 10.0), [10.0], np.linspace(10.1, 10.9, 10)])

    def draw(scenario, streams, time):
        time[:] = np.concatenate([rx, c])
        return np.zeros(time.shape, dtype=int)

    monkeypatch.setattr(sim, "_draw_block", draw)
    outcome = run_replication(scenario, 0).outcome
    assert outcome.p_value < 0.05 and outcome.tie and outcome.claim is Claim.NO_CLAIM
    assert list(sim._tally_chunk(scenario, range(3))) == [3, 0, 0, 3, 3]
    report = run_study(scenario, workers=1)
    assert (report.rejections, report.rx_longer, report.c_longer, report.ties) == (3, 0, 0, 3)


def test_run_replication_is_deterministic(small_scenario):
    a = run_replication(small_scenario, 7)
    b = run_replication(small_scenario, 7)
    assert a == b
    assert a.rep == 7
    assert isinstance(a.cox_rejected, bool)


def test_run_replication_builds_one_risk_table(small_scenario, monkeypatch, count_builds):
    # the log-rank test, both product-limit medians and the Cox fit share
    # one sort, one table and one curve per arm
    samples = {rep: simulate_sample(small_scenario, rep) for rep in range(3)}
    monkeypatch.setattr(sim, "simulate_sample", lambda scenario, rep: samples[rep])
    counts = count_builds()
    for rep in range(3):
        run_replication(small_scenario, rep)
    assert counts == {
        "sorts": [((small_scenario.config.n_total,), "stable")] * 3, "curves": 6,
        "_risk_tables": 3, "weibull_mle": 0, "km_fit": 0,
    }


def test_run_study_worker_count_is_invisible(pool_scenario):
    seq = run_study(pool_scenario, workers=1)
    assert run_study(pool_scenario, workers=2) == seq
    assert run_study(pool_scenario) == seq
    assert seq.replications == 4 * sim._MIN_CHUNK + 30


# ----------------------------------------------------------- block evaluation

def _evaluate_drawn_block(scenario, reps):
    time = np.empty((len(reps), scenario.config.n_total))
    sim._draw_block(scenario, sim._trial_streams(scenario, reps), time)
    return sim._evaluate_block(scenario, reps, time)


@pytest.mark.parametrize(
    "config, reps",
    [
        (section3_config(), 40),
        (ScenarioConfig(subgroups=(SubgroupSpec("all", 1.0, 1.0, rx_median=8.0, c_median=8.0),)), 40),
        (section3_config(membership="quota", n_total=20), 64),
    ],
    ids=["section3", "criterion4-null", "quota-n20"],
)
def test_block_matches_run_replication_row_by_row(config, reps):
    scenario = realize_scenario(config)
    block = _evaluate_drawn_block(scenario, list(range(reps)))
    for got in block:
        want = run_replication(scenario, got.rep)
        assert got.outcome.claim is want.outcome.claim
        assert got.outcome.tie == want.outcome.tie
        assert got.cox_rejected == want.cox_rejected
        assert (got.outcome.median_rx, got.outcome.median_c) == (
            want.outcome.median_rx,
            want.outcome.median_c,
        )
        assert got.outcome.p_value == pytest.approx(want.outcome.p_value, rel=1e-12, abs=0)
        z_got, z_want = (r.cox[0] / r.cox[1] for r in (got, want))
        assert z_got == pytest.approx(z_want, rel=1e-12, abs=0)


def test_block_of_seed_153_keeps_the_fit_that_once_stalled():
    # replication 3 of master seed 153 stalled under the old absolute-score stop
    scenario = realize_scenario(section3_config(master_seed=153))
    got = _evaluate_drawn_block(scenario, [0, 1, 2, 3, 4])[3]
    log_hr, se = estim.cox_fit_two_arm(simulate_sample(scenario, 3))
    assert got.cox[0] == pytest.approx(log_hr, rel=1e-12, abs=0)
    assert got.cox[1] == pytest.approx(se, rel=1e-12, abs=0)


def test_simulate_seed_153_tally(tmp_path):
    out = tmp_path / "r.json"
    argv = ["simulate", "builtin:section3", "--seed", "153", "--replications", "250", "--out", str(out)]
    assert main(argv) == 0
    study = json.loads(out.read_text())["sections"]["study"]["data"]
    assert (study["rejections"], study["rx_longer"], study["cox_rejections"]) == (65, 54, 65)


def test_tied_and_separated_rows_fall_back_to_their_own_samples(monkeypatch):
    scenario = realize_scenario(section3_config(membership="quota", n_total=20))
    tied = np.arange(1.0, 21.0)
    tied[3] = tied[12]
    separated = np.concatenate([np.arange(11.0, 21.0), np.arange(1.0, 11.0)])
    # a drawn row is known by its Rx times stream
    rows = {}
    for rep, row in enumerate([tied, separated]):
        rows[sim._trial_streams(scenario, [rep])["times", "Rx"][0]] = row

    def draw(scenario, streams, time):
        time[:] = [rows[state] for state in streams["times", "Rx"]]
        return np.zeros(time.shape, dtype=int)

    fallbacks = []

    def counting(scenario, rep):
        fallbacks.append(rep)
        return run_replication(scenario, rep)

    monkeypatch.setattr(sim, "_draw_block", draw)
    with pytest.raises(NumericalError) as per_sample:
        estim.cox_fit_two_arm(simulate_sample(scenario, 1))
    tied_result = run_replication(scenario, 0)
    monkeypatch.setattr(sim, "run_replication", counting)
    time = np.stack([tied, separated])
    with pytest.raises(NumericalError) as batched:
        sim._evaluate_block(scenario, [0, 1], time)
    assert fallbacks == [0, 1]
    assert str(batched.value) == str(per_sample.value)
    assert batched.value.diagnostics == per_sample.value.diagnostics
    assert sim._evaluate_block(scenario, [0], time[:1]) == [tied_result]


def test_run_study_blocks_are_invisible():
    # with two processes, each share ends its own partial block
    reps = 2 * sim._MIN_CHUNK + 37
    assert (reps // 2) % sim._BLOCK and (reps - reps // 2) % sim._BLOCK
    scenario = realize_scenario(section3_config(replications=reps))
    seq = run_study(scenario, workers=1)
    assert run_study(scenario, workers=2) == seq
    per_sample = [run_replication(scenario, rep) for rep in range(reps)]
    assert seq.rejections == sum(r.outcome.p_value < 0.05 for r in per_sample)
    assert seq.rx_longer == sum(r.outcome.claim is Claim.RX_LONGER_MEDIAN for r in per_sample)
    assert seq.c_longer == sum(r.outcome.claim is Claim.C_LONGER_MEDIAN for r in per_sample)
    assert seq.cox_rejections == sum(r.cox_rejected for r in per_sample)


THREE_SUBGROUPS = ScenarioConfig(
    subgroups=(
        SubgroupSpec("a", 0.2, 0.8, rx_median=5.0, c_median=6.0),
        SubgroupSpec("b", 0.5, 1.3, rx_median=9.0, c_median=7.0),
        SubgroupSpec("c", 0.3, 2.0, rx_median=3.0, c_median=4.0),
    ),
    n_total=101,
    allocation=0.3,
)


@pytest.mark.parametrize(
    "config",
    [section3_config(), section3_config(membership="quota", n_total=20), THREE_SUBGROUPS],
    ids=["section3", "quota-n20", "three-subgroups"],
)
@pytest.mark.parametrize(
    "reps",
    [
        list(range(37)),  # the last draw group is not full
        list(range(2000))[5::40],  # reps that do not follow each other
        [0, 2**32, 1, 2**32 + 3, 2],  # one- and two-word reps in one group
    ],
    ids=["range37", "strided", "wide-reps"],
)
def test_tally_draws_match_the_per_trial_oracle(config, reps, monkeypatch):
    scenario = realize_scenario(config)
    drawn = []
    evaluate = sim._evaluate_block

    def recording(scenario, block, time):
        drawn.extend(zip(block, time.copy()))
        return evaluate(scenario, block, time)

    monkeypatch.setattr(sim, "_evaluate_block", recording)
    sim._tally_chunk(scenario, reps)
    assert [rep for rep, _ in drawn] == reps
    for rep, row in drawn:
        want, _ = draw_trial(scenario, rep)
        np.testing.assert_array_equal(row.view(np.uint64), want.view(np.uint64))
    sample = simulate_sample(scenario, reps[-1])
    want, g_idx = draw_trial(scenario, reps[-1])
    np.testing.assert_array_equal(sample.time.view(np.uint64), want.view(np.uint64))
    labels = np.array([g.label for g in scenario.subgroups])
    np.testing.assert_array_equal(sample.strata["subgroup"], labels[g_idx])


@pytest.mark.parametrize("seed, rep", [(210615, 0), (5, 2**32 + 1), (2**64 + 5, 7)])
def test_one_row_uniforms_equal_the_block_route(seed, rep):
    # a single rep takes numpy's own derivation and a block derives its
    # states together, every tail in one pass; each tail's row is the same
    # bit for bit, and simulate_sample's trial is the per-trial oracle's
    scenario = realize_scenario(section3_config(master_seed=seed, n_total=50))
    one = sim._trial_streams(scenario, [rep])
    block = sim._trial_streams(scenario, [rep + 1, rep, 2**33])
    assert sorted(one) == sorted(block) == [("membership",), ("times", "C"), ("times", "Rx")]
    gen = np.random.Generator(np.random.PCG64(0))
    for tail in one:
        u_one, u_block = sim._uniforms(gen, one[tail], 50), sim._uniforms(gen, block[tail], 50)
        np.testing.assert_array_equal(u_one[0].view(np.uint64), u_block[1].view(np.uint64))
    sample = simulate_sample(scenario, rep)
    want, g_idx = draw_trial(scenario, rep)
    np.testing.assert_array_equal(sample.time.view(np.uint64), want.view(np.uint64))
    labels = np.array([g.label for g in scenario.subgroups])
    np.testing.assert_array_equal(sample.strata["subgroup"], labels[g_idx])


@pytest.mark.parametrize(
    "config",
    [section3_config(n_total=60), section3_config(membership="quota", n_total=20)],
    ids=["stochastic", "quota"],
)
@pytest.mark.parametrize("reps", [range(300), range(0, 900, 3)], ids=["range300", "strided"])
def test_tally_draws_cross_the_stream_derivation_boundary(config, reps, monkeypatch):
    # seed streams are derived 256 replications at a time, every tail in one
    # call, and drawn 32 rows at a time; the rows on both sides of the
    # boundary are each trial's own
    assert sim._STREAM_ROWS == 256 and sim._STREAM_ROWS % sim._DRAW_ROWS == 0
    scenario = realize_scenario(config)
    drawn, derived = [], []
    evaluate, derive = sim._evaluate_block, sim._pcg64_states

    def recording(scenario, block, time):
        drawn.extend(zip(block, time.copy()))
        return evaluate(scenario, block, time)

    def counting(master_seed, group, tails):
        derived.append((list(group), sorted(tails)))
        return derive(master_seed, group, tails)

    monkeypatch.setattr(sim, "_evaluate_block", recording)
    monkeypatch.setattr(sim, "_pcg64_states", counting)
    sim._tally_chunk(scenario, reps)
    assert [rep for rep, _ in drawn] == list(reps)
    for at in (0, 255, 256, 257, 299):
        rep, row = drawn[at]
        want, _ = draw_trial(scenario, rep)
        np.testing.assert_array_equal(row.view(np.uint64), want.view(np.uint64))
    arms = [("times", "Rx"), ("times", "C")]
    want_tails = arms + [("membership",)] if config.membership == "stochastic" else arms
    assert derived == [(list(reps[:256]), sorted(want_tails)), (list(reps[256:]), sorted(want_tails))]


def test_tally_chunk_memory_does_not_grow_with_replications():
    # streams are derived and drawn in groups of sim._DRAW_ROWS rows; a
    # first short tally fills the caches a study builds once
    scenario = realize_scenario(section3_config())
    sim._tally_chunk(scenario, range(40))
    peaks = []
    for reps in (250, 2000):
        tracemalloc.start()
        try:
            sim._tally_chunk(scenario, range(reps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.10 * peaks[0], peaks


def test_run_study_evaluates_section3_without_fallback(monkeypatch):
    calls = {"_risk_tables": 0, "run_replication": 0}
    for module, name in ((estim, "_risk_tables"), (sim, "run_replication")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    run_study(realize_scenario(section3_config(replications=40)), workers=1)
    assert calls == {"_risk_tables": 0, "run_replication": 0}


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and runs each submitted call in this process when its result is
    read."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        return _Deferred(fn, args)

    def shutdown(self, wait=True):
        pass


class _Deferred(Future):
    """A future whose call runs when its result is first read; one never
    read stays pending, so that it can be cancelled."""

    def __init__(self, fn, args):
        super().__init__()
        self.fn, self.args = fn, args

    def result(self, timeout=None):
        if not self.done():
            self.set_running_or_notify_cancel()
            try:
                self.set_result(self.fn(*self.args))
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


@pytest.fixture
def inline_shares(monkeypatch, fresh_pool):
    """Run run_study's pool in this process; return the list that records
    the shares tallied, the parent's first, and reset the pool sizes."""
    monkeypatch.setattr(sim, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes = []
    shares = []
    tally = sim._tally_chunk

    def recording(scenario, reps):
        shares.append(reps)
        return tally(scenario, reps)

    monkeypatch.setattr(sim, "_tally_chunk", recording)
    return shares


def _assert_shares(shares, reps, pool):
    # contiguous ranges, the parent's first, that cover every rep once: one
    # for the parent and one for each process of the pool, if one started
    assert _InlinePool.sizes == pool
    assert len(shares) == 1 + sum(pool)
    assert all(isinstance(share, range) and share.step == 1 for share in shares)
    assert [rep for share in shares for rep in share] == list(range(reps))
    if pool:
        assert min(len(share) for share in shares) >= sim._MIN_CHUNK


@pytest.mark.parametrize(
    "workers, cpus, pool",
    [
        (5000, 2, [1]), (3, 8, [2]), (64, 64, [3]), (2, 1, []), (2, None, []), (1, 8, []),
        (None, 8, [3]), (None, 3, [2]), (None, 1, []), (None, None, []),
    ],
)
def test_run_study_pool_is_capped_by_cpus_and_chunks(
    pool_scenario, monkeypatch, inline_shares, workers, cpus, pool
):
    # without an affinity set the CPU count is what the process may use;
    # workers counts the parent and defaults to the usable CPUs
    sequential = run_study(pool_scenario, workers=1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    inline_shares.clear()
    assert run_study(pool_scenario, workers=workers) == sequential
    _assert_shares(inline_shares, pool_scenario.config.replications, pool)


@pytest.mark.parametrize(
    "workers, affinity, pool", [(3, {0}, []), (64, {0, 2, 5}, [2]), (None, {0, 2, 5}, [2]), (None, {7}, [])]
)
def test_run_study_pool_is_capped_by_the_affinity_set(
    pool_scenario, monkeypatch, inline_shares, workers, affinity, pool
):
    # the machine has 64 CPUs, but the process may run on only a few of them
    sequential = run_study(pool_scenario, workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    inline_shares.clear()
    assert run_study(pool_scenario, workers=workers) == sequential
    _assert_shares(inline_shares, pool_scenario.config.replications, pool)


@pytest.mark.parametrize("reps, pool", [(2 * sim._MIN_CHUNK - 1, []), (2 * sim._MIN_CHUNK, [1]), (1, [])])
def test_run_study_starts_no_pool_below_two_minimum_shares(monkeypatch, inline_shares, reps, pool):
    scenario = realize_scenario(section3_config(n_total=20, membership="quota", replications=reps))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    run_study(scenario, workers=64)
    _assert_shares(inline_shares, reps, pool)


def _failing_draw(scenario, failing):
    """A stand-in for sim._draw_block that draws every trial as usual but
    overwrites the row of each rep in ``failing`` with arms that separate
    the event order, Rx longer for the first rep and shorter for the next,
    so that their Cox fits fail with different diagnostics."""
    n_rx = scenario.n_rx
    rows = {}
    for rep, rx_longer in zip(failing, (True, False)):
        low, high = np.arange(1.0, n_rx + 1.0), np.arange(n_rx + 1.0, 2.0 * n_rx + 1.0)
        rows[sim._trial_streams(scenario, [rep])["times", "Rx"][0]] = (
            np.concatenate([high, low]) if rx_longer else np.concatenate([low, high])
        )
    draw = sim._draw_block

    def stand_in(scenario, streams, time):
        g_idx = draw(scenario, streams, time)
        for row, state in zip(time, streams["times", "Rx"]):
            if state in rows:
                row[:] = rows[state]
        return g_idx

    return stand_in


@pytest.mark.parametrize("workers", [1, 2, None])
def test_a_failing_study_raises_its_first_failing_replication(monkeypatch, fresh_pool, workers):
    # rep 3 is the parent's and rep 180 another process's whenever the
    # study splits; either way the error is rep 3's, as a sequential run's
    scenario = realize_scenario(section3_config(membership="quota", n_total=20, replications=200))
    monkeypatch.setattr(sim, "_draw_block", _failing_draw(scenario, [3, 180]))
    with pytest.raises(NumericalError) as rep3:
        run_replication(scenario, 3)
    with pytest.raises(NumericalError) as rep180:
        run_replication(scenario, 180)
    assert rep3.value.diagnostics != rep180.value.diagnostics
    with pytest.raises(NumericalError) as study:
        run_study(scenario, workers=workers)
    assert str(study.value) == str(rep3.value)
    assert study.value.diagnostics == rep3.value.diagnostics


def test_a_failing_study_raises_its_first_failing_share(monkeypatch, inline_shares):
    # the parent's share succeeds and two pool shares fail: the earlier
    # share's error is raised, as a sequential run raises it
    config = section3_config(membership="quota", n_total=20, replications=4 * sim._MIN_CHUNK)
    scenario = realize_scenario(config)
    first, second = 2 * sim._MIN_CHUNK + 7, 3 * sim._MIN_CHUNK + 7
    monkeypatch.setattr(sim, "_draw_block", _failing_draw(scenario, [first, second]))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    with pytest.raises(NumericalError) as want:
        run_study(scenario, workers=1)
    inline_shares.clear()
    with pytest.raises(NumericalError) as got:
        run_study(scenario, workers=4)
    assert len(inline_shares) == 3  # the last share is never read
    assert got.value.diagnostics == want.value.diagnostics
    with pytest.raises(NumericalError) as rep:
        run_replication(scenario, first)
    assert want.value.diagnostics == rep.value.diagnostics


@pytest.mark.parametrize("workers", [0, -1])
def test_run_study_rejects_fewer_than_one_worker(small_scenario, monkeypatch, workers):
    monkeypatch.setattr(sim, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes = []
    with pytest.raises(DomainError, match="workers must be >= 1"):
        run_study(small_scenario, workers=workers)
    assert _InlinePool.sizes == []


# ------------------------------------------------------------ the warm pool
# Each test below starts at most two worker processes, whatever CPUs the
# host has. A worker runs this package as it was when its pool started, so
# a test that patches it for the workers starts its own pool (fresh_pool):
# test_a_failing_study_raises_its_first_failing_replication above and
# test_a_failed_parent_share_leaves_no_share_running below. So do the
# tests above that run on the stand-in pool (inline_shares) and the tests
# below that count worker processes.


def _allow_cpus(monkeypatch, cpus=(0, 1)):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def test_consecutive_studies_run_on_the_same_workers(pool_scenario, monkeypatch, fresh_pool):
    _allow_cpus(monkeypatch)
    sequential = run_study(pool_scenario, workers=1)
    assert _pool_pids() == set()
    assert run_study(pool_scenario, workers=2) == sequential
    workers = _pool_pids()
    assert len(workers) == 1
    assert run_study(pool_scenario) == sequential
    assert _pool_pids() == workers
    # a study that needs more processes replaces the pool, whose old worker
    # has exited by then; a later, smaller study keeps the larger pool
    _allow_cpus(monkeypatch, cpus=(0, 1, 2))
    assert run_study(pool_scenario, workers=3) == sequential
    larger = _pool_pids()
    assert len(larger) == 2 and not larger & workers
    assert run_study(pool_scenario, workers=2) == sequential
    assert _pool_pids() == larger


def test_a_study_in_another_thread_waits_to_replace_the_pool(pool_scenario, monkeypatch, fresh_pool):
    # thread a takes a one-process pool and pauses before submitting to it;
    # thread b's study needs two processes, so it replaces the pool, but
    # only once a has submitted its share, which then still completes
    _allow_cpus(monkeypatch, cpus=(0, 1, 2))
    sequential = run_study(pool_scenario, workers=1)
    taken, take = threading.Event(), sim._worker_pool

    def pausing(size):
        pool = take(size)
        if size == 1:
            taken.set()
            time.sleep(0.2)
        return pool

    monkeypatch.setattr(sim, "_worker_pool", pausing)
    reports = {}

    def study(name, workers):
        try:
            reports[name] = run_study(pool_scenario, workers=workers)
        except Exception as exc:
            reports[name] = exc

    a = threading.Thread(target=study, args=("a", 2))
    b = threading.Thread(target=study, args=("b", 3))
    a.start()
    assert taken.wait(timeout=60)
    b.start()
    for thread in (a, b):
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert reports == {"a": sequential, "b": sequential}
    assert len(_pool_pids()) == 2


def test_a_killed_worker_fails_one_study_and_the_next_starts_a_pool(
    pool_scenario, monkeypatch, fresh_pool
):
    _allow_cpus(monkeypatch)
    sequential = run_study(pool_scenario, workers=1)
    assert run_study(pool_scenario, workers=2) == sequential
    (killed,) = _pool_pids()
    os.kill(killed, signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        run_study(pool_scenario, workers=2)
    assert run_study(pool_scenario, workers=2) == sequential
    (started,) = _pool_pids()
    assert started != killed


def _in_forked_child(work, timeout=120.0):
    """Run ``work()`` in an ``os.fork()``ed child and return what it
    returned; fail the test with what it raised, or if it does not end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns to the test run
        try:
            os.close(read)
            try:
                outcome = (True, work())
            except Exception as exc:
                outcome = (False, repr(exc))
            with os.fdopen(write, "wb") as fh:
                fh.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish")
        time.sleep(0.01)
    with os.fdopen(read, "rb") as fh:
        ok, value = pickle.loads(fh.read())
    assert ok, value
    return value


def test_a_forked_child_runs_its_study_on_a_pool_of_its_own(pool_scenario, monkeypatch, fresh_pool):
    _allow_cpus(monkeypatch)
    sequential = run_study(pool_scenario, workers=1)
    assert run_study(pool_scenario, workers=2) == sequential
    workers = _pool_pids()

    def child_study():
        # the child inherits the parent's worker records, not its pool
        assert sim._warm == {}
        report = run_study(pool_scenario, workers=2)
        own = _pool_pids() - workers
        sim._shutdown_pool()
        return report, own

    report, own = _in_forked_child(child_study)
    assert report == sequential
    assert len(own) == 1 and not own & workers
    assert run_study(pool_scenario, workers=2) == sequential
    assert _pool_pids() == workers


def test_a_failed_parent_share_leaves_no_share_running(monkeypatch, fresh_pool, tmp_path):
    # the parent's share fails at rep 0 only once the worker's share has
    # started drawing, slowly: run_study returns when that share is done
    _allow_cpus(monkeypatch)
    scenario = realize_scenario(section3_config(membership="quota", n_total=20, replications=2 * sim._MIN_CHUNK))
    log = tmp_path / "worker-draws"
    parent, failing = os.getpid(), _failing_draw(scenario, [0])

    def draw(scenario, streams, rows):
        if os.getpid() == parent:
            deadline = time.monotonic() + 60.0
            while not log.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return failing(scenario, streams, rows)
        with open(log, "a") as fh:
            fh.write("begin\n")
        time.sleep(0.1)
        g_idx = failing(scenario, streams, rows)
        with open(log, "a") as fh:
            fh.write("end\n")
        return g_idx

    monkeypatch.setattr(sim, "_draw_block", draw)
    with pytest.raises(NumericalError):
        run_study(scenario, workers=2)
    # the worker's 50 replications are two groups of draws
    done = log.read_text()
    assert done == "begin\nend\n" * 2
    time.sleep(0.3)
    assert log.read_text() == done


def _python(code):
    """The standard output of ``code`` run by a new interpreter that
    imports this package; it must exit 0 within 120 s."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sim.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_worker_outlives_the_interpreter():
    code = """
import multiprocessing, os, dataclasses
from survquack import sim
from survquack.cli import parse_scenario_config
os.sched_getaffinity = lambda pid: {0, 1}
config = parse_scenario_config("builtin:section3")
scenario = sim.realize_scenario(dataclasses.replace(config, n_total=60, replications=200))
first, second = sim.run_study(scenario, workers=2), sim.run_study(scenario, workers=2)
assert first == second
print(*[process.pid for process in multiprocessing.active_children()])
"""
    (pid,) = [int(pid) for pid in _python(code).split()]
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_importing_the_package_again_frees_the_earlier_copy():
    # the fork hook holds the pool's dict only, not this module's globals
    code = """
import gc, importlib, sys, weakref
first = weakref.ref(importlib.import_module("survquack.sim").run_study)
for name in [name for name in sys.modules if name.split(".")[0] == "survquack"]:
    del sys.modules[name]
importlib.import_module("survquack.sim")
gc.collect()
print(first() is None)
"""
    assert _python(code).split() == ["True"]


def test_builtin_study_frozen_tallies(study_1k):
    report, _elapsed = study_1k
    assert report.replications == 1000
    assert report.alpha == 0.05
    assert report.rejections == 307
    assert report.rx_longer == 266
    assert report.c_longer == 41
    assert report.ties == 0  # continuous times: exact median ties have mass zero
    assert report.cox_rejections == 307
    assert report.rejections == report.rx_longer + report.c_longer + report.ties
    assert report.rejection_rate == 0.307
    assert report.rejection_ci == wilson_interval(307, 1000)


# ------------------------------------------------------------- wilson_interval

@pytest.mark.parametrize("k,n", [(0, 10), (10, 10), (3, 17), (307, 1000), (52, 100)])
def test_wilson_matches_scipy(k, n):
    lo, hi = wilson_interval(k, n)
    ref = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
    assert lo == pytest.approx(ref.low, abs=1e-12)
    assert hi == pytest.approx(ref.high, abs=1e-12)


def test_wilson_edges_and_validation():
    lo, hi = wilson_interval(0, 10)
    assert lo == pytest.approx(0.0, abs=1e-15)
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0
    with pytest.raises(DomainError):
        wilson_interval(1, 0)
    with pytest.raises(DomainError):
        wilson_interval(-1, 10)
    with pytest.raises(DomainError):
        wilson_interval(11, 10)
    with pytest.raises(DomainError):
        wilson_interval(5, 10, level=1.0)
