"""Scenario realization and the directional-error Monte Carlo machinery."""

import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from scipy.stats import binomtest

from survquack import (
    Claim,
    ScenarioConfig,
    SubgroupSpec,
    SurvivalSample,
    cox_fit_two_arm,
    decision_procedure,
    realize_scenario,
    run_study,
    tr_to_hr,
    wald_test_cox,
    weibull_from_median,
)
from survquack import _pool, rng, sim
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


def _pool_pids():
    return {process.pid for process in multiprocessing.active_children()}


# ------------------------------------------------------ builtin:section3

def test_builtin_scenario_config_fields():
    cfg = section3_config()
    assert cfg.n_total == 1000
    assert cfg.allocation == 0.5
    assert cfg.alpha == 0.05
    assert cfg.overall_median == 8.0
    assert [g.label for g in cfg.subgroups if g.is_open] == ["g-"]
    assert cfg.replications == 1000
    gp, gm = cfg.subgroups
    assert (gp.label, gp.prevalence, gp.shape) == ("g+", 0.5, 1.05)
    assert (gp.rx_median, gp.c_median) == (12.0, 6.0)
    assert (gm.label, gm.prevalence, gm.shape) == ("g-", 0.5, 1.2)
    assert gm.is_open and not gp.is_open


def _time_ratio(g):
    return g.rx.median / g.c.median


def _hazard_ratio(g):
    # both arms share the subgroup's shape
    return tr_to_hr(_time_ratio(g), g.rx.shape)


def test_realized_scenario_matches_bisection_oracle():
    sc = realize_scenario(section3_config())
    gp, gm = sc.subgroups
    assert gp.rx.median == pytest.approx(12.0, rel=1e-12)
    assert gp.c.median == pytest.approx(6.0, rel=1e-12)
    assert _time_ratio(gp) == pytest.approx(2.0, rel=1e-12)
    assert _hazard_ratio(gp) == tr_to_hr(2.0, 1.05)

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
    assert _time_ratio(gp) > 1.0 > _time_ratio(gm)
    assert _hazard_ratio(gm) > 1.0 > _hazard_ratio(gp)


@pytest.mark.parametrize("unit", [1e-10, 1e-8, 1e-6, 1e-3, 1e3, 1e6])
def test_scenario_in_another_time_unit_realizes_its_medians(unit):
    # the mixture median's bracket stops relative to its upper end, so the
    # realized arm medians hit the target to rounding in any time unit
    cfg = section3_config()
    subgroups = tuple(
        dataclasses.replace(g, rx_median=g.rx_median * unit, c_median=g.c_median * unit)
        if not g.is_open
        else g
        for g in cfg.subgroups
    )
    sc = realize_scenario(_replace(cfg, subgroups=subgroups, overall_median=8.0 * unit))
    for rx in (True, False):
        assert sc.arm_median(rx) == pytest.approx(8.0 * unit, rel=1e-15, abs=0)


# ------------------------------------------------------------ config validation

def _replace(cfg, **kw):
    return dataclasses.replace(cfg, **kw)

def test_config_validation_gates():
    cfg = section3_config()
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
    # sizes follow the seeds' integer rule: a bool, a float or a string is refused
    for field, value in (("n_total", 100.0), ("replications", 60.0), ("replications", True), ("n_total", "100")):
        with pytest.raises(DomainError, match=f"{field} must be an integer, got {value!r}"):
            realize_scenario(_replace(cfg, **{field: value}))


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
    two_open = _replace(cfg, subgroups=(dataclasses.replace(gp, rx_median=None, c_median=None), gm))
    with pytest.raises(DomainError, match=r"subgroups \['g\+', 'g-'\] lack medians; at most one can be solved"):
        realize_scenario(two_open)
    with pytest.raises(DomainError, match="subgroup 'g-' lacks medians but overall_median is unset"):
        realize_scenario(_replace(cfg, overall_median=None))
    none_open = _replace(cfg, subgroups=(gp, dataclasses.replace(gm, rx_median=8.0, c_median=8.0)))
    with pytest.raises(DomainError, match="overall_median is only honored with a subgroup that lacks medians"):
        realize_scenario(none_open)
    pinned_only = ScenarioConfig(
        subgroups=(SubgroupSpec("all", 1.0, 1.0, rx_median=8.0, c_median=8.0),),
        overall_median=8.0,
    )
    with pytest.raises(DomainError, match="overall_median is only honored"):
        realize_scenario(pinned_only)
    lone_open = ScenarioConfig(
        subgroups=(SubgroupSpec("g-", 1.0, 1.2),),
        overall_median=8.0,
    )
    with pytest.raises(DomainError, match="solving a subgroup requires at least one pinned subgroup"):
        realize_scenario(lone_open)


def test_open_subgroup_is_found_and_solved_to_the_bit():
    # the packaged config names no subgroup to solve; g- is found open, and
    # its scales are those of the config that named it, bit for bit
    gp, gm = realize_scenario(section3_config()).subgroups
    assert (gp.rx.scale, gp.c.scale) == (17.01280973535311, 8.506404867676554)
    assert (gm.rx.scale, gm.c.scale) == (7.9330603336157, 14.329010790988683)


def test_single_pinned_subgroup_needs_no_solving():
    cfg = ScenarioConfig(
        subgroups=(SubgroupSpec("all", 1.0, 1.0, rx_median=8.0, c_median=8.0),)
    )
    sc = realize_scenario(cfg)
    assert len(sc.subgroups) == 1
    assert _time_ratio(sc.subgroups[0]) == 1.0


def test_infeasible_equal_median_target():
    # the pinned subgroup alone already holds more than half the survival
    # mass at the target median, so no complement scale can work
    cfg = ScenarioConfig(
        subgroups=(
            SubgroupSpec("g+", 0.8, 1.0, rx_median=16.0, c_median=16.0),
            SubgroupSpec("g-", 0.2, 1.0),
        ),
        overall_median=8.0,
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


def test_a_zero_uniform_draws_a_finite_time(small_scenario, zero_first_state):
    # every stream's first two uniforms are 0.0: subjects 0 and 1 fall in
    # the first subgroup and are its first two Rx members, so both take the
    # time of the smallest normal uniform
    streams = {tail: [zero_first_state] for tail in [("membership",), ("times", "Rx"), ("times", "C")]}
    time = np.empty((1, small_scenario.config.n_total))
    g_idx = sim._draw_block(small_scenario, streams, time, np.random.Generator(np.random.PCG64(0)))
    assert np.isfinite(time).all() and g_idx[0, 0] == g_idx[0, 1] == 0
    want = small_scenario.subgroups[0].rx.inverse_cumhaz(-math.log(np.finfo(float).tiny))
    assert time[0, 0] == time[0, 1] == pytest.approx(want, rel=1e-12)


def test_simulate_sample_is_deterministic(small_scenario):
    a = simulate_sample(small_scenario, 3)
    b = simulate_sample(small_scenario, 3)
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.is_rx, b.is_rx)
    assert np.array_equal(a.strata["subgroup"], b.strata["subgroup"])
    c = simulate_sample(small_scenario, 4)
    assert not np.array_equal(a.time, c.time)


def _sample(scenario, time):
    """The complete trial whose times are ``time``, Rx subjects first."""
    return SurvivalSample(time, np.ones(time.size, bool), np.arange(time.size) < scenario.n_rx)


def _oracle_rows(scenario, reps):
    """Each trial's times, as the per-trial oracle draws them."""
    return [draw_trial(scenario, rep)[0] for rep in reps]


def _per_sample_tally(scenario, rows, alpha=None):
    """[no claims, Rx longer, C longer, ties, Cox rejections] of the trials
    whose times are ``rows``, each read on its own sample by the per-sample
    procedure at ``alpha`` (by default the config's)."""
    alpha = scenario.config.alpha if alpha is None else alpha
    counts = [0] * 5
    for time in rows:
        sample = _sample(scenario, time)
        outcome = decision_procedure(sample, alpha)
        hits = (
            outcome.claim is Claim.NO_CLAIM,
            outcome.claim is Claim.RX_LONGER_MEDIAN,
            outcome.claim is Claim.C_LONGER_MEDIAN,
            outcome.claim is Claim.TIE,
            wald_test_cox(sample)[1] < alpha,
        )
        counts = [count + bool(hit) for count, hit in zip(counts, hits)]
    return counts


def _at_alpha(scenario, alpha):
    """``scenario`` read at test level ``alpha``, which may exceed the 0.5
    that a config accepts."""
    return dataclasses.replace(scenario, config=dataclasses.replace(scenario.config, alpha=alpha))


def _recording_draws(monkeypatch):
    """Wrap the draw seam: the returned list receives a copy of each block
    the study draws, in order."""
    drawn, draw = [], sim._draw_block

    def recording(scenario, streams, time, gen):
        g_idx = draw(scenario, streams, time, gen)
        drawn.append(time.copy())
        return g_idx

    monkeypatch.setattr(sim, "_draw_block", recording)
    return drawn


def _assert_drawn_rows(drawn, rows):
    """The rows of the blocks ``drawn`` are ``rows``, bit for bit and in order."""
    got = [row for block in drawn for row in block]
    assert len(got) == len(rows)
    for row, want in zip(got, rows):
        np.testing.assert_array_equal(row.view(np.uint64), want.view(np.uint64))


def _counting(monkeypatch, name):
    """Count the study's calls of ``sim.<name>``: the returned list receives
    the arguments of each call."""
    calls, original = [], getattr(sim, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sim, name, counting)
    return calls


def _replacing_draw(scenario, rows):
    """A stand-in for sim._draw_block that draws every trial as usual, then
    writes ``rows[rep]`` over the row of each trial ``rep`` in ``rows``. A
    trial's row is known by its own times, so the stand-in works in any
    process and for any block size."""
    replace = {draw_trial(scenario, rep)[0].tobytes(): row for rep, row in rows.items()}
    draw = sim._draw_block

    def stand_in(scenario, streams, time, gen):
        g_idx = draw(scenario, streams, time, gen)
        for row in time:
            if row.tobytes() in replace:
                row[:] = replace[row.tobytes()]
        return g_idx

    return stand_in


def _separated_rows(scenario, reps):
    """Rows for the trials ``reps`` whose arms separate the event order, Rx
    longer for the first rep and shorter for the next, so that their Cox
    fits fail with different diagnostics."""
    n_rx = scenario.n_rx
    low, high = np.arange(1.0, n_rx + 1.0), np.arange(n_rx + 1.0, 2.0 * n_rx + 1.0)
    rows = (np.concatenate([high, low]), np.concatenate([low, high]))
    return dict(zip(reps, rows))


def test_tally_counts_a_rejection_whose_medians_tie(monkeypatch):
    # every trial: Rx's first nine deaths after C's, both 10th deaths at
    # 10.0 and Rx's last ten far later, so the log-rank test rejects while
    # the product-limit medians tie; the tied time sends each row to its
    # own sample
    scenario = realize_scenario(section3_config(n_total=40, replications=3))
    rx = np.concatenate([np.linspace(9.1, 9.9, 9), [10.0], np.arange(100.0, 110.0)])
    c = np.concatenate([np.arange(1.0, 10.0), [10.0], np.linspace(10.1, 10.9, 10)])

    def draw(scenario, streams, time, gen):
        time[:] = np.concatenate([rx, c])
        return np.zeros(time.shape, dtype=int)

    monkeypatch.setattr(sim, "_draw_block", draw)
    outcome = decision_procedure(SurvivalSample.from_arms(rx, c), 0.05)
    assert outcome.logrank.p_two_sided < 0.05 and outcome.claim is Claim.TIE
    assert list(sim._tally_chunk(scenario, range(3))) == [0, 0, 0, 3, 3]
    report = run_study(scenario, workers=1)
    assert (report.rejections, report.rx_longer, report.c_longer, report.ties) == (3, 0, 0, 3)


def test_run_study_worker_count_is_invisible(pool_scenario):
    seq = run_study(pool_scenario, workers=1)
    assert run_study(pool_scenario, workers=2) == seq
    assert run_study(pool_scenario) == seq
    assert seq.replications == 4 * sim._MIN_CHUNK + 30


# ------------------------------------------------------- the study's tally

@pytest.mark.parametrize(
    "config, reps",
    [
        (section3_config(), 40),
        (ScenarioConfig(subgroups=(SubgroupSpec("all", 1.0, 1.0, rx_median=8.0, c_median=8.0),)), 40),
        (section3_config(n_total=20), 64),
    ],
    ids=["section3", "criterion4-null", "section3-n20"],
)
def test_tally_matches_each_row_at_its_own_p_values(config, reps):
    # each trial's tally is its own sample's at the test levels a relative
    # 1e-12 either side of its log-rank and its Cox p-value: the study reads
    # both p-values, and the order of the medians, as the sample does
    scenario = realize_scenario(config)
    for rep, time in enumerate(_oracle_rows(scenario, range(reps))):
        sample = _sample(scenario, time)
        p_values = (decision_procedure(sample, 0.5).logrank.p_two_sided, wald_test_cox(sample)[1])
        for alpha in sorted({p * (1.0 + side * 1e-12) for p in p_values for side in (-1, 1)}):
            if 0.0 < alpha < 1.0:
                got = sim._tally_chunk(_at_alpha(scenario, alpha), [rep])
                assert list(got) == _per_sample_tally(scenario, [time], alpha), (rep, alpha)


def test_block_of_seed_153_keeps_the_fit_that_once_stalled(monkeypatch):
    # replication 3 of master seed 153 stalled under the old absolute-score
    # stop: its block reads every trial, none on its own sample, and its
    # Cox rejection is its sample's a relative 1e-12 either side of its p
    scenario = realize_scenario(section3_config(master_seed=153))
    rows = _oracle_rows(scenario, range(5))
    fallbacks = _counting(monkeypatch, "decision_procedure")
    p_cox = wald_test_cox(_sample(scenario, rows[3]))[1]
    for alpha in (scenario.config.alpha, p_cox * (1.0 - 1e-12), p_cox * (1.0 + 1e-12)):
        got = sim._tally_chunk(_at_alpha(scenario, alpha), range(5))
        assert list(got) == _per_sample_tally(scenario, rows, alpha), alpha
    assert fallbacks == []


def test_simulate_seed_153_tally(tmp_path):
    out = tmp_path / "r.json"
    argv = ["simulate", "builtin:section3", "--seed", "153", "--replications", "250", "--out", str(out)]
    assert main(argv) == 0
    study = json.loads(out.read_text())["sections"]["study"]["data"]
    assert (study["rejections"], study["rx_longer"], study["cox_rejections"]) == (65, 54, 65)


def test_tied_and_separated_rows_fall_back_to_their_own_samples(monkeypatch):
    # one drawn block holds regular rows, a row with a tied time and a row
    # whose arms separate the event order, so that its Cox fit fails. Each
    # irregular row is read on a sample of its own buffer row: no trial is
    # derived or drawn a second time
    scenario = realize_scenario(section3_config(n_total=20))
    tied = np.arange(1.0, 21.0)
    tied[3] = tied[12]
    separated = np.concatenate([np.arange(11.0, 21.0), np.arange(1.0, 11.0)])
    reps = range(sim._BLOCK + 3)
    rows = _oracle_rows(scenario, reps)
    rows[2] = tied

    def refuse(scenario, rep):
        raise AssertionError("a trial was drawn again")

    only_tied = _replacing_draw(scenario, {2: tied})
    with_separated = _replacing_draw(scenario, {2: tied, 5: separated})
    monkeypatch.setattr(sim, "simulate_sample", refuse)
    fallbacks = _counting(monkeypatch, "decision_procedure")
    monkeypatch.setattr(sim, "_draw_block", only_tied)
    drawn = _recording_draws(monkeypatch)
    assert list(sim._tally_chunk(scenario, reps)) == _per_sample_tally(scenario, rows)
    assert len(drawn) == math.ceil(len(reps) / sim._BLOCK)
    _assert_drawn_rows(drawn, rows)
    assert len(fallbacks) == 1
    np.testing.assert_array_equal(fallbacks[0][0].time, tied)

    with pytest.raises(NumericalError) as per_sample:
        cox_fit_two_arm(_sample(scenario, separated))
    monkeypatch.setattr(sim, "_draw_block", with_separated)
    fallbacks.clear()
    with pytest.raises(NumericalError) as tally:
        sim._tally_chunk(scenario, reps)
    assert str(tally.value) == str(per_sample.value)
    assert tally.value.diagnostics == per_sample.value.diagnostics
    assert [args[0].time.tolist() for args in fallbacks] == [tied.tolist(), separated.tolist()]


def test_run_study_blocks_are_invisible():
    # with two processes, each share ends its own partial block
    reps = 2 * sim._MIN_CHUNK + 37
    assert (reps // 2) % sim._BLOCK and (reps - reps // 2) % sim._BLOCK
    scenario = realize_scenario(section3_config(replications=reps))
    seq = run_study(scenario, workers=1)
    assert run_study(scenario, workers=2) == seq
    counts = (reps - seq.rejections, seq.rx_longer, seq.c_longer, seq.ties, seq.cox_rejections)
    assert list(counts) == _per_sample_tally(scenario, _oracle_rows(scenario, range(reps)))


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
    [section3_config(), section3_config(n_total=20), THREE_SUBGROUPS, section3_config(master_seed=5)],
    ids=["section3", "section3-n20", "three-subgroups", "section3-seed5"],
)
@pytest.mark.parametrize(
    "reps",
    [
        list(range(37)),  # the last block is not full
        list(range(2000))[5::40],  # reps that do not follow each other
        [0, 2**32, 1, 2**32 + 3, 2],  # one- and two-word reps in one block
    ],
    ids=["range37", "strided", "wide-reps"],
)
def test_tally_draws_match_the_per_trial_oracle(config, reps, monkeypatch):
    # the study draws each trial's row as the per-trial oracle does, bit for
    # bit and in order, and its tally is the per-sample one of those rows
    scenario = realize_scenario(config)
    drawn = _recording_draws(monkeypatch)
    tally = sim._tally_chunk(scenario, reps)
    rows = _oracle_rows(scenario, reps)
    _assert_drawn_rows(drawn, rows)
    assert list(tally) == _per_sample_tally(scenario, rows)
    sample = simulate_sample(scenario, reps[-1])
    want, g_idx = draw_trial(scenario, reps[-1])
    np.testing.assert_array_equal(sample.time.view(np.uint64), want.view(np.uint64))
    labels = np.array([g.label for g in scenario.subgroups])
    np.testing.assert_array_equal(sample.strata["subgroup"], labels[g_idx])


def _recording_derivations(monkeypatch):
    """The reps of each seed-stream derivation, in order: a derivation
    hashes the master seed's part of every stream once (``rng._seed_pool``)
    and then encodes each of its reps, an int, once."""
    derived, seed_pool, encode = [], rng._seed_pool, rng.encode_path_part

    def pooling(seed):
        derived.append([])
        return seed_pool(seed)

    def encoding(part):
        if isinstance(part, int) and derived:
            derived[-1].append(part)
        return encode(part)

    monkeypatch.setattr(rng, "_seed_pool", pooling)
    monkeypatch.setattr(rng, "encode_path_part", encoding)
    return derived


@pytest.mark.parametrize(
    "config",
    [section3_config(n_total=60)],
    ids=["stochastic"],
)
@pytest.mark.parametrize("reps", [range(300), range(0, 900, 3)], ids=["range300", "strided"])
def test_tally_draws_cross_the_stream_derivation_boundary(config, reps, monkeypatch):
    # seed streams are derived 256 replications at a time, every tail in one
    # derivation, and drawn sim._BLOCK rows at a time; the rows on both
    # sides of the boundary are each trial's own, and so is the tally
    assert sim._STREAM_ROWS == 256
    scenario = realize_scenario(config)
    drawn = _recording_draws(monkeypatch)
    derived = _recording_derivations(monkeypatch)
    tally = sim._tally_chunk(scenario, reps)
    assert derived == [list(reps[:256]), list(reps[256:])]
    rows = _oracle_rows(scenario, reps)
    _assert_drawn_rows(drawn, rows)
    assert list(tally) == _per_sample_tally(scenario, rows)


@pytest.fixture(scope="module")
def oracle_263():
    """A 263-replication scenario, its trials' oracle rows and their
    per-sample tally."""
    scenario = realize_scenario(section3_config(n_total=60, replications=263))
    rows = _oracle_rows(scenario, range(263))
    return scenario, rows, _per_sample_tally(scenario, rows)


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("stream_rows", [5, 256])
def test_tally_is_the_same_for_any_block_and_derivation_size(block, stream_rows, monkeypatch, oracle_263):
    # 263 replications: derived 5 at a time, each derivation ends in a
    # partial block of 2 (blocks of 3) or 5 (blocks of 8); derived 256 at a
    # time, blocks of 3 end partial on both sides of the boundary (256 and 7
    # rows) and blocks of 8 after it. The rows are the oracle's, in order,
    # and the tally is the per-sample one
    scenario, rows, want = oracle_263
    monkeypatch.setattr(sim, "_BLOCK", block)
    monkeypatch.setattr(sim, "_STREAM_ROWS", stream_rows)
    drawn = _recording_draws(monkeypatch)
    assert list(sim._tally_chunk(scenario, range(263))) == want
    _assert_drawn_rows(drawn, rows)


def test_tally_chunk_memory_does_not_grow_with_replications():
    # streams are derived sim._STREAM_ROWS replications at a time and drawn
    # sim._BLOCK rows at a time; a first short tally fills the caches a
    # study builds once
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


def test_run_study_evaluates_section3_without_fallback(monkeypatch, count_builds):
    # every section3 trial is read off its block: none builds a risk table
    # of its own or goes to the per-sample procedure
    fallbacks = _counting(monkeypatch, "decision_procedure")
    counts = count_builds()
    run_study(realize_scenario(section3_config(replications=40)), workers=1)
    assert (counts["_risk_tables"], len(fallbacks)) == (0, 0)


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
    monkeypatch.setattr(_pool, "ProcessPoolExecutor", _InlinePool)
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
    scenario = realize_scenario(section3_config(n_total=20, replications=reps))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    run_study(scenario, workers=64)
    _assert_shares(inline_shares, reps, pool)


@pytest.mark.parametrize("workers", [1, 2, None])
def test_a_failing_study_raises_its_first_failing_replication(monkeypatch, fresh_pool, workers):
    # rep 3 is the parent's and rep 180 another process's whenever the
    # study splits; either way the error is rep 3's, as a sequential run's
    scenario = realize_scenario(section3_config(n_total=20, replications=200))
    rows = _separated_rows(scenario, [3, 180])
    monkeypatch.setattr(sim, "_draw_block", _replacing_draw(scenario, rows))
    with pytest.raises(NumericalError) as rep3:
        cox_fit_two_arm(_sample(scenario, rows[3]))
    with pytest.raises(NumericalError) as rep180:
        cox_fit_two_arm(_sample(scenario, rows[180]))
    assert rep3.value.diagnostics != rep180.value.diagnostics
    with pytest.raises(NumericalError) as study:
        run_study(scenario, workers=workers)
    assert str(study.value) == str(rep3.value)
    assert study.value.diagnostics == rep3.value.diagnostics


def test_a_failing_study_raises_its_first_failing_share(monkeypatch, inline_shares):
    # the parent's share succeeds and two pool shares fail: the earlier
    # share's error is raised, as a sequential run raises it
    config = section3_config(n_total=20, replications=4 * sim._MIN_CHUNK)
    scenario = realize_scenario(config)
    first, second = 2 * sim._MIN_CHUNK + 7, 3 * sim._MIN_CHUNK + 7
    rows = _separated_rows(scenario, [first, second])
    monkeypatch.setattr(sim, "_draw_block", _replacing_draw(scenario, rows))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    with pytest.raises(NumericalError) as want:
        run_study(scenario, workers=1)
    inline_shares.clear()
    with pytest.raises(NumericalError) as got:
        run_study(scenario, workers=4)
    assert len(inline_shares) == 3  # the last share is never read
    assert got.value.diagnostics == want.value.diagnostics
    with pytest.raises(NumericalError) as rep:
        cox_fit_two_arm(_sample(scenario, rows[first]))
    assert want.value.diagnostics == rep.value.diagnostics


@pytest.mark.parametrize("workers", [0, -1])
def test_run_study_rejects_fewer_than_one_worker(small_scenario, monkeypatch, workers):
    monkeypatch.setattr(_pool, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes = []
    with pytest.raises(DomainError, match="workers must be >= 1"):
        run_study(small_scenario, workers=workers)
    assert _InlinePool.sizes == []


# ------------------------------------------------------------ the warm pool
# Each test below starts at most two worker processes, whatever CPUs the
# host has. A worker runs this package as it was when its pool started, so
# a test that patches it for the workers starts its own pool (fresh_pool),
# as test_a_failing_study_raises_its_first_failing_replication above does.
# So do the tests above that run on the stand-in pool (inline_shares) and
# the tests below that count worker processes. What the pool does for both
# simulate and pivot-ci is tested in test_pool.py.


def test_consecutive_studies_run_on_the_same_workers(pool_scenario, usable_cpus, fresh_pool):
    usable_cpus(2)
    sequential = run_study(pool_scenario, workers=1)
    assert _pool_pids() == set()
    assert run_study(pool_scenario, workers=2) == sequential
    workers = _pool_pids()
    assert len(workers) == 1
    assert run_study(pool_scenario) == sequential
    assert _pool_pids() == workers
    # a study that needs more processes replaces the pool, whose old worker
    # has exited by then; a later, smaller study keeps the larger pool
    usable_cpus(3)
    assert run_study(pool_scenario, workers=3) == sequential
    larger = _pool_pids()
    assert len(larger) == 2 and not larger & workers
    assert run_study(pool_scenario, workers=2) == sequential
    assert _pool_pids() == larger


def test_a_study_in_another_thread_waits_to_replace_the_pool(
    pool_scenario, monkeypatch, usable_cpus, fresh_pool
):
    # thread a takes a one-process pool and pauses before submitting to it;
    # thread b's study needs two processes, so it replaces the pool, but
    # only once a has submitted its share, which then still completes
    usable_cpus(3)
    sequential = run_study(pool_scenario, workers=1)
    taken, take = threading.Event(), _pool._worker_pool

    def pausing(size):
        pool = take(size)
        if size == 1:
            taken.set()
            time.sleep(0.2)
        return pool

    monkeypatch.setattr(_pool, "_worker_pool", pausing)
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


def _python(code):
    """The standard output of ``code`` run by a new interpreter that
    imports this package; it must exit 0 within 120 s."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sim.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_worker_outlives_the_interpreter():
    # two studies and a pivot run on the one worker of one pool
    code = """
import multiprocessing, os, dataclasses
from survquack import infer, sim
from survquack.cli import parse_scenario_config
os.sched_getaffinity = lambda pid: {0, 1}
config = parse_scenario_config("builtin:section3")
scenario = sim.realize_scenario(dataclasses.replace(config, n_total=60, replications=200))
first, second = sim.run_study(scenario, workers=2), sim.run_study(scenario, workers=2)
assert first == second
infer.mw_pivot_ci(range(1, 101), range(2, 102), seed=3)
print(*[process.pid for process in multiprocessing.active_children()])
"""
    (pid,) = [int(pid) for pid in _python(code).split()]
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_importing_the_package_again_frees_the_earlier_copy():
    # the fork hook holds the pool's dict only, not the pool module's globals
    code = """
import gc, importlib, sys, weakref
first = [weakref.ref(importlib.import_module("survquack.sim").run_study)]
first.append(weakref.ref(importlib.import_module("survquack._pool").run_shares))
for name in [name for name in sys.modules if name.split(".")[0] == "survquack"]:
    del sys.modules[name]
importlib.import_module("survquack.sim")
gc.collect()
print(*[ref() is None for ref in first])
"""
    assert _python(code).split() == ["True", "True"]


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


@pytest.mark.parametrize(
    "seed, tally",
    [
        (5, (601, 527, 74, 0, 600)),
        (99, (622, 520, 102, 0, 622)),
        (153, (587, 517, 70, 0, 586)),
        (8123, (641, 553, 88, 0, 641)),
    ],
)
def test_section3_tallies_at_2000_replications(seed, tally):
    # (rejections, Rx longer, C longer, ties, Cox rejections), the same
    # from one process or two
    scenario = realize_scenario(section3_config(master_seed=seed, replications=2000))
    for workers in (1, 2):
        report = run_study(scenario, workers=workers)
        counts = (report.rejections, report.rx_longer, report.c_longer, report.ties)
        assert (*counts, report.cox_rejections) == tally


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

