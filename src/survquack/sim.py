"""Monte Carlo study of the test-then-read-the-medians decision procedure.

A scenario is a two-arm trial whose event times come from a mixture of
Weibull subgroups. One subgroup's scales may be left open and solved so
that both arms share a prescribed overall median survival; the packaged
``builtin:section3`` config does exactly that, producing arms with
identical medians whose hazards still cross. Replications are driven by
counter-based seed derivation, so results do not depend on worker count
or execution order. A study draws them in blocks of stacked samples and
evaluates each block at once, with the arithmetic of the one-sample path.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .dist import (
    _TINY,
    MixtureCurve,
    WeibullDist,
    _check_prevalences,
    quantile,
    solve_complement_scale,
    weibull_from_median,
)
from .errors import DomainError, NumericalError
from .estim import (
    ARM_C,
    ARM_RX,
    SurvivalSample,
    _complete_median_rank,
    _complete_tables,
    _cox_rows,
    tr_to_hr,
)
from .infer import (
    Claim,
    DecisionOutcome,
    _decide,
    _logrank_result,
    _logrank_terms,
    _wald,
    decision_procedure,
    wald_test_cox,
)
from .rng import _pcg64_states, _usable_cpus, derive_rng

__all__ = [
    "DEFAULT_MASTER_SEED",
    "SubgroupSpec",
    "ScenarioConfig",
    "RealizedSubgroup",
    "RealizedScenario",
    "realize_scenario",
    "ReplicationResult",
    "run_replication",
    "DirectionalErrorReport",
    "run_study",
    "wilson_interval",
]

DEFAULT_MASTER_SEED = 210615


@dataclass(frozen=True)
class SubgroupSpec:
    """One latent subgroup: prevalence, Weibull shape, per-arm medians.

    Leave both medians unset for the subgroup whose scales should be
    solved from the overall-median constraint.
    """

    label: str
    prevalence: float
    shape: float
    rx_median: float | None = None
    c_median: float | None = None

    @property
    def is_open(self) -> bool:
        return self.rx_median is None and self.c_median is None

    def _arm_dist(self, rx: bool) -> WeibullDist:
        median = self.rx_median if rx else self.c_median
        if median is None:
            raise DomainError(f"subgroup {self.label!r} must pin each arm by its median")
        return weibull_from_median(self.shape, median)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a simulation study."""

    subgroups: tuple
    n_total: int = 1000
    allocation: float = 0.5
    alpha: float = 0.05
    overall_median: float | None = None
    solve_subgroup: str | None = None
    membership: str = "stochastic"
    replications: int = 1000
    master_seed: int = DEFAULT_MASTER_SEED


@dataclass(frozen=True)
class RealizedSubgroup:
    """A subgroup with both arms' Weibull laws pinned down."""

    label: str
    prevalence: float
    rx: WeibullDist
    c: WeibullDist

    @property
    def time_ratio(self) -> float:
        return self.rx.median / self.c.median

    @property
    def hazard_ratio(self) -> float:
        # both arms share the subgroup's shape, so the hazards are
        # proportional within the subgroup
        return tr_to_hr(self.time_ratio, self.rx.shape)


@dataclass(frozen=True)
class RealizedScenario:
    """Scenario with every distribution resolved, ready to simulate."""

    config: ScenarioConfig
    subgroups: tuple

    @property
    def n_rx(self) -> int:
        return int(round(self.config.allocation * self.config.n_total))

    def arm_mixture(self, rx: bool) -> MixtureCurve:
        return MixtureCurve(tuple((g.prevalence, g.rx if rx else g.c) for g in self.subgroups))

    def arm_median(self, rx: bool) -> float:
        return quantile(self.arm_mixture(rx), 0.5)

    @cached_property
    def _cum_prevalence(self) -> np.ndarray:
        # stochastic membership: a subject's uniform falls into one bin
        return np.cumsum([g.prevalence for g in self.subgroups])

    @property
    def _index_dtype(self) -> np.dtype:
        # the smallest unsigned type that holds a subgroup index; numpy's
        # stable sort orders such small integers by radix
        return np.min_scalar_type(len(self.subgroups) - 1)

    @cached_property
    def _quota_index(self) -> np.ndarray:
        # quota membership: the same subgroup index in every trial
        prev = np.array([g.prevalence for g in self.subgroups])
        n_rx, n_total = self.n_rx, self.config.n_total
        index = np.concatenate(
            [np.repeat(np.arange(prev.size), _quota_counts(prev, n)) for n in (n_rx, n_total - n_rx)]
        ).astype(self._index_dtype)
        index.flags.writeable = False
        return index


def _validate_config(config: ScenarioConfig):
    if config.membership not in ("stochastic", "quota"):
        raise DomainError(f"unknown membership rule {config.membership!r}")
    if config.n_total < 20:
        raise DomainError("n_total must be at least 20")
    if not (0.0 < config.allocation < 1.0):
        raise DomainError("allocation must lie strictly inside (0, 1)")
    n_rx = int(round(config.allocation * config.n_total))
    if n_rx < 1 or config.n_total - n_rx < 1:
        raise DomainError("allocation leaves an arm empty")
    if not (0.0 < config.alpha <= 0.5):
        raise DomainError("alpha must lie in (0, 0.5]")
    if config.replications < 1:
        raise DomainError("replications must be >= 1")
    if not config.subgroups:
        raise DomainError("a scenario needs at least one subgroup")
    labels = [g.label for g in config.subgroups]
    if len(set(labels)) != len(labels):
        raise DomainError("subgroup labels must be unique")
    _check_prevalences(g.prevalence for g in config.subgroups)
    for g in config.subgroups:
        if g.shape <= 0.0:
            raise DomainError(f"shape of {g.label!r} must be positive")
        if not g.is_open:
            g._arm_dist(True)
            g._arm_dist(False)


def realize_scenario(config: ScenarioConfig) -> RealizedScenario:
    """Resolve every subgroup's per-arm Weibull laws, solving the open one.

    With ``solve_subgroup`` set, that subgroup's per-arm scales are chosen
    in closed form so each arm's mixture has survival exactly 1/2 at
    ``overall_median``; an impossible target raises InfeasibleScenario.
    The realized arm medians are re-checked to one part in 10^6.
    """
    _validate_config(config)
    open_labels = [g.label for g in config.subgroups if g.is_open]
    if config.solve_subgroup is None:
        if open_labels:
            raise DomainError(f"subgroup(s) {open_labels} lack medians but solve_subgroup is unset")
        if config.overall_median is not None:
            raise DomainError("overall_median is only honored together with solve_subgroup")
    else:
        if config.overall_median is None:
            raise DomainError("solve_subgroup requires overall_median")
        if open_labels != [config.solve_subgroup]:
            raise DomainError(
                f"solve_subgroup={config.solve_subgroup!r} must name the one subgroup "
                f"without medians (found {open_labels})"
            )
        if len(config.subgroups) < 2:
            raise DomainError("solving a subgroup requires at least one pinned subgroup")

    pinned = {}
    for g in config.subgroups:
        if not g.is_open:
            pinned[g.label] = (g._arm_dist(True), g._arm_dist(False))

    solved = {}
    if config.solve_subgroup is not None:
        open_spec = next(g for g in config.subgroups if g.is_open)
        prev_plus = 1.0 - open_spec.prevalence
        for arm_idx in (0, 1):
            # conditional mixture of the pinned subgroups within this arm
            parts = tuple(
                (g.prevalence / prev_plus, pinned[g.label][arm_idx])
                for g in config.subgroups
                if not g.is_open
            )
            plus_curve = parts[0][1] if len(parts) == 1 else MixtureCurve(parts)
            scale = solve_complement_scale(
                open_spec.shape, config.overall_median, prev_plus, plus_curve
            )
            solved.setdefault(open_spec.label, []).append(WeibullDist(open_spec.shape, scale))

    rows = []
    for g in config.subgroups:
        rx, c = pinned[g.label] if g.label in pinned else tuple(solved[g.label])
        rows.append(RealizedSubgroup(g.label, g.prevalence, rx, c))
    realized = RealizedScenario(config, tuple(rows))

    if config.overall_median is not None:
        for rx in (True, False):
            med = realized.arm_median(rx)
            if abs(med - config.overall_median) > 1e-6 * config.overall_median:
                raise NumericalError(
                    "realized arm median missed the target",
                    arm=ARM_RX if rx else ARM_C,
                    realized=med,
                    target=config.overall_median,
                )
    return realized


@dataclass(frozen=True)
class ReplicationResult:
    """Outcome of one simulated trial."""

    rep: int
    outcome: DecisionOutcome
    cox_rejected: bool
    cox: tuple  # (log hazard ratio, standard error) of the two-arm Cox fit


def _quota_counts(prevalences, n):
    raw = prevalences * n
    base = np.floor(raw).astype(int)
    short = n - int(base.sum())
    if short:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


# replications whose seed streams are derived together, so that the
# derivation's fixed cost is paid once per this many; a multiple of _DRAW_ROWS
_STREAM_ROWS = 256
# replications drawn together; bounds the draw's working memory, a few
# arrays of this many rows
_DRAW_ROWS = 32


def _trial_streams(scenario: RealizedScenario, reps) -> dict:
    """``{tail: [(state, inc), ...]}``: the PCG64 state and increment of
    stream (master_seed, rep, *tail) for each rep in ``reps``, for each tail
    a trial's draw reads: membership (under stochastic membership only) and
    each arm's times. A single rep takes numpy's own derivation, which is
    cheaper for one stream per tail."""
    cfg = scenario.config
    tails = [("times", ARM_RX), ("times", ARM_C)]
    if cfg.membership == "stochastic":
        tails.append(("membership",))
    if len(reps) != 1:
        return _pcg64_states(cfg.master_seed, reps, tails)
    streams = {}
    for tail in tails:
        state = derive_rng(cfg.master_seed, reps[0], *tail).bit_generator.state["state"]
        streams[tail] = [(state["state"], state["inc"])]
    return streams


def _uniforms(gen, states, n):
    """Row i: the first ``n`` uniforms of the stream whose PCG64 (state,
    inc) is ``states[i]``, drawn by ``gen`` with its state set to each in
    turn."""
    u = np.empty((len(states), n))
    for row, (state, inc) in zip(u, states):
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.random(out=row)
    return u


def _draw_block(scenario: RealizedScenario, streams, time) -> np.ndarray:
    """Write the trial whose seed streams are row i of each tail's list in
    ``streams`` (as ``_trial_streams`` gives them) into row i of ``time``
    (Rx subjects first) and return each subject's subgroup index, row by
    row. Each row is fully determined by (master_seed, rep).

    Membership and event times use separate derived streams. Each arm's
    stream gives one uniform per subject, consumed subgroup by subgroup
    with members in subject order; each subgroup's Weibull law then maps
    its members' uniforms in every row at once, by ``sample_times``'
    inverse CDF. Under quota membership the index is the scenario's own
    read-only array, broadcast over the rows.
    """
    cfg = scenario.config
    n_total, n_rx = cfg.n_total, scenario.n_rx
    gen = np.random.Generator(np.random.PCG64(0))  # its state is set per stream

    if cfg.membership == "stochastic":
        u = _uniforms(gen, streams[("membership",)], n_total)
        # a uniform's bin is the number of inner bin edges at or below it:
        # searchsorted(side="right"), capped at the last bin
        g_idx = np.zeros(u.shape, dtype=scenario._index_dtype)
        for edge in scenario._cum_prevalence[:-1]:
            g_idx += u >= edge
    else:
        g_idx = np.broadcast_to(scenario._quota_index, time.shape)

    for arm_label, arm in ((ARM_RX, slice(0, n_rx)), (ARM_C, slice(n_rx, n_total))):
        arm_g = g_idx[:, arm]
        u = _uniforms(gen, streams["times", arm_label], arm_g.shape[1])
        # a row's k-th uniform goes to its k-th subject in subgroup order;
        # flat indices, row by row
        order = np.argsort(arm_g, axis=1, kind="stable")
        order += np.arange(0, u.size, u.shape[1])[:, None]
        cumhaz = np.empty(u.size)
        cumhaz[order.ravel()] = -np.log(np.maximum(u, _TINY)).ravel()
        arm_time = np.empty(u.size)
        for gi, row in enumerate(scenario.subgroups):
            members = np.flatnonzero(arm_g == gi)
            dist = row.rx if arm_label == ARM_RX else row.c
            arm_time[members] = dist.inverse_cumhaz(cumhaz[members])
        time[:, arm] = arm_time.reshape(u.shape)
    return g_idx


def simulate_sample(scenario: RealizedScenario, rep: int) -> SurvivalSample:
    """Draw one trial's data. Fully determined by (master_seed, rep)."""
    n_total = scenario.config.n_total
    time = np.empty((1, n_total))
    g_idx = _draw_block(scenario, _trial_streams(scenario, [rep]), time)
    labels = np.array([g.label for g in scenario.subgroups])
    is_rx = np.arange(n_total) < scenario.n_rx
    return SurvivalSample(time[0], np.ones(n_total, dtype=bool), is_rx, {"subgroup": labels[g_idx[0]]})


def run_replication(scenario: RealizedScenario, rep: int) -> ReplicationResult:
    """Simulate one trial and apply both read-outs."""
    sample = simulate_sample(scenario, rep)
    outcome = decision_procedure(sample, scenario.config.alpha)
    _, p_cox = wald_test_cox(sample)
    return ReplicationResult(rep, outcome, bool(p_cox < scenario.config.alpha), sample.cox)


def _evaluate_block(scenario: RealizedScenario, reps, time) -> list:
    """``run_replication``'s results for the trials ``reps``, whose times
    (from ``_draw_block``) fill the rows of ``time``.

    Every row is read off one block of risk tables, with the arithmetic of
    the per-sample path: the log-rank terms, both product-limit medians
    (each the same order statistic of its arm in every row) and a row-wise
    Cox fit. An irregular row (a tied time, or one that is not finite and
    positive) or a row whose Cox fit fails goes to ``run_replication`` on
    its own sample instead, which gives it the per-sample numbers and
    raises the same errors.
    """
    alpha, n_rx = scenario.config.alpha, scenario.n_rx
    rows, n_c = time.shape[0], time.shape[1] - n_rx
    tb, irregular = _complete_tables(time, n_rx)
    oe, variance = _logrank_terms(tb)
    beta, se, cox_code = _cox_rows(tb)
    in_rx = tb.events_rx > 0
    median_rx = tb.times[in_rx].reshape(rows, n_rx)[:, _complete_median_rank(n_rx)]
    median_c = tb.times[~in_rx].reshape(rows, n_c)[:, _complete_median_rank(n_c)]
    results = []
    for i, rep in enumerate(reps):
        if irregular[i] or cox_code[i]:
            results.append(run_replication(scenario, rep))
            continue
        outcome = _decide(
            _logrank_result(oe[i], variance[i]), alpha, float(median_rx[i]), float(median_c[i])
        )
        cox = (float(beta[i]), float(se[i]))
        results.append(ReplicationResult(rep, outcome, bool(_wald(*cox)[1] < alpha), cox))
    return results


# replications drawn into one (_BLOCK, n_total) buffer and evaluated together
_BLOCK = 8

# fewest replications a process is given. The worker pool stays warm
# across studies, but a one-shot CLI call starts it: on a 2-core host that
# first split adds about 13-15 ms (starting the worker, handing it its share
# and collecting the counts), while a builtin:section3 replication takes
# about 0.25 ms, so a study splits in two only from about 100 replications on
_MIN_CHUNK = 50

# counter layout for the mergeable per-chunk tallies
_N_REJECT, _N_RX, _N_C, _N_TIE, _N_COX = range(5)


def _draw_groups(scenario: RealizedScenario, reps):
    """Yield (group of reps, their rows of event times) for ``reps`` in
    groups of ``_DRAW_ROWS``, with seed streams derived ``_STREAM_ROWS``
    replications at a time. The rows share one buffer, so each group must
    be used before the next is drawn."""
    buffer = np.empty((min(_DRAW_ROWS, len(reps)), scenario.config.n_total))
    for start in range(0, len(reps), _STREAM_ROWS):
        derived = reps[start:start + _STREAM_ROWS]
        streams = _trial_streams(scenario, derived)
        for at in range(0, len(derived), _DRAW_ROWS):
            drawn = derived[at:at + _DRAW_ROWS]
            time = buffer[: len(drawn)]
            group = {tail: states[at:at + _DRAW_ROWS] for tail, states in streams.items()}
            _draw_block(scenario, group, time)
            yield drawn, time


def _tally_chunk(scenario: RealizedScenario, reps) -> np.ndarray:
    counts = np.zeros(5, dtype=np.int64)
    for drawn, time in _draw_groups(scenario, reps):
        results = []
        for at in range(0, len(drawn), _BLOCK):
            results += _evaluate_block(scenario, drawn[at:at + _BLOCK], time[at:at + _BLOCK])
        for res in results:
            if res.outcome.claim is not Claim.NO_CLAIM or res.outcome.tie:
                counts[_N_REJECT] += 1
            if res.outcome.claim is Claim.RX_LONGER_MEDIAN:
                counts[_N_RX] += 1
            elif res.outcome.claim is Claim.C_LONGER_MEDIAN:
                counts[_N_C] += 1
            elif res.outcome.tie:
                counts[_N_TIE] += 1
            if res.cox_rejected:
                counts[_N_COX] += 1
    return counts


def wilson_interval(successes: int, n: int, level: float = 0.95):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise DomainError("interval needs at least one trial")
    if not (0 <= successes <= n):
        raise DomainError("successes must lie in [0, n]")
    if not (0.0 < level < 1.0):
        raise DomainError("level must lie strictly inside (0, 1)")
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class DirectionalErrorReport:
    """Aggregated claim counts over a study's replications.

    A replication is counted as a rejection when the log-rank p-value
    falls below alpha; each rejection then lands in exactly one of the
    three claim buckets (treated-longer, control-longer, unreadable
    medians), so ``rejections == rx_longer + c_longer + ties`` always.
    Rates carry 95% Wilson intervals.
    """

    replications: int
    alpha: float
    master_seed: int
    rejections: int
    rx_longer: int
    c_longer: int
    ties: int
    cox_rejections: int

    def __post_init__(self):
        if self.rejections != self.rx_longer + self.c_longer + self.ties:
            raise NumericalError(
                "claim buckets do not add up to the rejection count",
                rejections=self.rejections,
                buckets=(self.rx_longer, self.c_longer, self.ties),
            )

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.replications

    @property
    def rx_longer_rate(self) -> float:
        return self.rx_longer / self.replications

    @property
    def c_longer_rate(self) -> float:
        return self.c_longer / self.replications

    @property
    def rejection_ci(self):
        return wilson_interval(self.rejections, self.replications)

    @property
    def rx_longer_ci(self):
        return wilson_interval(self.rx_longer, self.replications)

    @property
    def c_longer_ci(self):
        return wilson_interval(self.c_longer, self.replications)

    @property
    def cox_rejection_rate(self) -> float:
        return self.cox_rejections / self.replications


def _shares(reps: int, workers: int | None) -> list:
    """Contiguous ranges that split replications 0..reps-1 among the
    processes, the parent's first. ``workers`` counts the parent and
    defaults to the usable CPUs (``rng._usable_cpus``); it is capped by
    them and so that each share holds at least ``_MIN_CHUNK`` replications."""
    cpus = _usable_cpus()
    workers = min(workers or cpus, cpus, max(1, reps // _MIN_CHUNK))
    bounds = [reps * k // workers for k in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# The worker pool kept warm across studies, under "pool" as (executor,
# process count) once the first split starts it, and under "lock" the lock
# that makes taking the pool and submitting to it one step for each study.
# A forked child empties the dict: the pool is its parent's, and so is the
# lock if a parent thread held it. The fork hook is the dict's own builtin
# method, so it keeps no copy of this module alive when the package is
# imported again.
_warm = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_warm.clear)


def _shutdown_pool():
    """Shut the warm pool down, if there is one, and wait for its
    processes to exit."""
    pool, _ = _warm.pop("pool", (None, 0))
    if pool is not None:
        pool.shutdown()


def _worker_pool(size: int) -> ProcessPoolExecutor:
    """The warm pool, first started, or replaced by one of ``size``
    processes when it has fewer. Its workers run this module as it was
    when the pool started; interpreter exit shuts it down through
    ``concurrent.futures``' own exit hook. Call it holding the pool lock."""
    pool, pool_size = _warm.get("pool", (None, 0))
    if pool_size < size:
        _shutdown_pool()  # before the new pool forks
        pool = ProcessPoolExecutor(max_workers=size)
        _warm["pool"] = pool, size
    return pool


def _pool_lock() -> threading.Lock:
    # made on first use, by one atomic setdefault, in a forked child too
    return _warm.setdefault("lock", threading.Lock())


def run_study(scenario: RealizedScenario, workers: int | None = None) -> DirectionalErrorReport:
    """Run the config's replications and tally directional claims.

    Replication ``i`` always uses the stream derived from
    (master_seed, i), so the tally is bit-identical for any ``workers``
    value. The replications split into contiguous shares (``_shares``):
    the parent tallies the first while the warm worker pool
    (``_worker_pool``) tallies the rest, and the counts add. A failing
    study raises the error of its first failing replication, whatever the
    worker count, and leaves none of its shares running; a broken pool is
    dropped, and the next study that splits starts a new one.
    """
    if workers is not None and workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    reps = scenario.config.replications
    first, *rest = _shares(reps, workers)
    parts = []
    try:
        if rest:
            with _pool_lock():
                pool = _worker_pool(len(rest))
                parts = [pool.submit(_tally_chunk, scenario, share) for share in rest]
        counts = _tally_chunk(scenario, first)
        for part in parts:
            counts += part.result()
    except BrokenProcessPool:
        with _pool_lock():
            _shutdown_pool()
        raise
    finally:
        # a share not yet started is cancelled; the others are waited for
        wait([part for part in parts if not part.cancel()])
    return DirectionalErrorReport(
        replications=reps,
        alpha=scenario.config.alpha,
        master_seed=scenario.config.master_seed,
        rejections=int(counts[_N_REJECT]),
        rx_longer=int(counts[_N_RX]),
        c_longer=int(counts[_N_C]),
        ties=int(counts[_N_TIE]),
        cox_rejections=int(counts[_N_COX]),
    )
