"""Monte Carlo study of the test-then-read-the-medians decision procedure.

A scenario is a two-arm trial whose event times come from a mixture of
Weibull subgroups. One subgroup's scales may be left open and solved so
that both arms share a prescribed overall median survival; the packaged
``builtin:section3`` config does exactly that, producing arms with
identical medians whose hazards still cross. Replications are driven by
counter-based seed derivation, so results do not depend on worker count
or execution order. A study draws them in blocks of stacked samples and
tallies each block at once, with the arithmetic of the one-sample path; a
row that block arithmetic cannot read (a tied time, a failed Cox fit) is
read on a sample of its own row of the block, never drawn again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from ._pool import run_shares
from .dist import (
    MixtureCurve,
    WeibullDist,
    _arm_medians,
    _check_prevalences,
    _unit_exponentials,
    solve_complement_scale,
    weibull_from_median,
)
from .errors import DomainError, NumericalError
from .estim import (
    ARM_C,
    ARM_RX,
    Measure,
    SurvivalSample,
    _complete_median_rank,
    _complete_tables,
    _cox_rows,
    _logrank_terms,
)
from .infer import Claim, _claim, _logrank_result, _wald, decision_procedure, wald_test_cox
from .rng import _integer, _pcg64_states
from .sme import SubgroupRow, SubgroupTable

__all__ = [
    "DEFAULT_MASTER_SEED",
    "SubgroupSpec",
    "ScenarioConfig",
    "RealizedScenario",
    "realize_scenario",
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


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a simulation study. ``overall_median``
    is the shared arm median that the open subgroup, if any, is solved for.
    The fields but ``subgroups`` are a scenario config's keys (``_config``)."""

    subgroups: tuple
    n_total: int = 1000
    allocation: float = 0.5
    alpha: float = 0.05
    overall_median: float | None = None
    replications: int = 1000
    master_seed: int = DEFAULT_MASTER_SEED


@dataclass(frozen=True)
class RealizedScenario:
    """Scenario with every distribution resolved, ready to simulate: each
    subgroup is a ``SubgroupRow`` whose ingredients are its arms' Weibull laws."""

    config: ScenarioConfig
    subgroups: tuple

    @property
    def n_rx(self) -> int:
        return int(round(self.config.allocation * self.config.n_total))

    def arm_median(self, rx: bool) -> float:
        return self._medians[0 if rx else 1]

    @cached_property
    def _medians(self) -> tuple:
        # solved once per arm: realize_scenario checks both and the
        # simulate report prints both
        table = SubgroupTable(Measure.TR, self.subgroups)
        return _arm_medians(table.arm_mixture(True), table.arm_mixture(False))

    @cached_property
    def _cum_prevalence(self) -> np.ndarray:
        # a subject's membership uniform falls into one bin
        return np.cumsum([g.prevalence for g in self.subgroups])

    @property
    def _index_dtype(self) -> np.dtype:
        # the smallest unsigned type that holds a subgroup index; numpy's
        # stable sort orders such small integers by radix
        return np.min_scalar_type(len(self.subgroups) - 1)


def realize_scenario(config: ScenarioConfig) -> RealizedScenario:
    """Check ``config`` and resolve every subgroup's per-arm Weibull laws.

    A subgroup with neither median is open, and at most one may be. Its
    per-arm scales are chosen in closed form so each arm's mixture has
    survival exactly 1/2 at ``overall_median``, which a config sets exactly
    when it has an open subgroup and at least one pinned one; an impossible
    target raises InfeasibleScenario. The realized arm medians are
    re-checked to one part in 10^6.
    """
    if _integer(config.n_total, "n_total") < 20:
        raise DomainError("n_total must be at least 20")
    if not (0.0 < config.allocation < 1.0):
        raise DomainError("allocation must lie strictly inside (0, 1)")
    n_rx = int(round(config.allocation * config.n_total))
    if n_rx < 1 or config.n_total - n_rx < 1:
        raise DomainError("allocation leaves an arm empty")
    if not (0.0 < config.alpha <= 0.5):
        raise DomainError("alpha must lie in (0, 0.5]")
    if _integer(config.replications, "replications") < 1:
        raise DomainError("replications must be >= 1")
    if not config.subgroups:
        raise DomainError("a scenario needs at least one subgroup")
    if len({g.label for g in config.subgroups}) != len(config.subgroups):
        raise DomainError("subgroup labels must be unique")
    _check_prevalences(g.prevalence for g in config.subgroups)
    for g in config.subgroups:
        if g.shape <= 0.0:
            raise DomainError(f"shape of {g.label!r} must be positive")
        if (g.rx_median is None) != (g.c_median is None):
            raise DomainError(f"subgroup {g.label!r} must pin each arm by its median")
    pinned = [g for g in config.subgroups if not g.is_open]
    open_specs = [g for g in config.subgroups if g.is_open]
    laws = {g.label: tuple(weibull_from_median(g.shape, m) for m in (g.rx_median, g.c_median)) for g in pinned}

    if len(open_specs) > 1:
        raise DomainError(f"subgroups {[g.label for g in open_specs]} lack medians; at most one can be solved")
    if not open_specs:
        if config.overall_median is not None:
            raise DomainError("overall_median is only honored with a subgroup that lacks medians")
    elif config.overall_median is None:
        raise DomainError(f"subgroup {open_specs[0].label!r} lacks medians but overall_median is unset")
    elif not pinned:
        raise DomainError("solving a subgroup requires at least one pinned subgroup")
    else:
        (spec,) = open_specs
        prev_plus = 1.0 - spec.prevalence

        def solved(arm):
            # the pinned subgroups' conditional mixture in this arm; a lone one is its own law,
            # as a one-part mixture scales by a weight that may miss 1.0 in the last bit
            parts = tuple((g.prevalence / prev_plus, laws[g.label][arm]) for g in pinned)
            plus_curve = parts[0][1] if len(parts) == 1 else MixtureCurve(parts)
            scale = solve_complement_scale(spec.shape, config.overall_median, prev_plus, plus_curve)
            return WeibullDist(spec.shape, scale)

        laws[spec.label] = (solved(0), solved(1))

    realized = RealizedScenario(
        config, tuple(SubgroupRow(g.label, g.prevalence, *laws[g.label]) for g in config.subgroups)
    )
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


# the seed streams a trial's draw reads, as tails of (master_seed, rep):
# each arm's times, and membership
_TAILS = (("times", ARM_RX), ("times", ARM_C), ("membership",))


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


def _draw_block(scenario: RealizedScenario, streams, time, gen) -> np.ndarray:
    """Write the trial whose seed streams are row i of each tail's list in
    ``streams`` (as ``_pcg64_states`` gives them for ``_TAILS``) into row i
    of ``time`` (Rx subjects first) and return each subject's subgroup
    index, row by row. Each row is fully determined by (master_seed, rep):
    ``gen`` is any PCG64 generator, whose state is set to each stream in
    turn.

    Membership and event times use separate derived streams. Each arm's
    stream gives one uniform per subject, consumed subgroup by subgroup
    with members in subject order; each subgroup's Weibull law then maps
    its members' uniforms in every row at once, by ``sample_times``'
    inverse CDF.
    """
    n_total, n_rx = scenario.config.n_total, scenario.n_rx
    u = _uniforms(gen, streams[("membership",)], n_total)
    # a uniform's bin is the number of inner bin edges at or below it:
    # searchsorted(side="right"), capped at the last bin
    g_idx = np.zeros(u.shape, dtype=scenario._index_dtype)
    for edge in scenario._cum_prevalence[:-1]:
        g_idx += u >= edge

    for arm_label, arm in ((ARM_RX, slice(0, n_rx)), (ARM_C, slice(n_rx, n_total))):
        arm_g = g_idx[:, arm]
        u = _uniforms(gen, streams["times", arm_label], arm_g.shape[1])
        # a row's k-th uniform goes to its k-th subject in subgroup order;
        # flat indices, row by row
        order = np.argsort(arm_g, axis=1, kind="stable")
        order += np.arange(0, u.size, u.shape[1])[:, None]
        cumhaz = np.empty(u.size)
        cumhaz[order.ravel()] = _unit_exponentials(u).ravel()
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
    streams = _pcg64_states(scenario.config.master_seed, [rep], _TAILS)
    g_idx = _draw_block(scenario, streams, time, np.random.Generator(np.random.PCG64(0)))
    labels = np.array([g.label for g in scenario.subgroups])
    is_rx = np.arange(n_total) < scenario.n_rx
    return SurvivalSample(time[0], np.ones(n_total, dtype=bool), is_rx, {"subgroup": labels[g_idx[0]]})


# replications drawn into one (_BLOCK, n_total) buffer and tallied together
_BLOCK = 8
# replications whose seed streams are derived together, so that the
# derivation's fixed cost is paid once per this many
_STREAM_ROWS = 256

# fewest replications a process is given. The worker pool stays warm
# across studies, but a one-shot CLI call starts it: on a 2-core host that
# first split adds about 13-15 ms (starting the worker, handing it its share
# and collecting the counts), while a builtin:section3 replication takes
# about 0.25 ms, so a study splits in two only from about 100 replications on
_MIN_CHUNK = 50

# counter layout for the mergeable per-chunk tallies: a trial adds 1 to its
# claim's counter (NO_CLAIM's counts the trials that did not reject), and 1
# to _N_COX when its Cox test rejects
_N_NONE, _N_RX, _N_C, _N_TIE, _N_COX = range(5)
_COUNTER = {
    Claim.NO_CLAIM: _N_NONE, Claim.RX_LONGER_MEDIAN: _N_RX, Claim.C_LONGER_MEDIAN: _N_C, Claim.TIE: _N_TIE,
}


def _tally_block(scenario: RealizedScenario, time, counts):
    """Add to ``counts`` the trials whose times (from ``_draw_block``) fill
    the rows of ``time``.

    Every row is read off one block of risk tables, with the arithmetic of
    the per-sample path: the log-rank terms, both product-limit medians
    (each the same order statistic of its arm in every row), read by the
    decision rule's own claim helper, and a row-wise Cox fit. An irregular
    row (a tied time, or one that is not finite and positive) or a row
    whose Cox fit fails is evaluated instead on its own sample, built from
    its row, by ``decision_procedure`` and ``wald_test_cox``, which give it
    the per-sample numbers and raise the per-sample errors.
    """
    alpha, n_rx = scenario.config.alpha, scenario.n_rx
    rows, n_total = time.shape
    tb, irregular = _complete_tables(time, n_rx)
    oe, variance = _logrank_terms(tb)
    beta, se, cox_code = _cox_rows(tb, oe, variance)
    in_rx = tb.events_rx > 0
    median_rx = tb.times[in_rx].reshape(rows, n_rx)[:, _complete_median_rank(n_rx)]
    n_c = n_total - n_rx
    median_c = tb.times[~in_rx].reshape(rows, n_c)[:, _complete_median_rank(n_c)]
    columns = (irregular | (cox_code != 0), oe, variance, median_rx, median_c, beta, se)
    for i, (fallback, row_oe, row_v, m_rx, m_c, row_beta, row_se) in enumerate(
        zip(*(column.tolist() for column in columns))
    ):
        if fallback:
            sample = SurvivalSample(time[i].copy(), np.ones(n_total, bool), np.arange(n_total) < n_rx)
            claim = decision_procedure(sample, alpha).claim
            p_cox = wald_test_cox(sample)[1]
        else:
            claim = _claim(_logrank_result(row_oe, row_v).p_two_sided, alpha, m_rx, m_c)
            p_cox = _wald(row_beta, row_se)[1]
        counts[_COUNTER[claim]] += 1
        if p_cox < alpha:
            counts[_N_COX] += 1


def _tally_chunk(scenario: RealizedScenario, reps) -> np.ndarray:
    """The counts of trials ``reps``: their seed streams are derived
    ``_STREAM_ROWS`` replications at a time, and each ``_BLOCK`` of them is
    drawn into one buffer and tallied before the next is drawn."""
    counts = np.zeros(5, dtype=np.int64)
    buffer = np.empty((min(_BLOCK, len(reps)), scenario.config.n_total))
    gen = np.random.Generator(np.random.PCG64(0))  # made once: a new one costs 3% of a block's draw
    for start in range(0, len(reps), _STREAM_ROWS):
        derived = reps[start:start + _STREAM_ROWS]
        streams = _pcg64_states(scenario.config.master_seed, derived, _TAILS)
        for at in range(0, len(derived), _BLOCK):
            time = buffer[: min(_BLOCK, len(derived) - at)]
            group = {tail: states[at:at + _BLOCK] for tail, states in streams.items()}
            _draw_block(scenario, group, time, gen)
            _tally_block(scenario, time, counts)
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
    medians), whose sum is ``rejections``. Rates carry 95% Wilson
    intervals.
    """

    replications: int
    alpha: float
    rx_longer: int
    c_longer: int
    ties: int
    cox_rejections: int

    @property
    def rejections(self) -> int:
        return self.rx_longer + self.c_longer + self.ties

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


def run_study(scenario: RealizedScenario, workers: int | None = None) -> DirectionalErrorReport:
    """Run the config's replications and tally directional claims.

    Replication ``i`` always uses the stream derived from
    (master_seed, i), so the tally is bit-identical for any ``workers``
    value. The replications split into contiguous shares of at least
    ``_MIN_CHUNK`` (``_pool.run_shares``): the parent tallies the first
    while the warm worker pool tallies the rest, and the counts add.
    ``workers`` counts the parent and defaults to the usable CPUs. A
    failing study raises the error of its first failing replication,
    whatever the worker count, and leaves none of its shares running; a
    broken pool is dropped, and the next study that splits starts a new
    one.
    """
    if workers is not None and workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    reps = scenario.config.replications
    counts = run_shares(_tally_chunk, (scenario,), reps, _MIN_CHUNK, workers)
    return DirectionalErrorReport(
        replications=reps,
        alpha=scenario.config.alpha,
        rx_longer=int(counts[_N_RX]),
        c_longer=int(counts[_N_C]),
        ties=int(counts[_N_TIE]),
        cox_rejections=int(counts[_N_COX]),
    )
