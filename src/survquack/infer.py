"""Two-sample tests, the test-then-declare decision rule, and the
Mann-Whitney pivot confidence set for the survival-curve exponent."""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import _TINY, _positive
from .errors import NOT_REACHED, DomainError
from .estim import SurvivalSample, _pair_stats, km_median
from .rng import _usable_cpus, derive_rng

__all__ = [
    "MC_REPS",
    "LogRankResult",
    "Claim",
    "DecisionOutcome",
    "ConfidenceSet",
    "logrank_test",
    "wald_test_cox",
    "decision_procedure",
    "mw_pair_count",
    "mw_acceptance_region",
    "mw_pivot_ci",
]

_SQRT2 = math.sqrt(2.0)
MC_REPS = 2000  # Monte Carlo draws per acceptance region of the pivot
_BLOCK_KEYS = 50_000  # sort keys per row block of an acceptance region (about 400 kB)


def _two_sided_p(z):
    return math.erfc(abs(z) / _SQRT2)


@dataclass(frozen=True)
class LogRankResult:
    """Unweighted log-rank statistic with its hypergeometric variance."""

    observed_minus_expected: float
    variance: float
    z: float
    p_two_sided: float
    zero_variance: bool = False


class Claim(Enum):
    """What the test-then-declare procedure announces."""

    NO_CLAIM = "NoClaim"
    RX_LONGER_MEDIAN = "RxLongerMedian"
    C_LONGER_MEDIAN = "CLongerMedian"


@dataclass(frozen=True)
class DecisionOutcome:
    """A claim plus the evidence it was based on.

    ``tie`` marks rejections that ended in NO_CLAIM because the medians
    tied exactly or one of them was never reached.
    """

    claim: Claim
    p_value: float
    median_rx: object
    median_c: object
    tie: bool
    logrank: LogRankResult | None = None


def _logrank_terms(tb):
    """(O - E, variance) of a risk table, summed over its last axis: one
    pair per row of a block of tables."""
    n = np.asarray(tb.at_risk, dtype=float)
    n1 = np.asarray(tb.at_risk_rx, dtype=float)
    d = np.asarray(tb.events, dtype=float)
    frac = n1 / n
    oe = (tb.events_rx - d * frac).sum(axis=-1)
    with np.errstate(invalid="ignore"):
        terms = np.where(n > 1.0, d * frac * (1.0 - frac) * (n - d) / np.maximum(n - 1.0, 1.0), 0.0)
    return oe, terms.sum(axis=-1)


def _logrank_result(oe, variance) -> LogRankResult:
    oe, variance = float(oe), float(variance)
    if variance <= 0.0:
        return LogRankResult(oe, 0.0, 0.0, 1.0, zero_variance=True)
    z = oe / math.sqrt(variance)
    return LogRankResult(oe, variance, z, _two_sided_p(z))


def logrank_test(sample: SurvivalSample) -> LogRankResult:
    """Two-arm log-rank test (unweighted, ties by the hypergeometric rule).

    Zero total variance (no informative event tables) is reported as
    p = 1 with ``zero_variance`` set instead of a division failure.
    """
    if not sample.is_rx.any() or sample.is_rx.all():
        raise DomainError("both arms must be present")
    if not sample.event.any():
        raise DomainError("at least one death is required")
    return _logrank_result(*_logrank_terms(sample.tables))


def _wald(log_hr, se):
    z = log_hr / se
    return z, _two_sided_p(z)


def wald_test_cox(sample: SurvivalSample):
    """(z, p) for the treatment coefficient of the sample's two-arm Cox fit."""
    return _wald(*sample.cox)


def _decide(logrank, alpha, median_rx, median_c) -> DecisionOutcome:
    p = logrank.p_two_sided
    if p >= alpha:
        claim, tie = Claim.NO_CLAIM, False
    elif median_rx is NOT_REACHED or median_c is NOT_REACHED or median_rx == median_c:
        claim, tie = Claim.NO_CLAIM, True
    elif median_rx > median_c:
        claim, tie = Claim.RX_LONGER_MEDIAN, False
    else:
        claim, tie = Claim.C_LONGER_MEDIAN, False
    return DecisionOutcome(claim, p, median_rx, median_c, tie, logrank)


def decision_procedure(sample: SurvivalSample, alpha) -> DecisionOutcome:
    """Log-rank test at ``alpha``, then declare direction by comparing medians.

    The direction comes from the product-limit medians, not from the sign
    of the test statistic. Exact median ties and never-reached medians
    yield NO_CLAIM with the ``tie`` flag set.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    return _decide(
        logrank_test(sample), alpha, km_median(sample.km(True)), km_median(sample.km(False))
    )


def mw_pair_count(rx_times, c_times) -> float:
    """Observed count of (Rx, C) pairs where Rx lives longer, ties counted half."""
    wins, ties, _, _ = _pair_stats(rx_times, c_times)
    return wins + 0.5 * ties


def _cross_counts(b, a, keys, positions):
    """Per-row counts of pairs with b[i] <= a[j]; b and a are (reps, n)/(reps, m).

    Both hold values in [0, 1], whose IEEE bit patterns order like the
    values, so each row sorts as integers with the lowest bit flagging the
    reference side: on a tie the b value sorts first and the pair counts.
    The a value at sorted position p has p - (number of a before it) b
    values before it, so the row's count is the sum of the a positions
    minus m(m - 1)/2. ``keys`` is a (reps, n + m) uint64 buffer whose
    contents are overwritten; ``positions`` is arange(n + m).
    """
    n = b.shape[1]
    m = a.shape[1]
    one = np.uint64(1)
    np.left_shift(b.view(np.uint64), one, out=keys[:, :n])
    np.left_shift(a.view(np.uint64), one, out=keys[:, n:])
    keys[:, n:] |= one
    keys.sort(axis=1)
    keys &= one
    return keys.view(np.int64) @ positions - m * (m - 1) // 2


def mw_acceptance_region(n, m, theta, level, mc_reps, rng):
    """Equal-tailed null acceptance interval [lo, hi] for the pair count.

    The null at exponent ``theta`` is simulated on the survival-probability
    scale: reference subjects are plain uniforms, treated subjects are
    uniforms raised to 1/theta, and smaller transformed values mean longer
    lives. Cutoffs keep the boundary counts inside the region, so the
    acceptance probability is at least the nominal level up to Monte Carlo
    error, never below it by construction.

    ``rng`` is a PCG64 generator (as ``derive_rng`` returns). It supplies
    all ``mc_reps * m`` reference uniforms, then all ``mc_reps * n`` treated
    ones, and is left just past them. The draws are filled and counted in
    row blocks of about ``_BLOCK_KEYS`` sort keys, one block of buffers
    refilled in place.
    """
    theta = _positive(theta, "theta")
    rows = min(mc_reps, max(1, _BLOCK_KEYS // (n + m)))
    a, b = np.empty((rows, m)), np.empty((rows, n))
    keys = np.empty((rows, n + m), dtype=np.uint64)
    positions = np.arange(n + m)
    # the treated uniforms come from a copy of the stream advanced past the
    # reference ones, so each block reads its rows of both in stream order
    bits = np.random.PCG64(0)
    bits.state = rng.bit_generator.state
    bits.advance(mc_reps * m)
    treated = np.random.Generator(bits)
    power = 1.0 / theta
    counts = np.empty(mc_reps, dtype=np.int64)
    for start in range(0, mc_reps, a.shape[0]):
        rows = min(a.shape[0], mc_reps - start)
        a_rows, b_rows = a[:rows], b[:rows]
        rng.random(out=a_rows)
        treated.random(out=b_rows)
        np.maximum(b_rows, _TINY, out=b_rows)
        np.power(b_rows, power, out=b_rows)
        counts[start:start + rows] = _cross_counts(b_rows, a_rows, keys[:rows], positions)
    rng.bit_generator.advance(mc_reps * n)
    counts.sort()
    k = int(math.floor(0.5 * (1.0 - level) * mc_reps))
    return float(counts[k]), float(counts[mc_reps - 1 - k])


@dataclass(frozen=True)
class ConfidenceSet:
    """Grid-based confidence set for the survival-curve exponent.

    ``accepted`` flags the grid points the pivot keeps; (lo, hi) is the
    convex hull of the accepted points. ``non_convex`` marks gaps inside
    the hull and ``empty`` marks the fallback to the full grid range after
    nothing was accepted.
    """

    grid: np.ndarray
    accepted: np.ndarray
    lo: float
    hi: float
    level: float
    observed_count: float
    n_rx: int
    n_c: int
    mc_reps: int
    seed: int
    non_convex: bool
    empty: bool


def mw_pivot_ci(rx_times, c_times, level=0.95, grid=None, seed=0) -> ConfidenceSet:
    """Invert the Mann-Whitney count over a grid of survival-curve exponents.

    For every grid exponent, a null acceptance region for the pair count is
    built from ``MC_REPS`` Monte Carlo draws seeded by (seed, "mw-pivot",
    index), so the result is deterministic and independent of evaluation
    order. Exponents whose region contains the observed count are accepted.
    The grid points are spread over one thread per usable CPU (at most one
    per point); the thread count never changes the result.

    Exponents above 1 mean the Rx arm dies faster, so data with Rx living
    much longer pushes the whole accepted hull below 1.
    """
    level = float(level)
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie strictly inside (0, 1)")
    if grid is None:
        grid = np.geomspace(1.0 / 50.0, 50.0, 200)
    else:
        grid = np.asarray(grid, dtype=float)
        if (
            grid.ndim != 1
            or grid.size == 0
            or not np.all(np.isfinite(grid))
            or np.any(grid <= 0.0)
            or np.any(np.diff(grid) <= 0.0)
        ):
            raise DomainError("grid must be a strictly increasing, positive and finite 1-d array")
    rx = np.asarray(rx_times, dtype=float)
    c = np.asarray(c_times, dtype=float)
    observed = mw_pair_count(rx, c)
    n, m = rx.size, c.size
    accepted = np.zeros(grid.size, dtype=bool)

    def accept(indices):
        for i in indices:
            rng = derive_rng(seed, "mw-pivot", i)
            lo_cnt, hi_cnt = mw_acceptance_region(n, m, grid[i], level, MC_REPS, rng)
            accepted[i] = lo_cnt <= observed <= hi_cnt

    threads = min(_usable_cpus(), grid.size)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(accept, [range(t, grid.size, threads) for t in range(threads)]))
    idx = np.flatnonzero(accepted)
    if idx.size == 0:
        warnings.warn(
            "no grid exponent was accepted; reporting the widest grid interval",
            stacklevel=2,
        )
        lo, hi = float(grid[0]), float(grid[-1])
        non_convex = False
        empty = True
    else:
        lo, hi = float(grid[idx[0]]), float(grid[idx[-1]])
        non_convex = bool(idx.size != idx[-1] - idx[0] + 1)
        empty = False
    return ConfidenceSet(
        grid=grid,
        accepted=accepted,
        lo=lo,
        hi=hi,
        level=level,
        observed_count=float(observed),
        n_rx=int(rx.size),
        n_c=int(c.size),
        mc_reps=MC_REPS,
        seed=int(seed),
        non_convex=non_convex,
        empty=empty,
    )
