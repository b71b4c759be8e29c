"""Two-sample tests, the test-then-declare decision rule, and the
Mann-Whitney pivot confidence set for the survival-curve exponent."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._pool import run_shares
from .dist import _TINY, _positive
from .errors import NOT_REACHED, DomainError
from .estim import ARM_C, ARM_RX, SurvivalSample, _pair_stats, km_median
from .rng import derive_rng

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
# fewest row blocks the pivot gives a process. Handing a share to the warm
# worker pool and collecting it costs 1-3 ms, and the two processes slow
# each other; on a 2-core host, 250 calls at n + m = 150 or 200 took 8-20%
# less time split in two, and 500 calls at n + m = 100 no less. With
# three blocks, MC_REPS rows split in two only from n + m = 150 on
_MIN_SHARE_BLOCKS = 3


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
    return _logrank_result(*sample._logrank)


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


def _cross_counts(theta, v, u, keys, positions, rows=None):
    """Per-row counts of pairs with theta[r] * v[r, j] <= u[r, i]; v and u
    are (rows, m)/(rows, n) and hold nonnegative values. ``rows`` picks the
    rows of v and u to count, in order (all of them by default), and theta
    holds one value per picked row.

    Nonnegative IEEE bit patterns order like the values, so each row sorts
    as integers with the lowest bit flagging the u side: on a tie the scaled
    v value sorts first and the pair counts. The u value at sorted position
    p has p - (number of u before it) scaled v values before it, so the
    row's count is the sum of the u positions minus n(n - 1)/2. ``keys`` is
    a uint64 buffer of m + n columns with at least one row per picked row;
    the picked rows are gathered straight into its first rows, whose
    contents are overwritten. ``positions`` is arange(m + n).
    """
    m = v.shape[1]
    n = u.shape[1]
    if rows is None:
        rows = np.arange(v.shape[0])
    keys = keys[:rows.size]
    one = np.uint64(1)
    scaled = keys[:, :m].view(np.float64)
    np.take(v, rows, axis=0, out=scaled)
    scaled *= theta[:, None]
    np.take(u.view(np.uint64), rows, axis=0, out=keys[:, m:])
    keys <<= one
    keys[:, m:] |= one
    keys.sort(axis=1)
    keys &= one
    return keys.view(np.int64) @ positions - n * (n - 1) // 2


def _block_rows(n, m):
    """Rows of one block of null draws: about ``_BLOCK_KEYS`` sort keys."""
    return max(1, _BLOCK_KEYS // (n + m))


def _null_blocks(n, m, mc_reps, rng, rows):
    """Yield (v, u, keys, positions) for successive row blocks of the null
    rows ``rows``, a range within 0..mc_reps-1: v = -log a over ``m``
    reference uniforms a and u = -log b over ``n`` treated uniforms b per
    row (each clamped at ``_TINY``), so that b ** (1 / theta) <= a reads
    theta * v <= u, with the block's key buffer for ``_cross_counts``.

    ``rng`` is a PCG64 generator (as ``derive_rng`` returns) and is not
    moved. Its stream holds all ``mc_reps * m`` reference uniforms, then
    all ``mc_reps * n`` treated ones, so row r's start at r * m and at
    mc_reps * m + r * n. Blocks hold about ``_BLOCK_KEYS`` sort keys; one
    block of buffers is refilled in place, so each block is consumed before
    the next is drawn.
    """
    size = min(len(rows), _block_rows(n, m))
    a, b = np.empty((size, m)), np.empty((size, n))
    keys = np.empty((size, n + m), dtype=np.uint64)
    positions = np.arange(n + m)
    # a copy of the stream advanced to the first row's reference uniforms,
    # and one advanced to its treated ones, each read in stream order
    streams = []
    for skip in (rows.start * m, mc_reps * m + rows.start * n):
        bits = np.random.PCG64(0)
        bits.state = rng.bit_generator.state
        bits.advance(skip)
        streams.append(np.random.Generator(bits))
    reference, treated = streams
    for start in range(rows.start, rows.stop, size):
        size = min(size, rows.stop - start)
        v, u = a[:size], b[:size]
        reference.random(out=v)
        treated.random(out=u)
        for x in (v, u):
            np.maximum(x, _TINY, out=x)
            np.log(x, out=x)
            np.negative(x, out=x)
        yield v, u, keys[:size], positions


def _null_cut(level, mc_reps, n, m):
    """Index k of the sorted null counts that bounds the region: the k-th
    smallest and the k-th largest count are its ends. Rejects a level
    outside (0, 1), and draws or arm sizes that are not whole numbers of at
    least 1."""
    if not 0.0 < level < 1.0:
        raise DomainError("confidence level must lie strictly inside (0, 1)")
    sizes = ((mc_reps, "mc_reps"), (n, f"{ARM_RX} arm size n"), (m, f"{ARM_C} arm size m"))
    for value, name in sizes:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise DomainError(f"{name} must be a whole number of at least 1, got {value!r}")
    return int(math.floor(0.5 * (1.0 - level) * mc_reps))


def mw_acceptance_region(n, m, theta, level, mc_reps, rng):
    """Equal-tailed null acceptance interval [lo, hi] for the pair count.

    The null at exponent ``theta`` is simulated on the survival-probability
    scale: reference subjects are plain uniforms a, treated subjects are
    uniforms b raised to 1/theta, and smaller transformed values mean longer
    lives. A pair counts when b ** (1 / theta) <= a, evaluated as
    theta * (-log a) <= -log b. Cutoffs keep the boundary counts inside the
    region, so the acceptance probability is at least the nominal level up
    to Monte Carlo error, never below it by construction.

    ``rng`` supplies the draws as ``_null_blocks`` describes and is left
    just past them.
    """
    theta = _positive(theta, "theta")
    k = _null_cut(float(level), mc_reps, n, m)
    n, m, mc_reps = int(n), int(m), int(mc_reps)  # PCG64.advance takes no numpy integer
    counts = np.empty(mc_reps, dtype=np.int64)
    start = 0
    for v, u, keys, positions in _null_blocks(n, m, mc_reps, rng, range(mc_reps)):
        rows = v.shape[0]
        counts[start:start + rows] = _cross_counts(np.full(rows, theta), v, u, keys, positions)
        start += rows
    rng.bit_generator.advance(mc_reps * (n + m))
    counts.sort()
    return float(counts[k]), float(counts[mc_reps - 1 - k])


def _log_odds(count, pairs):
    """log((pairs - count) / count), with the count held half a pair inside
    (0, pairs): under the null at exponent theta a pair counts with
    probability 1 / (1 + theta), so this estimates log theta."""
    count = np.clip(count, 0.5, pairs - 0.5)
    return np.log((pairs - count) / count)


def _first_at_most(grid, limit, v, u, keys, positions, lo=0):
    """Per row, the first grid index at or after ``lo`` (a scalar or one
    start per row) whose pair count is at most ``limit``, or grid.size if
    none is; and the row's count at that index (-1 at grid.size).

    A row's count never rises along the increasing grid (fl(theta * v) is
    monotone in theta), so each row keeps a bracket [lo, hi]: the count at
    lo - 1 exceeds the limit (or lo is the start) and the count at hi is at
    most it (or hi is grid.size). A probe anywhere inside narrows it to the
    same exact answer, so probes are aimed. A null pair counts with
    probability 1 / (1 + theta) (Lehmann 1953), so a row's log odds
    log((nm - count) / count) is log theta plus a small offset of its own:
    the first probe goes where the expected count is the limit, and each
    later one shifts the last probe's log theta by the row's own error
    there, taking the ceiling of that grid position, clipped into
    [lo, hi - 1]. A row whose bracket fails to halve twice in a row after
    its first probe bisects once, which bounds the passes on any grid. Each
    pass gathers and counts only the rows still open.
    """
    pairs = v.shape[1] * u.shape[1]
    log_grid = np.log(grid)
    goal = _log_odds(limit, pairs)
    first = np.zeros(v.shape[0], dtype=np.intp) + lo
    at = np.full(v.shape[0], -1, dtype=np.int64)
    rows = np.flatnonzero(first < grid.size)
    lo = first[rows]
    hi = np.full(rows.size, grid.size)
    aim = np.full(rows.size, np.searchsorted(log_grid, goal))
    # the first probe is aimed from the null model alone and is not
    # expected to halve the bracket; only later misses count
    misses = np.full(rows.size, -1)
    while rows.size:
        width = hi - lo
        probe = np.where(misses < 2, np.clip(aim, lo, hi - 1), (lo + hi) >> 1)
        counts = _cross_counts(grid[probe], v, u, keys, positions, rows)
        fits = counts <= limit
        hi = np.where(fits, probe, hi)
        lo = np.where(fits, lo, probe + 1)
        at[rows[fits]] = counts[fits]
        misses = np.where(2 * (hi - lo) > width, misses + 1, 0)
        aim = np.searchsorted(log_grid, log_grid[probe] + goal - _log_odds(counts, pairs))
        done = lo == hi
        first[rows[done]] = lo[done]
        open_ = ~done
        rows, lo, hi, aim, misses = rows[open_], lo[open_], hi[open_], aim[open_], misses[open_]
    return first, at


def _first_crossings(grid, observed, n, m, rng, rows):
    """first[0][i], first[1][i]: how many of the null rows ``rows`` (drawn
    as ``_null_blocks`` draws them from ``rng``) have a count that first
    falls to floor(observed), and below ceil(observed), at grid[i]
    (i = grid.size: nowhere on the grid)."""
    floor = math.floor(observed)
    first = np.zeros((2, grid.size + 1), dtype=np.int64)
    for v, u, keys, positions in _null_blocks(n, m, MC_REPS, rng, rows):
        index, count = _first_at_most(grid, floor, v, u, keys, positions)
        first[0] += np.bincount(index, minlength=grid.size + 1)
        if observed == floor:
            # a row falls below a whole count where it falls to it or below,
            # unless its count there equals the observed one
            tie = np.flatnonzero(count == floor)
            index[tie] = _first_at_most(
                grid, floor - 1, v[tie], u[tie], keys, positions, index[tie] + 1
            )[0]
        first[1] += np.bincount(index, minlength=grid.size + 1)
    return first


@dataclass(frozen=True)
class ConfidenceSet:
    """Grid-based confidence set for the survival-curve exponent.

    ``accepted`` flags the grid points the pivot keeps, which
    ``mw_pivot_ci`` always makes one run; (lo, hi) are its ends. ``empty``
    marks the fallback to the full grid range after nothing was accepted.
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
    empty: bool


def mw_pivot_ci(rx_times, c_times, level=0.95, grid=None, seed=0) -> ConfidenceSet:
    """Invert the Mann-Whitney count over a grid of survival-curve exponents.

    Every grid exponent's null acceptance region for the pair count is
    built from the same ``MC_REPS`` Monte Carlo draws, taken once from the
    stream (seed, "mw-pivot") as ``mw_acceptance_region`` takes them, so
    ``accepted[i]`` is exactly whether that function's region at grid[i]
    on a fresh copy of the stream contains the observed count. A row's
    count never rises along the grid, so an aimed search per row
    (``_first_at_most``) finds where it first falls to floor(observed) or
    below; for a whole observed count, only the rows whose count there
    equals it search on for where they fall below it. The regions' ends
    follow from how many rows have passed each point, and the accepted set
    is always one run of grid points. The rows split into contiguous
    shares among the usable CPUs (``_pool.run_shares``): the calling
    process searches the first while the warm worker pool searches the
    rest, and the shares' counts add, so the set does not depend on how
    many CPUs there are.

    Exponents above 1 mean the Rx arm dies faster, so data with Rx living
    much longer pushes the whole accepted hull below 1.
    """
    level = float(level)
    rx = np.asarray(rx_times, dtype=float)
    c = np.asarray(c_times, dtype=float)
    n, m = rx.size, c.size
    k = _null_cut(level, MC_REPS, n, m)
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
    observed = mw_pair_count(rx, c)
    args = (grid, observed, n, m, derive_rng(seed, "mw-pivot"))
    first = run_shares(_first_crossings, args, MC_REPS, _MIN_SHARE_BLOCKS * _block_rows(n, m))
    # rows counting at most floor(observed), and below ceil(observed), at each point
    at_most, below = first[:, :-1].cumsum(axis=1)
    # the region's low end is at most observed iff more than k rows count
    # at most floor(observed); its high end is at least observed iff more
    # than k rows count at least ceil(observed)
    accepted = (at_most > k) & (MC_REPS - below > k)
    idx = np.flatnonzero(accepted)
    if idx.size == 0:
        warnings.warn(
            "no grid exponent was accepted; reporting the widest grid interval",
            stacklevel=2,
        )
        lo, hi = float(grid[0]), float(grid[-1])
        empty = True
    else:
        lo, hi = float(grid[idx[0]]), float(grid[idx[-1]])
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
        empty=empty,
    )
