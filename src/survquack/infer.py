"""Two-sample tests, the test-then-declare decision rule, and the
Mann-Whitney pivot confidence set for the survival-curve exponent."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NOT_REACHED, DomainError
from .estim import SurvivalSample, _pair_stats, cox_fit_two_arm, km_median
from .rng import derive_rng

__all__ = [
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


def logrank_test(sample: SurvivalSample) -> LogRankResult:
    """Two-arm log-rank test (unweighted, ties by the hypergeometric rule).

    Zero total variance (no informative event tables) is reported as
    p = 1 with ``zero_variance`` set instead of a division failure.
    """
    if not sample.is_rx.any() or sample.is_rx.all():
        raise DomainError("both arms must be present")
    if not sample.event.any():
        raise DomainError("at least one death is required")
    tb = sample.tables
    n = tb.at_risk.astype(float)
    n1 = tb.at_risk_rx.astype(float)
    d = tb.events.astype(float)
    frac = n1 / n
    oe = float((tb.events_rx - d * frac).sum())
    with np.errstate(invalid="ignore"):
        terms = np.where(n > 1.0, d * frac * (1.0 - frac) * (n - d) / np.maximum(n - 1.0, 1.0), 0.0)
    variance = float(terms.sum())
    if variance <= 0.0:
        return LogRankResult(oe, 0.0, 0.0, 1.0, zero_variance=True)
    z = oe / math.sqrt(variance)
    return LogRankResult(oe, variance, z, _two_sided_p(z))


def wald_test_cox(sample: SurvivalSample, strata_factor=None):
    """(z, p) for the treatment coefficient of the two-arm Cox fit."""
    log_hr, se = cox_fit_two_arm(sample, strata_factor=strata_factor)
    z = log_hr / se
    return z, _two_sided_p(z)


def _directional_claim(p, alpha, median_rx, median_c):
    if p >= alpha:
        return Claim.NO_CLAIM, False
    if median_rx is NOT_REACHED or median_c is NOT_REACHED:
        return Claim.NO_CLAIM, True
    if median_rx == median_c:
        return Claim.NO_CLAIM, True
    if median_rx > median_c:
        return Claim.RX_LONGER_MEDIAN, False
    return Claim.C_LONGER_MEDIAN, False


def decision_procedure(sample: SurvivalSample, alpha) -> DecisionOutcome:
    """Log-rank test at ``alpha``, then declare direction by comparing medians.

    The direction comes from the product-limit medians, not from the sign
    of the test statistic. Exact median ties and never-reached medians
    yield NO_CLAIM with the ``tie`` flag set.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    result = logrank_test(sample)
    median_rx = km_median(sample.km(True))
    median_c = km_median(sample.km(False))
    claim, tie = _directional_claim(result.p_two_sided, alpha, median_rx, median_c)
    return DecisionOutcome(claim, result.p_two_sided, median_rx, median_c, tie, result)


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


def _mc_workspace(n, m, mc_reps):
    """Buffers one acceptance region fills: reference draws, treated draws,
    sort keys and key positions."""
    return (
        np.empty((mc_reps, m)),
        np.empty((mc_reps, n)),
        np.empty((mc_reps, n + m), dtype=np.uint64),
        np.arange(n + m),
    )


def mw_acceptance_region(n, m, theta, level, mc_reps, rng, *, _workspace=None):
    """Equal-tailed null acceptance interval [lo, hi] for the pair count.

    The null at exponent ``theta`` is simulated on the survival-probability
    scale: reference subjects are plain uniforms, treated subjects are
    uniforms raised to 1/theta, and smaller transformed values mean longer
    lives. Cutoffs keep the boundary counts inside the region, so the
    acceptance probability is at least the nominal level up to Monte Carlo
    error, never below it by construction.

    ``_workspace`` (from ``_mc_workspace``) holds buffers refilled in place, shared
    across the grid points of one ``mw_pivot_ci`` call; it never changes the result.
    """
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0.0):
        raise DomainError("theta must be positive and finite")
    if _workspace is None:
        _workspace = _mc_workspace(n, m, mc_reps)
    a, b, keys, positions = _workspace
    rng.random(out=a)
    rng.random(out=b)
    np.maximum(b, np.finfo(float).tiny, out=b)
    np.power(b, 1.0 / theta, out=b)
    counts = _cross_counts(b, a, keys, positions)
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


def mw_pivot_ci(rx_times, c_times, level=0.95, grid=None, mc_reps=2000, seed=0) -> ConfidenceSet:
    """Invert the Mann-Whitney count over a grid of survival-curve exponents.

    For every grid exponent, a Monte Carlo null acceptance region for the
    pair count is built from a seed derived as (seed, "mw-pivot", index),
    so the result is deterministic and independent of evaluation order.
    Exponents whose region contains the observed count are accepted.

    Exponents above 1 mean the Rx arm dies faster, so data with Rx living
    much longer pushes the whole accepted hull below 1.
    """
    level = float(level)
    if not (0.0 < level < 1.0):
        raise DomainError("confidence level must lie strictly inside (0, 1)")
    mc_reps = int(mc_reps)
    if mc_reps < 2000:
        raise DomainError("mc_reps must be at least 2000")
    if grid is None:
        grid = np.geomspace(1.0 / 50.0, 50.0, 200)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise DomainError("grid must be a strictly increasing positive 1-d array")
    rx = np.asarray(rx_times, dtype=float)
    c = np.asarray(c_times, dtype=float)
    observed = mw_pair_count(rx, c)
    accepted = np.zeros(grid.size, dtype=bool)
    workspace = _mc_workspace(rx.size, c.size, mc_reps)
    for i, theta in enumerate(grid):
        rng = derive_rng(seed, "mw-pivot", i)
        lo_cnt, hi_cnt = mw_acceptance_region(
            rx.size, c.size, theta, level, mc_reps, rng, _workspace=workspace
        )
        accepted[i] = lo_cnt <= observed <= hi_cnt
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
        mc_reps=mc_reps,
        seed=int(seed),
        non_convex=non_convex,
        empty=empty,
    )
