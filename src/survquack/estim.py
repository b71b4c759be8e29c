"""Estimators over patient-level survival data.

Covers the product-limit curve, censored Weibull maximum likelihood, the
two-arm partial-likelihood fit, the pairwise probability of living longer,
and exact conversions between efficacy scales (hazard ratio, time ratio,
living-longer probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .dist import (
    ARM_C,
    ARM_RX,
    SurvivalCurve,
    WeibullDist,
    _arm_medians,
    _as_times,
    _match,
    _positive,
    quantile,
)
from .errors import DomainError, NotReachedError, NumericalError, UnsupportedCensoring

__all__ = [
    "Measure",
    "SurvivalSample",
    "KMCurve",
    "ARM_RX",
    "ARM_C",
    "km_fit",
    "km_median",
    "weibull_mle",
    "empirical_llp",
    "hr_from_llp",
    "llp_from_hr",
    "tr_to_hr",
    "hr_to_tr",
    "cox_fit_two_arm",
    "sample_tr",
]


class Measure(str, Enum):
    """Efficacy scales the package can summarize on."""

    RR = "RR"
    TR = "TR"
    HR = "HR"


@dataclass(frozen=True)
class SurvivalSample:
    """Patient-level records: time on study, death indicator, arm, strata labels.

    ``is_rx`` is True for the treated arm. ``strata`` maps factor names to
    per-subject label arrays; every factor covers every subject.

    The sample is sorted once: ``order`` is the stable order of its times,
    and the risk table (``tables``) is read off it. Each factor is
    factorized once (``factor``), and its level subsamples (``levels``) take
    their own orders from the sample's, so no level sorts again. The
    per-arm product-limit curves (``km``), the two-arm Cox fit (``cox``)
    and the per-arm Weibull fits (``weibull``, which read each arm's times
    and events alone) are built on first use.
    Everything is then shared by every estimate, so the arrays must not be
    mutated after construction.
    """

    time: np.ndarray
    event: np.ndarray
    is_rx: np.ndarray
    strata: dict = field(default_factory=dict)

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        event = np.asarray(self.event, dtype=bool)
        is_rx = np.asarray(self.is_rx, dtype=bool)
        if time.ndim != 1 or time.size == 0:
            raise DomainError("sample must hold a non-empty 1-d time array")
        if event.shape != time.shape or is_rx.shape != time.shape:
            raise DomainError("time, event and arm arrays must be aligned")
        _observed_times(time)
        strata = {}
        for name, labels in dict(self.strata).items():
            arr = np.asarray(labels)
            if arr.shape != time.shape:
                raise DomainError(f"stratum factor {name!r} does not cover every subject")
            strata[str(name)] = arr
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "is_rx", is_rx)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "_factors", {})
        object.__setattr__(self, "_levels", {})
        object.__setattr__(self, "_km", {})

    @property
    def n(self) -> int:
        return self.time.size

    def arm(self, rx: bool):
        """(times, events) of one arm."""
        m = self.is_rx if rx else ~self.is_rx
        return self.time[m], self.event[m]

    @cached_property
    def order(self) -> np.ndarray:
        """Stable order of the times (ties keep subject order): the sample's one sort."""
        return np.argsort(self.time, kind="stable")

    @cached_property
    def tables(self) -> "_RiskTables":
        """The risk table, built on first use and shared; callers must not modify it."""
        o = self.order
        return _risk_tables(self.time[o], self.event[o], self.is_rx[o])

    @cached_property
    def _logrank(self):
        """(O - E, variance) of the risk table, shared by the log-rank test and
        the Cox fit; both need two arms and a death."""
        if not self.is_rx.any() or self.is_rx.all():
            raise DomainError("both arms must be present")
        if not self.event.any():
            raise DomainError("at least one death is required")
        return _logrank_terms(self.tables)

    @cached_property
    def cox(self):
        """(log hazard ratio, standard error) of the two-arm Cox fit,
        computed on first use and shared; a failed fit is not kept."""
        return cox_fit_two_arm(self)

    @cached_property
    def weibull(self):
        """(Rx fit, C fit): the Weibull law of each arm, fitted to its times
        and events on first use and shared; a failed fit is not kept."""
        return tuple(weibull_mle(*self.arm(rx)) for rx in (True, False))

    def factor(self, name) -> tuple:
        """(level labels in sorted order, each subject's index among them) of
        one stratum factor, from one factorization on first use, then shared."""
        if name not in self.strata:
            raise DomainError(f"unknown stratum factor {name!r}")
        if name not in self._factors:
            labels, codes = np.unique(self.strata[name], return_inverse=True)
            self._factors[name] = (tuple(str(lv) for lv in labels), codes)
        return self._factors[name]

    def levels(self, factor) -> tuple:
        """((label, subsample), ...) in label order, built on first use and shared;
        a subsample holds only time, event and arm, and caches its own fits."""
        if factor not in self._levels:
            labels, codes = self.factor(factor)
            self._levels[factor] = tuple(
                (lv, self._subsample(codes == i)) for i, lv in enumerate(labels)
            )
        return self._levels[factor]

    def _subsample(self, mask):
        """The subjects in ``mask``, in their order here, with their stable
        order read off this sample's: the members of ``order`` in ``mask``,
        renumbered by their positions in the subsample."""
        sub = SurvivalSample(self.time[mask], self.event[mask], self.is_rx[mask])
        position = np.cumsum(mask) - 1
        object.__setattr__(sub, "order", position[self.order[mask[self.order]]])
        return sub

    def km(self, rx: bool) -> "KMCurve":
        """Product-limit curve of one arm, read off the shared risk table;
        built on first use and shared."""
        rx = bool(rx)
        if rx not in self._km:
            if not (self.is_rx == rx).any():
                raise DomainError(f"the {ARM_RX if rx else ARM_C} arm is empty")
            self._km[rx] = KMCurve(*self.tables.km(rx))
        return self._km[rx]

    @classmethod
    def from_arms(cls, rx_times, c_times, rx_events=None, c_events=None):
        rx_times = np.asarray(rx_times, dtype=float)
        c_times = np.asarray(c_times, dtype=float)
        rx_events = np.ones(rx_times.size, bool) if rx_events is None else np.asarray(rx_events, bool)
        c_events = np.ones(c_times.size, bool) if c_events is None else np.asarray(c_events, bool)
        time = np.concatenate([rx_times, c_times])
        event = np.concatenate([rx_events, c_events])
        is_rx = np.zeros(time.size, bool)
        is_rx[: rx_times.size] = True
        return cls(time, event, is_rx)


def _observed_times(times):
    """``times`` as a float array, refused unless each is finite and positive."""
    time = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(time)) or np.any(time <= 0.0):
        raise DomainError("observation times must be finite and > 0")
    return time


@dataclass(frozen=True)
class KMCurve(SurvivalCurve):
    """Right-continuous product-limit estimate.

    Rows cover the distinct event times only, in increasing order;
    ``survival_after[j]`` is the estimate just after ``times[j]``. When the
    largest observation is censored the curve plateaus above
    ``final_survival()``.
    """

    times: np.ndarray
    survival_after: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if np.any(times[1:] <= times[:-1]):
            raise DomainError("product-limit times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "survival_after", np.asarray(self.survival_after, dtype=float))

    def survival(self, t):
        if t is self.times:  # as ``quantile`` asks at ``jump_times()``: no search needed
            return self.survival_after
        return self.sides(t)[1]

    def sides(self, t):
        """(S(t-), S(t)) from one search: as the times are
        distinct, a t on a jump is the only one whose right value is one row on."""
        tt = _as_times(t)
        idx = np.searchsorted(self.times, tt, side="left")
        vals = np.concatenate(([1.0], self.survival_after))
        # the NaN past the last time equals no t
        on_jump = np.append(self.times, np.nan)[idx] == tt
        return _match(vals[idx], t), _match(vals[idx + on_jump], t)

    def final_survival(self):
        return float(self.survival_after[-1]) if self.survival_after.size else 1.0

    def jump_times(self):
        return self.times


@dataclass(frozen=True)
class _RiskTables:
    """Per-distinct-event-time counts behind the rank tests, product-limit curves and Cox fit."""

    times: np.ndarray
    events: np.ndarray       # d_j, total deaths at the time
    events_rx: np.ndarray    # deaths in the Rx arm
    at_risk: np.ndarray      # n_j, subjects still under observation
    at_risk_rx: np.ndarray

    def km(self, rx: bool):
        """(death times, survival just after each) of one arm's product-limit
        curve; its counts are those of the arm's own table, so the curve is too."""
        d = self.events_rx if rx else self.events - self.events_rx
        n = self.at_risk_rx if rx else self.at_risk - self.at_risk_rx
        keep = d > 0
        return self.times[keep], np.cumprod(1.0 - d[keep] / n[keep])


def _risk_tables(t, e, x) -> _RiskTables:
    """The risk table of times ``t`` in increasing order, with their death
    and Rx flags; a run of tied times starts wherever the time changes."""
    starts = np.empty(t.size, dtype=bool)
    starts[:1] = True
    np.not_equal(t[1:], t[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    uniq = t[first]
    leaving = np.diff(np.append(first, t.size))
    d = np.add.reduceat(e.astype(np.int64), first)
    d_rx = np.add.reduceat((e & x).astype(np.int64), first)
    leaving_rx = np.add.reduceat(x.astype(np.int64), first)
    at_risk = t.size - np.concatenate(([0], np.cumsum(leaving)[:-1]))
    at_risk_rx = int(x.sum()) - np.concatenate(([0], np.cumsum(leaving_rx)[:-1]))
    keep = d > 0
    return _RiskTables(uniq[keep], d[keep], d_rx[keep], at_risk[keep], at_risk_rx[keep])


def _complete_tables(times, n_rx):
    """Risk tables of complete samples stacked as the rows of ``times``,
    each with its Rx subjects in the first ``n_rx`` columns.

    A sample without tied times has one table entry per subject, so the
    tables share their shape and their ``events`` and ``at_risk``
    columns. Returns (block of tables, irregular): an irregular row holds
    a time that is not finite and positive, or a tied time, whose entries
    its own table would merge; its block table is not its own.

    Each row sorts once, as integers: positive IEEE bit patterns order like
    the values, so a key is a time's bits shifted left one with the Rx flag
    in the lowest bit, and the sorted keys give back both the times and the
    flags. The shift drops the sign bit, so only an irregular row's keys can
    sort out of value order.
    """
    one = np.uint64(1)
    keys = times.view(np.uint64) << one
    keys[:, :n_rx] |= one
    keys.sort(axis=1)
    x = (keys & one).astype(float)
    keys >>= one
    t = keys.view(np.float64)
    irregular = (
        ~(times > 0.0).all(axis=1) | (t[:, 1:] == t[:, :-1]).any(axis=1) | ~np.isfinite(t[:, -1])
    )
    # float counts, exact for any sample size, are what the formulas read
    at_risk_rx = np.cumsum(x, axis=1)
    at_risk_rx -= x
    np.subtract(n_rx, at_risk_rx, out=at_risk_rx)
    m = t.shape[1]
    tb = _RiskTables(t, np.ones(m), x, np.arange(m, 0.0, -1.0), at_risk_rx)
    return tb, irregular


@lru_cache(maxsize=None)
def _complete_median_rank(n):
    """0-based rank of the product-limit median among the sorted times of a
    complete sample of ``n`` without ties: its curve depends on n alone."""
    return int(km_median(km_fit(np.arange(1.0, n + 1.0), np.ones(n, bool)))) - 1


def km_fit(times, events) -> KMCurve:
    """Product-limit estimate from one group's times and death indicators:
    the curve of a sample whose every subject is in the Rx arm."""
    return SurvivalSample(times, events, np.ones(np.shape(times), bool)).km(True)


def km_median(curve: KMCurve):
    """Smallest event time where the estimate is <= 1/2 (``quantile(curve, 0.5)``), else None."""
    try:
        return quantile(curve, 0.5)
    except NotReachedError:
        return None


def weibull_mle(times, events) -> WeibullDist:
    """Censored Weibull fit by the root of the shape's profile score.

    For a fixed shape k the scale solves lam^k = sum(t^k) / d in closed form.
    With v = log t less the mean log death time, the profile score
    1/k - sum(t^k v) / sum(t^k) falls strictly from +inf to a negative limit
    when two death times differ (Cohen 1965), so its one root is found by
    Newton steps in log k that bisect whenever a step would leave the sign
    bracket or fail to halve the step before last. The powers are taken on
    log t - max log t, so none overflows.

    Parameters
    ----------
    times, events : aligned arrays; events flags deaths (False = censored).
    """
    one_arm = SurvivalSample(times, events, np.ones(np.shape(times), bool))
    t, e = one_arm.time, one_arm.event
    d = int(e.sum())
    if d < 2:
        raise DomainError("weibull_mle needs at least two deaths")

    logt = np.log(t)
    # times whose logs round equal are one time to the fit
    if logt[e].min() == logt[e].max():
        raise NumericalError(
            "degenerate sample: fewer than two distinct event times", n_events=d
        )

    top = float(logt.max())
    u = logt - top
    gap = -float(u[e].mean())  # top less the mean log death time, > 0
    v = u + gap
    # With n_top times at the top, the score is 1/k - gap - m(k), where m(k),
    # the mean of u under the weights exp(k u), lies in (-(n - n_top)/(e k
    # n_top), 0) as u exp(k u) >= -1/(e k). So the score is positive at
    # k = 1/gap and negative past 1 + (n - n_top)/(e n_top) times that.
    n_top = int(np.count_nonzero(u == 0.0))
    lo = -math.log(gap)
    hi = lo + math.log1p((u.size - n_top) / (math.e * n_top))
    a = lo
    step = prev = hi - lo
    # Every bisection halves the bracket and every Newton step at least
    # halves the step before last, so the steps in log k fall below the
    # tolerance.
    while abs(step) > 1e-14:
        k = math.exp(a)
        w = np.exp(k * u)
        sum_w = float(w.sum())
        wv = w * v
        mean_v = float(wv.sum()) / sum_w
        score = 1.0 / k - mean_v
        if score > 0.0:
            lo = a
        else:
            hi = a
        newton = score / (1.0 / k + k * (float((wv * v).sum()) / sum_w - mean_v * mean_v))
        prev, step = step, (
            newton if lo <= a + newton <= hi and 2.0 * abs(newton) < abs(prev) else 0.5 * (lo + hi) - a
        )
        a += step

    k = math.exp(a)
    b = top + math.log(float(np.exp(k * u).sum()) / d) / k
    try:
        scale = math.exp(b)
    except OverflowError:
        raise NumericalError(
            "fitted Weibull scale exceeds the largest double", shape=k, log_scale=b
        ) from None
    return WeibullDist(k, scale)


def _pair_stats(rx_times, c_times):
    rx, c = _observed_times(rx_times), _observed_times(c_times)
    if rx.size == 0 or c.size == 0:
        raise DomainError("both groups must be non-empty")
    cs = np.sort(c)
    below = np.searchsorted(cs, rx, side="left")
    at_or_below = np.searchsorted(cs, rx, side="right")
    wins = float(below.sum(dtype=np.int64))
    ties = float((at_or_below - below).sum(dtype=np.int64))
    return wins, ties, rx.size, c.size


def empirical_llp(rx_times, c_times, rx_events=None, c_events=None) -> float:
    """Fraction of (Rx, C) pairs where the Rx subject lives longer, ties half.

    Censored observations make pairwise comparisons undefined, so any
    False event flag raises UnsupportedCensoring.
    """
    for flags in (rx_events, c_events):
        if flags is not None and not np.all(np.asarray(flags, dtype=bool)):
            raise UnsupportedCensoring("the pairwise win fraction needs complete observations")
    wins, ties, n, m = _pair_stats(rx_times, c_times)
    return (wins + 0.5 * ties) / (n * m)


def hr_from_llp(llp) -> float:
    """Hazard ratio implied by a living-longer probability: (1-llp)/llp."""
    llp = float(llp)
    if not (0.0 < llp < 1.0):
        raise DomainError(f"llp must lie strictly inside (0, 1), got {llp!r}")
    return (1.0 - llp) / llp


def llp_from_hr(hr) -> float:
    """Living-longer probability implied by a hazard ratio: 1/(1+hr)."""
    return 1.0 / (1.0 + _positive(hr, "hr"))


def tr_to_hr(tr, shape) -> float:
    """Weibull bridge from a time ratio to its hazard ratio: tr ** -shape."""
    return _positive(tr, "tr") ** -_positive(shape, "shape")


def hr_to_tr(hr, shape) -> float:
    """Weibull bridge from a hazard ratio to its time ratio: hr ** (-1/shape)."""
    return _positive(hr, "hr") ** (-1.0 / _positive(shape, "shape"))


def _exp(beta):
    # math.exp of each row's beta, as a column against the rows of a block:
    # np.exp can differ from it in the last bit
    return np.array([math.exp(b) for b in beta.tolist()])[:, None]


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


def _cox_counts(tb):
    """(d_rx, d, n0, n1) of a risk table as float rows: deaths in Rx, all
    deaths, and the numbers at risk in C and in Rx. A block of tables (one
    per row, as built by _complete_tables) keeps its rows; a single table
    becomes a one-row block."""
    return tuple(
        np.atleast_2d(np.asarray(c, dtype=float))
        for c in (tb.events_rx, tb.events, tb.at_risk - tb.at_risk_rx, tb.at_risk_rx)
    )


# The partial-likelihood terms below sum over each row of a block of tables,
# with one beta per row.


def _cox_score_limits(counts):
    """The score's limits as beta goes to -inf and to +inf."""
    d_rx, d, n0, n1 = counts
    return (d_rx - d * (n0 == 0.0)).sum(axis=-1), (d_rx - d * (n1 > 0.0)).sum(axis=-1)


def _cox_terms(d_n1, n0, n1, beta):
    """(d p, 1 - p) at each time, with d_n1 = d n1 and p = n1 exp(beta) /
    (n0 + n1 exp(beta)) the Rx share of the risk set: the score sums
    d_rx - d p and the information d p (1 - p), neither squaring the set."""
    eb = _exp(beta)
    denom = n0 + n1 * eb
    return d_n1 * eb / denom, n0 / denom


_MONOTONE = "monotone partial likelihood: the arms separate the event order"
# Messages of the failure codes of _cox_rows; code 0 is a fit.
_COX_FAILURES = (
    None,
    _MONOTONE,  # the score's limits do not bracket zero
    "partial-likelihood score overflow",
    "partial likelihood has no curvature",
    "no information about the treatment coefficient",
)
_LIMITS, _OVERFLOW, _FLAT, _NO_INFO = range(1, 5)
# math.exp overflows just past 709.78, so a root farther out is an overflow
_BETA_MAX = 709.0


def _cox_rows(tb, oe, variance):
    """Breslow partial-likelihood fits of the treatment coefficient, one per
    row of a block of risk tables (or of a single table, as one row), from
    each row's log-rank (O - E, variance) as ``_logrank_terms`` gives them.

    A row starts from (O - E)/V clipped to +-2, which on a table without
    ties is the first Newton step from 0. The score falls strictly in beta,
    so a row keeps the bracket its scores' signs give, and takes a Newton
    step when it stays inside and at least halves the step before last;
    otherwise it bisects, or toward a side still open steps by a cap that
    then doubles. No row's numbers depend on another's. Returns (beta, se,
    code): ``code`` is 0 where the fit succeeded and otherwise indexes
    ``_COX_FAILURES``; se means nothing on a failed row, and beta is where
    its fit stopped.
    """
    counts = _cox_counts(tb)
    d_rx, d, n0, n1 = counts
    d_n1 = d * n1
    # without a sign change between the score's limits there is no root
    score_lo, score_hi = _cox_score_limits(counts)
    code = np.where((score_lo <= 0.0) | (score_hi >= 0.0), _LIMITS, 0).astype(np.int8)
    # each fitting row's bracket, its cap toward an open side and its last step
    rows = {i: (-math.inf, math.inf, 2.0, math.inf) for i in np.flatnonzero(code == 0).tolist()}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta = np.clip(np.where(variance > 0.0, oe / variance, 0.0), -2.0, 2.0).reshape(code.shape)
        # Every row stops: about ten cap steps carry it past +-_BETA_MAX,
        # every bisection halves its bracket, and every Newton step at
        # least halves the step before last. A block has few rows, so each
        # is stepped as Python floats: numpy's per-call cost would dominate.
        while rows:
            dp, q = _cox_terms(d_n1, n0, n1, beta)
            scores, infos = (d_rx - dp).sum(axis=-1).tolist(), (dp * q).sum(axis=-1).tolist()
            for i, (lo, hi, cap, step) in list(rows.items()):
                b, score, info = float(beta[i]), scores[i], infos[i]
                lo, hi, end = (b, hi, hi) if score > 0.0 else (lo, b, lo)
                opened = math.isinf(end)  # no score has closed the root's side yet
                if not math.isfinite(score) or opened and abs(b) >= _BETA_MAX:
                    code[i] = _OVERFLOW
                elif not info > 0.0:
                    code[i] = _FLAT
                else:
                    if opened:
                        end = min(max(b + math.copysign(cap, score), -_BETA_MAX), _BETA_MAX)
                    newton = score / info
                    if 2.0 * abs(newton) < abs(step) and (b + newton - end) * score <= 0.0:
                        step = newton
                    elif opened:
                        step, cap = end - b, 2.0 * cap
                    else:
                        step = 0.5 * (end - b)
                    beta[i] = b + step
                    # Stop on the step, not the score: on thousands of subjects
                    # rounding alone keeps |score| above any fixed bound near 1e-10.
                    if abs(step) > 1e-10:
                        rows[i] = lo, hi, cap, step
                        continue
                del rows[i]
        dp, q = _cox_terms(d_n1, n0, n1, beta)
        info = (dp * q).sum(axis=-1)
        code[(code == 0) & ~(info > 0.0)] = _NO_INFO
        return beta, 1.0 / np.sqrt(info), code


def cox_fit_two_arm(sample: SurvivalSample):
    """Breslow partial-likelihood fit of the single treatment coefficient.

    Returns (log hazard ratio, standard error) from the sample's risk
    table; like the log-rank test, it needs two arms and a death. Monotone
    likelihoods (the arms separate the event order) are reported as
    NumericalError rather than a huge estimate.
    """
    (beta,), (se,), (code,) = _cox_rows(sample.tables, *sample._logrank)
    if code == _LIMITS:
        score_lo, score_hi = _cox_score_limits(_cox_counts(sample.tables))
        raise NumericalError(
            _MONOTONE, score_at_minus_inf=float(score_lo[0]), score_at_plus_inf=float(score_hi[0])
        )
    if code:
        raise NumericalError(_COX_FAILURES[code], beta=float(beta))
    return float(beta), float(se)


def sample_tr(sample: SurvivalSample) -> float:
    """Ratio of product-limit median times, Rx over C.

    Raises NotReachedError (carrying the arm) when either curve never
    reaches its median.
    """
    med_rx, med_c = _arm_medians(sample.km(True), sample.km(False))
    return med_rx / med_c
