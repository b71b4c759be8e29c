"""Aggregating subgroup efficacy into a single overall number.

Two aggregation rules are implemented side by side. The prevalence-weighted
geometric mean of per-stratum ratios is what stratified-analysis software
usually reports; it averages logs of ratios and never looks at the control
arm's prognosis, so its output can leave the range spanned by the
subgroup ratios. The mixable route instead mixes each arm's ingredients
(response rates or survival curves) over subgroup prevalences first and
only then forms a ratio, which keeps the overall value inside the subgroup
range by construction. ``stratified_audit`` runs both against real data,
one stratification factor at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import MixtureCurve, SurvivalCurve, _check_prevalences, quantile
from .errors import DomainError, NotReachedError, NumericalError, SurvquackError
from .estim import Measure, SurvivalSample, hr_from_llp, sample_tr

__all__ = [
    "SubgroupRow",
    "SubgroupTable",
    "StratifiedComparison",
    "naive_stratified_ratio",
    "sme_overall_rr",
    "sme_overall_tr",
    "sme_overall_hr",
    "mixture_llp",
    "stratified_audit",
]


# The win probability against a continuous control component is integrated
# over y = log H_c(t) on this range; the tails outside it carry less than
# exp(-38) and exp(-e^4) of the control's mass.
_Y_RANGE = (-38.0, 4.0)
_FIRST_STEP = 0.5
_TOL = 1e-13
_MAX_HALVINGS = 12


@dataclass(frozen=True)
class SubgroupRow:
    """One subgroup's prevalence and its per-arm ingredients.

    For RR tables the ingredients are response probabilities in [0, 1];
    for TR and HR tables they are survival curves.
    """

    label: str
    prevalence: float
    rx: object
    c: object


@dataclass(frozen=True)
class SubgroupTable:
    """Per-subgroup efficacy ingredients with prevalences summing to 1."""

    measure: Measure
    rows: tuple

    def __post_init__(self):
        measure = Measure(self.measure)
        rows = tuple(self.rows)
        if not rows:
            raise DomainError("subgroup table needs at least one row")
        _check_prevalences(r.prevalence for r in rows)
        for r in rows:
            if measure is Measure.RR:
                for p in (r.rx, r.c):
                    if not (0.0 <= float(p) <= 1.0):
                        raise DomainError("RR ingredients are response probabilities in [0, 1]")
            else:
                for curve in (r.rx, r.c):
                    if not isinstance(curve, SurvivalCurve):
                        raise DomainError(f"{measure.value} ingredients must be survival curves")
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "rows", rows)

    def arm_mixture(self, rx: bool) -> MixtureCurve:
        return MixtureCurve(tuple((r.prevalence, r.rx if rx else r.c) for r in self.rows))


def naive_stratified_ratio(pairs) -> float:
    """Prevalence-weighted geometric mean of per-stratum ratios.

    ``pairs`` iterates (ratio, weight); weights must sum to 1 and ratios
    must be positive. This is the pooling rule under audit: it commutes
    with relabeling strata and with taking reciprocals, but it ignores
    the arms' ingredients entirely.
    """
    pairs = [(float(r), float(w)) for r, w in pairs]
    if not pairs:
        raise DomainError("at least one (ratio, weight) pair is required")
    for r, w in pairs:
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"ratio {r!r} must be positive and finite")
        if not (0.0 <= w <= 1.0):
            raise DomainError(f"weight {w!r} outside [0, 1]")
    total = math.fsum(w for _, w in pairs)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"weights sum to {total!r}, not 1")
    return math.exp(math.fsum(w * math.log(r) for r, w in pairs))


def sme_overall_rr(table: SubgroupTable) -> float:
    """Overall response ratio: mix response rates per arm, then divide."""
    if table.measure is not Measure.RR:
        raise DomainError("sme_overall_rr needs an RR table")
    num = math.fsum(r.prevalence * float(r.rx) for r in table.rows)
    den = math.fsum(r.prevalence * float(r.c) for r in table.rows)
    if den <= 0.0:
        raise DomainError("overall control response is zero; the ratio is undefined")
    if num <= 0.0:
        raise DomainError("overall Rx response is zero; the ratio is not positive")
    return num / den


def sme_overall_tr(table: SubgroupTable) -> float:
    """Overall time ratio: median of each arm's mixture curve, then divide."""
    if table.measure is not Measure.TR:
        raise DomainError("sme_overall_tr needs a TR table")
    medians = {}
    for arm, rx in (("Rx", True), ("C", False)):
        try:
            medians[arm] = quantile(table.arm_mixture(rx), 0.5)
        except NotReachedError as exc:
            raise NotReachedError(f"{arm} mixture median never reached", arm=arm) from exc
    return medians["Rx"] / medians["C"]


def sme_overall_hr(table: SubgroupTable) -> float:
    """Overall hazard ratio through the win-probability bijection.

    Each arm's curves are mixed over prevalences, the probability that a
    treated draw outlives a control draw is integrated, and the result is
    mapped through hr = (1 - llp) / llp. For a single subgroup whose arms
    are a power pair with exponent theta this recovers theta exactly (up
    to integration error).
    """
    if table.measure is not Measure.HR:
        raise DomainError("sme_overall_hr needs an HR table")
    llp = mixture_llp(table.arm_mixture(True), table.arm_mixture(False))
    if not (0.0 < llp < 1.0):
        raise NumericalError("integrated win probability left (0, 1)", llp=llp)
    return hr_from_llp(llp)


def _flatten_components(curve, weight=1.0):
    if isinstance(curve, MixtureCurve):
        out = []
        for p, c in curve.components:
            out.extend(_flatten_components(c, weight * p))
        return out
    return [(weight, curve)]


def _trapezoid_llp(rx_curve, comp):
    """P(T_rx > T_c) for a control component with an inverse cumulative hazard.

    With s = H_c(t) the control's mass is exp(-s) ds, and with s = e^y the
    win probability is the integral of S_rx(H_c^-1(e^y)) exp(y - e^y) over
    the real line. That integrand is analytic with tails decaying at least
    exponentially, so the trapezoid rule converges geometrically; the step
    is halved until two successive sums agree.
    """
    lo, hi = _Y_RANGE

    def integrand(y):
        s = np.exp(y)
        return np.asarray(rx_curve.survival(comp.inverse_cumhaz(s)), dtype=float) * np.exp(y - s)

    n = round((hi - lo) / _FIRST_STEP)
    h = _FIRST_STEP
    f = integrand(np.linspace(lo, hi, n + 1))
    acc = float(f.sum()) - 0.5 * float(f[0] + f[-1])
    value = h * acc
    for _ in range(_MAX_HALVINGS):
        acc += float(integrand(lo + h * (np.arange(n) + 0.5)).sum())
        n *= 2
        h *= 0.5
        prev, value = value, h * acc
        if abs(value - prev) <= _TOL:
            return value
    raise NumericalError("win-probability integral did not converge", step=h, value=value)


def _llp_against_component(rx_curve, comp):
    jumps = comp.jump_times()
    if jumps is not None:
        if jumps.size == 0:
            # a step control with no jumps never dies, so nothing outlives it
            return 0.0
        left, right = comp.sides(jumps)
        mass = np.asarray(left) - np.asarray(right)
        # half credit at shared jump points mirrors the tie rule of the
        # pairwise estimator
        rx_left, rx_right = rx_curve.sides(jumps)
        rx_mid = 0.5 * (np.asarray(rx_left) + np.asarray(rx_right))
        return float(np.sum(mass * rx_mid))
    rx_jumps = rx_curve.jump_times()
    if rx_jumps is not None:
        # rx piecewise constant against an absolutely continuous component:
        # sum exactly over the constant pieces
        if rx_jumps.size == 0:
            return 1.0
        vals = np.concatenate(([1.0], np.asarray(rx_curve.survival(rx_jumps))))
        bounds = np.concatenate(([1.0], np.asarray(comp.survival(rx_jumps)), [0.0]))
        return float(np.sum(vals * (bounds[:-1] - bounds[1:])))
    return _trapezoid_llp(rx_curve, comp)


def mixture_llp(rx_curve: SurvivalCurve, c_curve: SurvivalCurve) -> float:
    """Probability that a draw from ``rx_curve`` outlives one from ``c_curve``.

    Both sides are decomposed into mixture components and the probability,
    linear in each curve, is summed over the pairs. A step control component
    contributes an exact sum over its jumps (ties get half credit, matching
    the pairwise estimator). Against a continuous control component, a step
    Rx component is summed exactly over its constant pieces and a continuous
    one is integrated by the trapezoid rule on the control's log
    cumulative-hazard scale, to about 1e-13. A control component exposing
    neither jumps nor an inverse cumulative hazard raises DomainError, and
    an integral that does not converge raises NumericalError.
    """
    c_parts = _flatten_components(c_curve)
    total = 0.0
    for wr, rc in _flatten_components(rx_curve):
        for wc, cc in c_parts:
            total += wr * wc * _llp_against_component(rc, cc)
    return min(max(total, 0.0), 1.0)


@dataclass(frozen=True)
class StratifiedComparison:
    """Both pooling rules plus the unstratified value for one factor."""

    factor: str
    naive_value: float
    sme_value: float
    marginal_value: float
    dropped_levels: tuple = ()


def stratified_audit(sample: SurvivalSample, factors, measure: Measure = Measure.HR):
    """Contrast both pooling rules against the marginal value, factor by factor.

    For each factor: the naive value pools per-level two-arm fits (Cox
    hazard ratios for HR, median ratios for TR) with the geometric-mean
    rule; the mixable value builds per-level, per-arm curves (product-limit
    curves when the data are complete, Weibull fits when censoring is
    present), mixes them over pooled level prevalences, and summarizes the
    mixtures; the marginal value refits the whole sample with the factor
    ignored. A level whose own ratio or curves raise a SurvquackError is
    dropped with a warning and the remaining prevalences are renormalized;
    a failure of the marginal value fails the audit.
    """
    measure = Measure(measure)
    if measure not in (Measure.HR, Measure.TR):
        raise DomainError("stratified_audit supports the HR and TR measures")
    complete = bool(sample.event.all())
    marginal = math.exp(sample.cox[0]) if measure is Measure.HR else sample_tr(sample)
    comparisons = []
    for factor in factors:
        usable, dropped = [], {}
        for level, sub in sample.levels(factor):
            try:
                ratio = math.exp(sub.cox[0]) if measure is Measure.HR else sample_tr(sub)
                curves = (sub.km(True), sub.km(False)) if complete else sub.weibull
            except SurvquackError as exc:
                dropped[level] = f"{type(exc).__name__}: {exc}"
                continue
            usable.append((level, sub.n, ratio, curves))
        if not usable:
            raise DomainError(f"factor {factor!r} has no level whose ratio and curves can be estimated")
        if dropped:
            warnings.warn(
                f"factor {factor!r}: dropped sparse level(s) {dropped}; prevalences renormalized",
                stacklevel=2,
            )
        prevalences = np.asarray([n for _, n, _, _ in usable], dtype=float)
        prevalences /= prevalences.sum()
        # exact renormalization so the mixture constructor's 1e-12 check holds
        prevalences[-1] = 1.0 - prevalences[:-1].sum()

        naive = naive_stratified_ratio(zip((ratio for _, _, ratio, _ in usable), prevalences))
        rows = tuple(
            SubgroupRow(level, float(prev), *curves) for (level, _, _, curves), prev in zip(usable, prevalences)
        )
        table = SubgroupTable(measure, rows)
        sme = sme_overall_hr(table) if measure is Measure.HR else sme_overall_tr(table)
        comparisons.append(StratifiedComparison(str(factor), naive, sme, marginal, tuple(dropped)))
    return comparisons
