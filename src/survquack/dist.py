"""Survival curves, proportional-hazards transforms, mixtures, and quantiles.

Curves are immutable and evaluate vectorized over numpy arrays; scalar
inputs give scalar outputs. Every curve satisfies S(0) = 1 and is
nonincreasing. Step-function estimates produced by the estimation module
implement the same interface, so mixing and quantile machinery here does
not care whether a component is parametric or empirical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleScenario, NotReachedError

__all__ = [
    "SurvivalCurve",
    "WeibullDist",
    "LehmannCurve",
    "MixtureCurve",
    "quantile",
    "weibull_from_median",
    "solve_complement_scale",
    "lehmann_transform",
    "sample_times",
]

# the arms' labels in reports and errors
ARM_RX = "Rx"
ARM_C = "C"

_LN2 = math.log(2.0)
# bracket width, relative to its upper end, at which a mixture quantile
# stops, so that the answer does not depend on the time unit
_QUANTILE_TOL = 1e-12
_TINY = np.finfo(float).tiny


def _as_times(t):
    arr = np.asarray(t, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise DomainError("times must be finite and >= 0")
    return arr


def _match(values, t):
    """Collapse to a python float when the original input was scalar."""
    return float(values) if np.ndim(t) == 0 else values


def _check_prevalences(prevalences):
    """Each prevalence in (0, 1] and their total 1 within 1e-12, else DomainError."""
    prevalences = [float(p) for p in prevalences]
    for p in prevalences:
        if not (0.0 < p <= 1.0):
            raise DomainError(f"prevalence {p!r} outside (0, 1]")
    total = math.fsum(prevalences)
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"prevalences sum to {total!r}, not 1")


def _positive(value, name):
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


class SurvivalCurve:
    """Interface for survival functions S(t) = P(T > t)."""

    def survival(self, t):
        raise NotImplementedError

    def sides(self, t):
        """(S(t-), S(t)): both limits of the curve at ``t``, which differ only for step curves."""
        s = self.survival(t)
        return s, s

    def inverse_cumhaz(self, s):
        """Time t at which the cumulative hazard -log S(t) equals ``s``.

        Defined for absolutely continuous curves, where it is the
        quantile at survival exp(-s).
        """
        raise DomainError(f"{type(self).__name__} exposes no inverse cumulative hazard")

    def final_survival(self):
        """Limit of S(t) as t grows (nonzero only for plateaued step curves)."""
        return 0.0

    def jump_times(self):
        """Ascending jump locations for piecewise-constant curves, else None."""
        return None


@dataclass(frozen=True)
class WeibullDist(SurvivalCurve):
    """Two-parameter Weibull law, S(t) = exp(-(t/scale)^shape).

    ``shape`` is dimensionless and ``scale`` carries the time unit. For
    shape < 1 the density diverges at t = 0; that is the true limit.
    """

    shape: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "shape", _positive(self.shape, "shape"))
        object.__setattr__(self, "scale", _positive(self.scale, "scale"))

    def survival(self, t):
        tt = _as_times(t)
        return _match(np.exp(-np.power(tt / self.scale, self.shape)), t)

    def inverse_cumhaz(self, s):
        return self.scale * np.power(s, 1.0 / self.shape)

    @property
    def median(self):
        return self.scale * _LN2 ** (1.0 / self.shape)


@dataclass(frozen=True)
class LehmannCurve(SurvivalCurve):
    """A reference curve raised pointwise to a positive exponent.

    The exponent is exactly the hazard ratio of the transformed curve
    against its reference whenever the reference is absolutely continuous:
    exponents above 1 depress survival (shorter lives), below 1 lift it.
    """

    reference: SurvivalCurve
    hr: float

    def __post_init__(self):
        if not isinstance(self.reference, SurvivalCurve):
            raise DomainError("reference must be a SurvivalCurve")
        object.__setattr__(self, "hr", _positive(self.hr, "hr"))

    def survival(self, t):
        return _match(np.power(self.reference.survival(t), self.hr), t)

    def sides(self, t):
        left, right = self.reference.sides(t)
        return _match(np.power(left, self.hr), t), _match(np.power(right, self.hr), t)

    def inverse_cumhaz(self, s):
        # the cumulative hazard is hr times the reference's
        return self.reference.inverse_cumhaz(np.asarray(s) / self.hr)

    def final_survival(self):
        return self.reference.final_survival() ** self.hr

    def jump_times(self):
        return self.reference.jump_times()


@dataclass(frozen=True)
class MixtureCurve(SurvivalCurve):
    """Prevalence-weighted mixture of survival curves.

    ``components`` is a sequence of (prevalence, curve) pairs whose
    prevalences must sum to 1 within 1e-12.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((float(p), c) for p, c in self.components)
        if not comps:
            raise DomainError("mixture needs at least one component")
        _check_prevalences(p for p, _ in comps)
        if not all(isinstance(c, SurvivalCurve) for _, c in comps):
            raise DomainError("mixture components must be SurvivalCurve instances")
        object.__setattr__(self, "components", comps)

    def survival(self, t):
        acc = None
        for p, c in self.components:
            term = p * np.asarray(c.survival(t), dtype=float)
            acc = term if acc is None else acc + term
        return _match(acc, t)

    def sides(self, t):
        left = right = None
        for p, c in self.components:
            c_left, c_right = (p * np.asarray(side, dtype=float) for side in c.sides(t))
            left = c_left if left is None else left + c_left
            right = c_right if right is None else right + c_right
        return _match(left, t), _match(right, t)

    def final_survival(self):
        # summed in survival's order, so that it equals the value after the last jump
        return sum(p * c.final_survival() for p, c in self.components)

    def jump_times(self):
        pieces = [c.jump_times() for _, c in self.components]
        if any(p is None for p in pieces):
            return None
        return np.unique(np.concatenate(pieces)) if pieces else None


def quantile(curve: SurvivalCurve, p):
    """Smallest time where survival reaches ``p``: exact for step curves (the
    first jump to ``p`` or below) and curves with an inverse cumulative
    hazard; for a mixture, the upper end of a bracket narrowed to 1e-12 of
    its upper end between its components' own quantiles."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {p!r}")
    return _quantile(curve, p)


def _quantile(curve, p):
    # a step curve is read at its jumps alone, so that a curve ending
    # exactly at p reaches p at its last jump
    jumps = curve.jump_times()
    if jumps is not None:
        hits = np.flatnonzero(np.asarray(curve.survival(jumps)) <= p)
        if hits.size == 0:
            raise NotReachedError(f"curve never falls to survival {p}")
        return float(jumps[hits[0]])
    final = curve.final_survival()
    if final >= p:
        raise NotReachedError(f"curve never falls to survival {p}")
    if isinstance(curve, LehmannCurve):
        return _quantile(curve.reference, p ** (1.0 / curve.hr))
    if not isinstance(curve, MixtureCurve):
        return float(curve.inverse_cumhaz(-math.log(p)))
    # Below the first component quantile every component is above p. Where
    # each component is within p - final of its own limit, the mixture is
    # at most final + (p - final) = p.
    comps = [c for _, c in curve.components]
    lo = min(_quantile(c, p) for c in comps if c.final_survival() < p)
    levels = [c.final_survival() + p - final for c in comps]
    hi = max(_quantile(c, level) if level < 1.0 else 0.0 for c, level in zip(comps, levels))
    # Illinois false position keeps f_lo > 0 >= f_hi; halving the value kept
    # at an end that stays twice keeps both ends moving.
    tol = _QUANTILE_TOL * hi
    f_lo, f_hi, side = float(curve.survival(lo)) - p, float(curve.survival(hi)) - p, 0
    for _ in range(200):
        if hi - lo <= tol or f_lo <= 0.0 or f_hi > 0.0:  # rounding can collapse the bracket
            break
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = min(max(x, lo + 0.25 * tol), hi - 0.25 * tol)
        fx = float(curve.survival(x)) - p
        if fx > 0.0:
            lo, f_lo, f_hi, side = x, fx, f_hi * (0.5 if side < 0 else 1.0), -1
        else:
            hi, f_hi, f_lo, side = x, fx, f_lo * (0.5 if side > 0 else 1.0), 1
    return lo if f_lo <= 0.0 else hi


def _arm_medians(rx_curve, c_curve):
    """(Rx median, C median) of two arms' curves, by ``quantile``; a
    NotReachedError names the first arm whose curve never falls to 1/2."""
    medians = []
    for arm, curve in ((ARM_RX, rx_curve), (ARM_C, c_curve)):
        try:
            medians.append(quantile(curve, 0.5))
        except NotReachedError as exc:
            raise NotReachedError(f"{arm} median never reached", arm=arm) from exc
    return tuple(medians)


def weibull_from_median(shape, median) -> WeibullDist:
    """Weibull law with the given shape whose median is exactly ``median``."""
    shape = _positive(shape, "shape")
    median = _positive(median, "median")
    return WeibullDist(shape, median / _LN2 ** (1.0 / shape))


def solve_complement_scale(shape_minus, overall_median, prevalence_plus, plus_curve):
    """Scale of the complementary Weibull making a two-part mixture hit its median.

    Given the favorable component's curve and prevalence, solve in closed
    form for the scale of the complementary Weibull (with shape
    ``shape_minus``) such that the mixture's survival at ``overall_median``
    is exactly 1/2. Infeasible targets (the required complement survival
    falling outside (0, 1)) raise InfeasibleScenario.
    """
    shape_minus = _positive(shape_minus, "shape_minus")
    overall_median = _positive(overall_median, "overall_median")
    prevalence_plus = float(prevalence_plus)
    if not (0.0 < prevalence_plus < 1.0):
        raise DomainError("prevalence_plus must lie strictly inside (0, 1)")
    s_plus = float(plus_curve.survival(overall_median))
    target = (0.5 - prevalence_plus * s_plus) / (1.0 - prevalence_plus)
    if not (0.0 < target < 1.0):
        raise InfeasibleScenario(
            f"complement survival would have to be {target:.6g} at t={overall_median}, "
            "which is not a probability"
        )
    return overall_median / (-math.log(target)) ** (1.0 / shape_minus)


def lehmann_transform(reference: SurvivalCurve, hr) -> SurvivalCurve:
    """Curve whose survival is the reference's raised to ``hr`` (hr=1: unchanged)."""
    hr = _positive(hr, "hr")
    if hr == 1.0:
        return reference
    return LehmannCurve(reference, hr)


def sample_times(dist: WeibullDist, rng, n):
    """Draw ``n`` i.i.d. event times from a Weibull law by inverse CDF.

    Exactly one uniform is consumed per subject, in subject order, so a
    stream shared across code paths reproduces the same cohort.
    """
    n = int(n)
    if n < 0:
        raise DomainError("sample size must be >= 0")
    return dist.inverse_cumhaz(_unit_exponentials(rng.random(n)))


def _unit_exponentials(u):
    """-log u of an array of uniforms, in place; a uniform of exactly 0.0, which
    ``Generator.random`` can return, counts as the smallest normal double."""
    np.maximum(u, _TINY, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)
