"""Synthetic stratified trial data with known ground truth.

The shipped generator builds a two-arm cohort stratified by several
binary prognostic factors. Control survival in each cell is Weibull with
a scale set by the product of the cell's factor multipliers; the treated
curve in every cell is the control curve raised to one common power, so
the within-cell hazard ratio is identical everywhere while the cells
themselves differ widely in prognosis. That is exactly the situation in
which per-factor log-averaged stratified ratios disagree with each other
while mixture-based summaries stay put.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._config import _read_config
from .dist import _unit_exponentials
from .errors import DomainError
from .estim import ARM_C, ARM_RX, SurvivalSample
from .rng import _integer, derive_rng

__all__ = [
    "FactorSpec",
    "OakAnalogSpec",
    "load_oak_analog_spec",
    "generate_prognostic_sample",
    "write_dataset_csv",
]


@dataclass(frozen=True)
class FactorSpec:
    """Binary prognostic factor: two labels, prevalence of the first,
    and a control-arm scale multiplier per label."""

    name: str
    labels: tuple[str, str]
    prevalence: float
    multipliers: tuple[float, float]

    def __post_init__(self):
        if len(self.labels) != 2 or len(self.multipliers) != 2:
            raise DomainError(f"factor {self.name!r} needs exactly two labels and multipliers")
        if not (0.0 < self.prevalence < 1.0):
            raise DomainError(f"factor {self.name!r} prevalence outside (0, 1)")
        for m in self.multipliers:
            if not (math.isfinite(m) and m > 0.0):
                raise DomainError(f"factor {self.name!r} multipliers must be positive")


@dataclass(frozen=True)
class OakAnalogSpec:
    """Generator parameters for the stratified fixture. The fields but
    ``factors`` are the keys of a fixture config's [dataset] section."""

    n: int
    theta: float
    shape: float
    base_scale: float
    seed: int
    factors: tuple

    def __post_init__(self):
        if _integer(self.n, "n") < 4:
            raise DomainError("fixture needs at least 4 subjects")
        for name, v in (("theta", self.theta), ("shape", self.shape), ("base_scale", self.base_scale)):
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive")
        if not self.factors:
            raise DomainError("at least one factor is required")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise DomainError("factor names must be unique")


# dataset rows ``write_dataset_csv`` converts to Python values at a time: whole
# columns of strings would add about 2 MB to the peak of a 6,000-row write
_WRITE_ROWS = 256


def load_oak_analog_spec(path=None) -> OakAnalogSpec:
    """Read a fixture spec from an INI file (default: the packaged one)."""
    path = "builtin:oak_analog" if path is None else path
    return _read_config(path, "fixture config", "dataset", OakAnalogSpec, "factor", FactorSpec)


def generate_prognostic_sample(spec: OakAnalogSpec) -> SurvivalSample:
    """Simulate the stratified cohort. Fully determined by ``spec.seed``.

    Factor labels are drawn independently per factor from dedicated
    streams; each arm's event times come from one stream, one uniform
    per subject. The first half of the cohort is the treated arm.
    """
    n = spec.n
    n_rx = n // 2
    is_rx = np.zeros(n, dtype=bool)
    is_rx[:n_rx] = True

    strata = {}
    log_scale = np.full(n, math.log(spec.base_scale))
    for f in spec.factors:
        rng = derive_rng(spec.seed, "factors", f.name)
        first = rng.random(n) < f.prevalence
        labels = np.where(first, f.labels[0], f.labels[1])
        strata[f.name] = labels
        log_scale += np.where(first, math.log(f.multipliers[0]), math.log(f.multipliers[1]))

    # common within-cell power theta: treated survival is control^theta,
    # which for Weibull just rescales by theta^(-1/shape)
    log_scale[is_rx] -= math.log(spec.theta) / spec.shape
    time = np.empty(n)
    for arm, mask in ((ARM_RX, is_rx), (ARM_C, ~is_rx)):
        rng = derive_rng(spec.seed, "times", arm)
        cumhaz = _unit_exponentials(rng.random(int(mask.sum())))
        time[mask] = np.exp(log_scale[mask]) * np.power(cumhaz, 1.0 / spec.shape)

    return SurvivalSample(time, np.ones(n, dtype=bool), is_rx, strata)


def write_dataset_csv(sample: SurvivalSample, path):
    """Write a sample in the CLI's dataset format (strata as s:<factor>)."""
    factors = list(sample.strata)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", "arm"] + [f"s:{name}" for name in factors])
        for rows in (slice(first, first + _WRITE_ROWS) for first in range(0, sample.n, _WRITE_ROWS)):
            writer.writerows(
                zip(
                    map(repr, sample.time[rows].tolist()),
                    sample.event[rows].astype(int).tolist(),
                    np.where(sample.is_rx[rows], ARM_RX, ARM_C).tolist(),
                    *(map(str, sample.strata[name][rows].tolist()) for name in factors),
                )
            )
