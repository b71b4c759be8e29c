"""Shared fixtures and the acceptance-line reporter.

The heavy Monte Carlo artifacts (the shipped scenario and its studies,
the null-calibration study, the synthetic stratified cohort) are built
once per session and shared between the module tests and the acceptance
gate in test_acceptance.py. The terminal summary prints one PASS/FAIL
line per acceptance criterion. At the end of the session the warm worker
pool of ``run_study`` is shut down, and no child process may remain.
"""

import dataclasses
import multiprocessing
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from survquack import estim, sim
from survquack import (
    Measure,
    ScenarioConfig,
    SubgroupSpec,
    generate_prognostic_sample,
    load_oak_analog_spec,
    realize_scenario,
    run_study,
    stratified_audit,
)
from survquack.cli import parse_scenario_config

_ACCEPTANCE_LINES = []


@contextmanager
def _criterion_cm(num, name):
    try:
        yield
    except BaseException:
        _ACCEPTANCE_LINES.append((num, name, False))
        raise
    _ACCEPTANCE_LINES.append((num, name, True))


@pytest.fixture
def criterion():
    """Context manager recording a criterion's verdict for the summary."""
    return _criterion_cm


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, passed in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(
            f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'}"
        )


@pytest.fixture(scope="session", autouse=True)
def no_worker_left():
    """At the end of the session, shut the warm worker pool down; then no
    child process may remain."""
    yield
    sim._shutdown_pool()
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def section3():
    return realize_scenario(parse_scenario_config("builtin:section3"))


@pytest.fixture(scope="session")
def study_1k(section3):
    """(report, elapsed seconds) for the shipped scenario at its default reps.

    Run sequentially so the elapsed time is meaningful for the runtime
    budget assertion.
    """
    t0 = time.perf_counter()
    report = run_study(section3, workers=1)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def study_10k(section3):
    return run_study(
        realize_scenario(dataclasses.replace(section3.config, replications=10_000)), workers=4
    )


@pytest.fixture(scope="session")
def null_scenario():
    cfg = ScenarioConfig(
        subgroups=(SubgroupSpec("all", 1.0, 1.0, rx_median=8.0, c_median=8.0),),
        replications=10_000,
    )
    return realize_scenario(cfg)


@pytest.fixture(scope="session")
def null_study_10k(null_scenario):
    return run_study(null_scenario, workers=4)


@pytest.fixture(scope="session")
def oak_spec():
    return load_oak_analog_spec()


@pytest.fixture(scope="session")
def oak_sample(oak_spec):
    return generate_prognostic_sample(oak_spec)


@pytest.fixture(scope="session")
def oak_audit(oak_sample, oak_spec):
    factors = [f.name for f in oak_spec.factors]
    return stratified_audit(oak_sample, factors, measure=Measure.HR)


_COUNTED_BUILDS = ("_risk_tables", "_logrank_terms", "weibull_mle", "km_fit")


@pytest.fixture
def count_builds(monkeypatch):
    """``count_builds()`` starts counting, for the rest of the test, the
    ``np.argsort`` calls (as (shape, kind)), the product-limit curves built
    (``curves``) and the calls of ``estim``'s one table builder, its
    log-rank terms, ``weibull_mle`` and ``km_fit``; it returns the live
    tallies."""

    def start():
        counts = {"sorts": [], "curves": 0, **dict.fromkeys(_COUNTED_BUILDS, 0)}
        modules = [m for k, m in sys.modules.items() if k.startswith("survquack.")]
        for name in _COUNTED_BUILDS:
            original = getattr(estim, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:  # every module that imported the name
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            counts["sorts"].append((np.shape(a), kwargs.get("kind")))
            return argsort(a, *args, **kwargs)

        class CountingKMCurve(estim.KMCurve):
            def __post_init__(self):
                counts["curves"] += 1
                super().__post_init__()

        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(estim, "KMCurve", CountingKMCurve)
        return counts

    return start
