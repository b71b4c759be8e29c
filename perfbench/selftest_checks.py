"""Each output check passes on real reports and fails when one value it
reads is perturbed.

    python3 -m pytest perfbench/selftest_checks.py

The reports come from the benchmark's own workloads at seed 0: one round
of equal-median-study, one cohort of each audit and one pivot-ci dataset.
Checks on the drawn trials (pooled medians, g+ share) are perturbed through
the draws, the values they read.
"""

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def _reports(pkg, name, tmp_path):
    """The workload at seed 0 and its first round's (op, report) pairs."""
    workload = WORKLOADS[name](pkg, 0, str(tmp_path))
    results = []
    for op in workload.ops(0):
        code, text = run.call(pkg, op.argv)
        assert code == 0
        results.append((op, json.loads(text)))
    return workload, results


def _set(report, path, fn):
    *head, last = path
    node = report
    for key in head:
        node = node[key]
    node[last] = fn(node[last])


def _failed(check, *args):
    findings = checks.Findings()
    check(findings, *args)
    return findings.failed


@pytest.fixture(scope="module")
def simulate_round(pkg, tmp_path_factory):
    workload, results = _reports(pkg, "equal-median-study", tmp_path_factory.mktemp("sim"))
    references = {op.meta["seed"]: checks.reference_replications(
        pkg, workload.scenario, op.meta["seed"], op.replications) for op, _ in results}
    return workload, results, references


STUDY = ("sections", "study", "data")
SIMULATE_PERTURBATIONS = {
    "sections_ok": (STUDY[:2] + ("ok",), lambda v: False),
    "replications": (("seed",), lambda v: v + 1),
    "buckets_add_up": (STUDY + ("rx_longer",), lambda v: v + 1),
    "tally": (STUDY + ("cox_rejections",), lambda v: v + 1),
    "rates": (STUDY + ("rejection_rate",), lambda v: v * 1.001),
    "wilson": (STUDY + ("c_longer_ci95",), lambda v: [v[0], v[1] + 1e-9]),
    "scenario_median": (("sections", "scenario", "data", "arm_medians", "C"), lambda v: v * 1.0001),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_PERTURBATIONS) + ["rejection_band", "workers_identical"])
def test_simulate_check_fails_on_perturbed_report(pkg, simulate_round, name):
    workload, results, references = simulate_round

    def fake_cli(argv):
        # the prefix tally the reference route gives, in the report's layout
        counts, _, _ = checks.tally(references[results[0][0].meta["seed"]][0][:checks.WORKERS_PREFIX], 0.05)
        return {"sections": {"study": {"data": dict(counts, alpha=0.05)}}}

    args = (pkg, workload.scenario, fake_cli, references)
    assert name not in _failed(checks.check_equal_median, results, *args)
    bad = copy.deepcopy(results)
    if name == "rejection_band":
        _set(bad[0][1], STUDY + ("rejections",), lambda v: 250)
    elif name == "workers_identical":
        args = (pkg, workload.scenario, lambda argv: _bump(fake_cli(argv)), references)
    else:
        path, fn = SIMULATE_PERTURBATIONS[name]
        _set(bad[0][1], path, fn)
    assert name in _failed(checks.check_equal_median, bad, *args)


def _bump(report):
    report["sections"]["study"]["data"]["rejections"] += 1
    return report


@pytest.mark.parametrize("name", ["pooled_median", "g_plus_share"])
def test_simulate_draw_checks_fail_on_perturbed_draws(pkg, simulate_round, name):
    workload, results, references = simulate_round
    bad = {}
    for seed, (rows, (rx, c, g_plus)) in references.items():
        if name == "pooled_median":
            rx = [t * 1.02 for t in rx]
        else:
            g_plus = int(g_plus * 1.01)
        bad[seed] = (rows, (rx, c, g_plus))
    assert name in _failed(checks.check_equal_median, results, pkg, workload.scenario, None, bad)


AUDIT_PERTURBATIONS = {
    "dataset": (("sections", "dataset", "data", "events"), lambda v: v + 1),
    "sections_ok": (("sections", "logrank", "ok"), lambda v: False),
    "logrank": (("sections", "logrank", "data", "variance"), lambda v: v * (1 + 1e-7)),
    "medians": (("sections", "medians", "data", "median_c", "value"), lambda v: v * (1 + 1e-12)),
    "cox": (("sections", "cox_wald", "data", "log_hr"), lambda v: v + 1e-7),
    "audit_factors": (("sections", "stratified_audit_hr", "data", "factors"), lambda v: v[::-1]),
    "dropped_levels": (("sections", "stratified_audit_tr", "data", "factors", 1, "dropped_levels"), lambda v: ["x"]),
    "marginal": (("sections", "stratified_audit_tr", "data", "factors", 2, "marginal"), lambda v: v * (1 + 1e-7)),
    "naive": (("sections", "stratified_audit_hr", "data", "factors", 3, "naive"), lambda v: v * (1 + 1e-7)),
}


@pytest.fixture(scope="module", params=["audit-complete", "audit-censored"])
def audit_report(request, pkg, tmp_path_factory):
    workload = WORKLOADS[request.param](pkg, 0, str(tmp_path_factory.mktemp("audit")))
    op = workload.ops(0)[0]
    code, text = run.call(pkg, op.argv)
    assert code == 0
    return op, json.loads(text)


@pytest.mark.parametrize("name", sorted(AUDIT_PERTURBATIONS) + ["win_probability", "sme_hr", "sme_tr"])
def test_audit_check_fails_on_perturbed_report(audit_report, name):
    op, report = audit_report
    assert not _failed(checks.check_audit, op, report)
    bad = copy.deepcopy(report)
    # a change of 10x the check's tolerance
    sme_scale = 1 + 10 * (checks.TOL_WEIBULL_HR if op.meta["censored"] else checks.TOL_EXACT_SUMS)
    if name == "win_probability":
        if op.meta["censored"]:
            _set(bad, ("sections", "win_probability", "error"), lambda v: "NumericalError: x")
        else:
            _set(bad, ("sections", "win_probability", "data", "llp"), lambda v: v * (1 + 1e-8))
    elif name in ("sme_hr", "sme_tr"):
        _set(bad, ("sections", f"stratified_audit_{name[-2:]}", "data", "factors", 0, "sme"),
             lambda v: v * sme_scale)
    else:
        path, fn = AUDIT_PERTURBATIONS[name]
        _set(bad, path, fn)
    assert name in _failed(checks.check_audit, op, bad)


def test_audit_check_reports_a_failed_section(audit_report):
    op, report = audit_report
    bad = copy.deepcopy(report)
    bad["sections"]["stratified_audit_hr"] = {"ok": False, "error": "NumericalError: x", "data": None}
    assert "sections_ok" in _failed(checks.check_audit, op, bad)


@pytest.fixture(scope="module")
def pivot_report(pkg, tmp_path_factory):
    workload, results = _reports(pkg, "pivot-ci", tmp_path_factory.mktemp("pivot"))
    return results[0]


PIVOT = ("sections", "pivot_ci", "data")
PIVOT_PERTURBATIONS = {
    "observed_count": (PIVOT + ("observed_count",), lambda v: v + 0.5),
    "pivot_shape": (PIVOT + ("n_rx",), lambda v: v + 1),
    "not_empty": (PIVOT + ("empty",), lambda v: True),
    # twice the tolerance plus half a step, so no starting offset can hide it
    "hull_endpoints": (PIVOT + ("interval",), lambda v: [
        v[0] * math.exp((2 * checks.PIVOT_GRID_STEPS + 0.5) * math.log(2500) / 199), v[1]]),
}


@pytest.mark.parametrize("name", sorted(PIVOT_PERTURBATIONS))
def test_pivot_check_fails_on_perturbed_report(pivot_report, name):
    op, report = pivot_report
    assert not _failed(checks.check_pivot, op, report)
    bad = copy.deepcopy(report)
    path, fn = PIVOT_PERTURBATIONS[name]
    _set(bad, path, fn)
    assert name in _failed(checks.check_pivot, op, bad)


def test_schema_check_fails_on_perturbed_report(pivot_report):
    _, report = pivot_report
    assert not _failed(checks.check_schema, [report])
    bad = copy.deepcopy(report)
    bad["schema_version"] = "2"
    assert "schema" in _failed(checks.check_schema, [bad])


def test_repeated_call_check_fails_on_changed_report(pkg, tmp_path):
    workload, results = _reports(pkg, "audit-complete", tmp_path)
    assert not run.run_checks(pkg, workload, results, 0).failed
    bad = copy.deepcopy(results)
    _set(bad[0][1], ("sections", "dataset", "data", "n"), lambda v: v + 1)
    assert "deterministic" in run.run_checks(pkg, workload, bad, 0).failed
