"""Golden reports: the CLI's output on fixed inputs, pinned in tests/golden/.

Each case is the ``strip_volatile`` report of one CLI call, with the
dataset path replaced by a placeholder. A ``simulate`` case runs without
``--workers`` and with ``--workers 1`` and ``--workers 2``: the three
reports must render to the same text, and each must equal its one file.
Integers, strings, booleans and nulls must match exactly and floats to
1e-12 relative, so that another host's libm cannot fail the suite; a
mismatch names the first differing path. A change that alters a golden
file on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

which keeps each committed value the comparison accepts, so that the diff
shows only real changes, and says which fields changed and why.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from survquack.cli import main
from survquack.estim import SurvivalSample
from survquack.fixtures import generate_prognostic_sample, load_oak_analog_spec, write_dataset_csv
from survquack.report import render, strip_volatile
from survquack.rng import derive_rng

GOLDEN = Path(__file__).parent / "golden"
DATASET = "<dataset>"
AUDIT = ["--strata", "sex,histology,kras,egfr", "--measure", "HR", "--measure", "TR"]
SIMULATE = ["simulate", "builtin:section3", "--replications", "500"]
REL_TOL = 1e-12


def _cohort(censored):
    """The packaged cohort, complete or censored by exponential(80) times."""
    sample = generate_prognostic_sample(load_oak_analog_spec())
    if not censored:
        return sample
    c = derive_rng(99, "censor").exponential(80.0, sample.n)
    return SurvivalSample(np.minimum(sample.time, c), sample.time <= c, sample.is_rx, sample.strata)


def _separated():
    """Every Rx death after every C death, in two strata: the Cox fits fail."""
    time = np.array([10.0, 11.0, 12.0, 13.0, 1.0, 2.0, 3.0, 4.0])
    grp = np.array(["a", "b", "a", "b", "a", "b", "a", "b"])
    return SurvivalSample(time, np.ones(8, bool), np.arange(8) < 4, {"grp": grp})


def _trial30():
    """One complete 30x30 Weibull trial."""
    rng = derive_rng(30, "golden-trial")
    return SurvivalSample.from_arms(9.0 * rng.weibull(1.2, 30), 7.0 * rng.weibull(1.2, 30))


# case name -> (argv with DATASET where the dataset's path goes, the dataset)
CASES = {
    "analyze-oak-complete": (["analyze", DATASET, *AUDIT], lambda: _cohort(False)),
    "analyze-oak-censored": (["analyze", DATASET, *AUDIT], lambda: _cohort(True)),
    "analyze-separated": (
        ["analyze", DATASET, "--strata", "grp", "--measure", "HR", "--measure", "TR"], _separated
    ),
    "pivot-oak-seed11": (["pivot-ci", DATASET, "--seed", "11"], lambda: _cohort(False)),
    "pivot-trial30-seed11": (["pivot-ci", DATASET, "--seed", "11"], _trial30),
    "eq1-demo": (["eq1-demo"], None),
    "simulate-section3-seed5": ([*SIMULATE, "--seed", "5"], None),
    "simulate-section3-seed99": ([*SIMULATE, "--seed", "99"], None),
}
SIMULATE_CASES = sorted(case for case, (argv, _) in CASES.items() if argv[0] == "simulate")
# (case, --workers value or None for no flag): a simulate report must not
# depend on the worker count, given or left to its default
RUNS = [
    (case, workers)
    for case in sorted(CASES)
    for workers in ((None, 1, 2) if case in SIMULATE_CASES else (None,))
]
# fields schema 2 dropped as constants or copies of another field: (inputs or section, key)
DROPPED = [
    ("inputs", "replications"),
    ("inputs", "workers"),
    ("inputs", "level"),
    ("inputs", "mc_reps"),
    ("inputs", "grid"),
    ("scenario", "membership"),
    ("scenario", "alpha"),
    ("pivot_ci", "non_convex"),
    ("pivot_ci", "seed"),
    ("logrank", "alpha"),
    ("stratified_audit_hr", "measure"),
    ("stratified_audit_tr", "measure"),
]


def _report(case, workdir, workers=None):
    """The case's report, volatile fields and dataset path removed."""
    argv, make = CASES[case]
    dataset, out = Path(workdir) / f"{case}.csv", Path(workdir) / f"{case}.json"
    if make is not None:
        write_dataset_csv(make(), dataset)
    argv = [str(dataset) if arg == DATASET else arg for arg in argv]
    if workers is not None:
        argv += ["--workers", str(workers)]
    assert main([*argv, "--out", str(out)]) == 0
    report = strip_volatile(json.loads(out.read_text(encoding="utf-8")))
    if make is not None:
        assert report["inputs"]["dataset"] == str(dataset)
        report["inputs"]["dataset"] = DATASET
    return report


def _first_difference(expected, actual, path="$"):
    """Path of the first place ``actual`` departs from ``expected``, else None."""
    if isinstance(expected, float) and type(actual) is float:
        if expected == actual or math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            return None
        return f"{path}: {actual!r} != {expected!r}"
    if type(expected) is not type(actual):
        return f"{path}: {type(actual).__name__} {actual!r} != {type(expected).__name__} {expected!r}"
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return f"{path}: keys {list(actual)} != {list(expected)}"
        items = ((f"{path}.{k}", expected[k], actual[k]) for k in expected)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        items = ((f"{path}[{i}]", e, a) for i, (e, a) in enumerate(zip(expected, actual)))
    else:
        return None if expected == actual else f"{path}: {actual!r} != {expected!r}"
    for sub_path, e, a in items:
        found = _first_difference(e, a, sub_path)
        if found is not None:
            return found
    return None


def _kept(committed, fresh):
    """``fresh``, keeping each part of ``committed`` at the same path that
    ``_first_difference`` accepts, so that a regenerated file differs from
    the committed one only where a value really changed."""
    if _first_difference(committed, fresh) is None:
        return committed
    if isinstance(committed, dict) and isinstance(fresh, dict):
        return {k: _kept(committed[k], v) if k in committed else v for k, v in fresh.items()}
    if isinstance(committed, list) and isinstance(fresh, list) and len(committed) == len(fresh):
        return [_kept(c, f) for c, f in zip(committed, fresh)]
    return fresh


def _run_id(case, workers):
    if CASES[case][0][0] != "simulate":
        return case
    return f"{case}-default" if workers is None else f"{case}-workers{workers}"


@pytest.mark.parametrize("case, workers", RUNS, ids=[_run_id(*run) for run in RUNS])
def test_report_matches_golden(case, workers, tmp_path):
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert _first_difference(expected, _report(case, tmp_path, workers)) is None


@pytest.mark.parametrize("case", SIMULATE_CASES)
def test_simulate_report_text_does_not_depend_on_workers(case, tmp_path):
    texts = [render(_report(case, tmp_path, workers)) for workers in (None, 1, 2)]
    assert texts[1] == texts[0] and texts[2] == texts[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report_holds_no_dropped_field(case):
    report = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    for where, key in DROPPED:
        holder = report["inputs"] if where == "inputs" else report["sections"].get(where, {}).get("data")
        assert key not in (holder or {}), f"{where}.{key}"


@pytest.mark.parametrize(
    "actual, where",
    [
        ({"a": [1, {"b": 0.5}], "c": "x"}, None),
        ({"a": [1, {"b": 0.5 * (1 + 1e-13)}], "c": "x"}, None),
        ({"a": [1, {"b": 0.5 * (1 + 1e-11)}], "c": "x"}, "$.a[1].b:"),
        ({"a": [2, {"b": 0.5}], "c": "x"}, "$.a[0]:"),
        ({"a": [1.0, {"b": 0.5}], "c": "x"}, "$.a[0]:"),
        ({"a": [True, {"b": 0.5}], "c": "x"}, "$.a[0]:"),
        ({"a": [1, {"b": None}], "c": "x"}, "$.a[1].b:"),
        ({"a": [1, {"b": 0.5}]}, "$: keys"),
        ({"a": [1], "c": "x"}, "$.a: length"),
        ({"a": [1, {"b": 0.5}], "c": "y"}, "$.c:"),
    ],
)
def test_first_difference_names_the_first_differing_path(actual, where):
    found = _first_difference({"a": [1, {"b": 0.5}], "c": "x"}, actual)
    assert found is None if where is None else found.startswith(where)


def test_regeneration_keeps_committed_floats_within_tolerance():
    committed = {"a": [1, {"b": 0.5}], "c": 0.25, "gone": True}
    fresh = {"a": [1, {"b": 0.5 * (1 + 1e-13)}], "c": 0.25 * (1 + 1e-11), "new": "x"}
    kept = _kept(committed, fresh)
    assert kept == {"a": [1, {"b": 0.5}], "c": 0.25 * (1 + 1e-11), "new": "x"}
    assert list(kept) == ["a", "c", "new"]


def regenerate():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in sorted(CASES):
            path = GOLDEN / f"{case}.json"
            report = _report(case, workdir)
            if path.exists():
                report = _kept(json.loads(path.read_text(encoding="utf-8")), report)
            path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n", encoding="utf-8")
            print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(regenerate())
