"""Golden reports: the CLI's output on fixed inputs, pinned in tests/golden/.

Each case is the ``strip_volatile`` report of one CLI call, with the
dataset path replaced by a placeholder. Integers, strings, booleans and
nulls must match exactly and floats to 1e-12 relative, so that another
host's libm cannot fail the suite; a mismatch names the first differing
path. A change that alters a golden file on purpose regenerates the
corpus with

    PYTHONPATH=src python tests/test_golden.py

and says which fields changed and why.
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
from survquack.report import strip_volatile
from survquack.rng import derive_rng

GOLDEN = Path(__file__).parent / "golden"
DATASET = "<dataset>"
AUDIT = ["--strata", "sex,histology,kras,egfr", "--measure", "HR", "--measure", "TR"]
# case name -> censored
CASES = {"analyze-oak-complete": False, "analyze-oak-censored": True}
REL_TOL = 1e-12


def _cohort(censored):
    """The packaged cohort, complete or censored by exponential(80) times."""
    sample = generate_prognostic_sample(load_oak_analog_spec())
    if not censored:
        return sample
    c = derive_rng(99, "censor").exponential(80.0, sample.n)
    return SurvivalSample(np.minimum(sample.time, c), sample.time <= c, sample.is_rx, sample.strata)


def _report(case, workdir):
    """The case's report, volatile fields and dataset path removed."""
    dataset, out = Path(workdir) / f"{case}.csv", Path(workdir) / f"{case}.json"
    write_dataset_csv(_cohort(CASES[case]), dataset)
    assert main(["analyze", str(dataset), *AUDIT, "--out", str(out)]) == 0
    report = strip_volatile(json.loads(out.read_text(encoding="utf-8")))
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_report_matches_golden(case, tmp_path):
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert _first_difference(expected, _report(case, tmp_path)) is None


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


def regenerate():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in sorted(CASES):
            text = json.dumps(_report(case, workdir), indent=2, sort_keys=False) + "\n"
            (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN / case}.json")


if __name__ == "__main__":
    sys.exit(regenerate())
