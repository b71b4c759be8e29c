"""The package's one public-name list, what importing it loads, its config schemas and its mutant list."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

import survquack
from survquack import cli, fixtures, sim

import mutants

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_public_names_are_unique_and_resolve():
    assert len(survquack.__all__) == len(set(survquack.__all__))
    for name in survquack.__all__:
        assert hasattr(survquack, name), name


def test_readme_library_map_names_are_public():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Library map\s+```python\s+from survquack import \((.*?)\)", text, re.S)
    assert block is not None, "README lost its library-map import block"
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert names
    assert [n for n in names if n not in survquack.__all__ or not hasattr(survquack, n)] == []


def test_import_leaves_the_cli_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survquack.__file__)))
    code = "import sys, survquack; print('survquack.cli' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _span_targets():
    """perfbench/spans.py's TARGETS, read as a literal without importing it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no TARGETS")


def test_benchmark_trace_targets_resolve():
    # the traced benchmark run wraps each target and reads the fifth
    # argument of mw_acceptance_region as its draw count
    targets = _span_targets()
    assert targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"survquack.{module}"), name, None)), (module, name)
    params = list(inspect.signature(survquack.infer.mw_acceptance_region).parameters)
    assert params[4] == "mc_reps"


@pytest.mark.parametrize(
    "schema, section, fields, derived",
    [
        (cli._SCENARIO_SCHEMA, "scenario", sim.ScenarioConfig, {"subgroups"}),
        (cli._SCENARIO_SCHEMA, "subgroup:<label>", sim.SubgroupSpec, {"label"}),
        (fixtures._SPEC_SCHEMA, "dataset", fixtures.OakAnalogSpec, {"factors"}),
        (fixtures._SPEC_SCHEMA, "factor:<name>", fixtures.FactorSpec, {"name"}),
    ],
    ids=["scenario", "subgroup", "dataset", "factor"],
)
def test_config_schema_keys_are_the_dataclass_fields(schema, section, fields, derived):
    # a field removed from one side only leaves a key that parses into
    # nothing, or a field no config can set; ``derived`` comes from the
    # section names, not from keys
    keys, required = schema[section]
    assert set(keys) == {f.name for f in dataclasses.fields(fields)} - derived
    assert set(required) <= set(keys)


# The private names of sim, estim and the worker pool that the study's and
# the pool's tests may use: the block and derivation sizes, the smallest
# share, the share function, the pool hooks and the draw seam. Any other is
# an internal that a contract test should not pin.
_STUDY_TEST_PRIVATES = {
    "_BLOCK", "_STREAM_ROWS", "_MIN_CHUNK", "_tally_chunk", "_shutdown_pool", "_worker_pool", "_warm",
    "_draw_block",
}


def _private_names(tree, modules):
    """Private names of ``modules`` that ``tree`` reads as attributes
    (``sim._x``), imports (``from survquack.sim import _x``) or passes by
    string (``monkeypatch.setattr(sim, "_x", ...)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module in {f"survquack.{m}" for m in modules}:
            names = [alias.name for alias in node.names]
        elif (
            isinstance(node, ast.Call) and len(node.args) > 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
        ):
            names = [node.args[1].value]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_study_tests_name_no_other_private_name():
    for name in ("test_sim.py", "test_pool.py"):
        with open(os.path.join(os.path.dirname(__file__), name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        assert set(_private_names(tree, ("sim", "estim", "_pool"))) - _STUDY_TEST_PRIVATES == set(), name


def test_each_mutant_applies_once_and_names_collected_tests():
    # runs no mutant: tests/mutants.py does, on demand
    for name, mutant in mutants.MUTANTS.items():
        with open(mutants.ROOT / "src" / "survquack" / mutant.file, encoding="utf-8") as fh:
            assert fh.read().count(mutant.text) == 1, name
        assert mutant.tests and mutant.replacement != mutant.text, name
    ids = sorted({node for mutant in mutants.MUTANTS.values() for node in mutant.tests})
    argv = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids]
    done = subprocess.run(argv, cwd=mutants.ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = done.stdout.splitlines()
    assert [node for node in ids if not any(line.split("[")[0] == node for line in collected)] == []
