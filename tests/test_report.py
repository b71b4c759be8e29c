"""Tests for the JSON report layer: sections, rendering, schema validation."""

import json
import re
import sys

import jsonschema
import numpy as np
import pytest

from survquack.errors import NumericalError, ValidationError
from survquack.report import (
    SCHEMA_VERSION,
    build_report,
    load_schema,
    render,
    section,
    strip_volatile,
    validate_report,
    write_report,
)


def make_report(**overrides):
    """A small but schema-complete report for mutation tests."""
    kwargs = dict(
        command="analyze",
        seed=7,
        inputs={"path": "data.csv"},
        sections={"medians": section(data={"rx": 8.0, "c": 6.0})},
    )
    kwargs.update(overrides)
    return build_report(**kwargs)


class TestSection:
    def test_data_section(self):
        s = section(data={"x": 1})
        assert s == {"ok": True, "error": None, "data": {"x": 1}}

    def test_error_section(self):
        s = section(error="it broke")
        assert s == {"ok": False, "error": "it broke", "data": None}

    def test_empty_section_is_ok(self):
        s = section()
        assert s["ok"] is True and s["error"] is None and s["data"] is None

    def test_data_and_error_rejected(self):
        with pytest.raises(ValidationError, match="not both"):
            section(data={"x": 1}, error="boom")

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"x": float("nan")}, "x"),
            ({"x": float("inf")}, "x"),
            ({"x": float("-inf")}, "x"),
            ({"x": [1.0, float("nan")]}, "x.1"),
        ],
        ids=["nan", "inf", "-inf", "nested"],
    )
    def test_non_finite_rejected(self, data, path):
        # JSON holds no NaN or infinity: the section refuses one and names its path
        with pytest.raises(NumericalError, match=rf"^{re.escape(path)} is not a finite number$"):
            section(data=data)


class TestBuildReport:
    def test_layout(self):
        rep = make_report()
        assert rep["tool"] == "survquack"
        assert rep["schema_version"] == SCHEMA_VERSION == "2"
        assert rep["command"] == "analyze"
        assert rep["seed"] == 7
        assert rep["inputs"] == {"path": "data.csv"}
        assert set(rep) == {
            "tool",
            "version",
            "schema_version",
            "command",
            "created",
            "seed",
            "inputs",
            "sections",
        }

    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="unknown command"):
            make_report(command="frobnicate")

    def test_numpy_values_become_native(self):
        rep = make_report(
            sections={
                "s": section(
                    data={
                        "f": np.float64(1.5),
                        "i": np.int64(3),
                        "b": np.bool_(True),
                        "arr": np.arange(3.0),
                    }
                )
            },
        )
        data = rep["sections"]["s"]["data"]
        assert type(data["f"]) is float and data["f"] == 1.5
        assert type(data["i"]) is int and data["i"] == 3
        assert type(data["b"]) is bool and data["b"] is True
        assert data["arr"] == [0.0, 1.0, 2.0]

    def test_tuples_become_lists(self):
        rep = make_report(sections={"s": section(data={"pair": (1, 2)})})
        assert rep["sections"]["s"]["data"]["pair"] == [1, 2]

    @pytest.mark.parametrize("bad", [{1, 2}, object(), 3 + 4j, b"bytes"])
    def test_unserializable_values_rejected(self, bad):
        with pytest.raises(ValidationError, match="cannot go into a report"):
            make_report(sections={"s": section(data={"x": bad})})


class TestRender:
    def test_roundtrip(self):
        rep = make_report()
        back = json.loads(render(rep))
        assert back == rep

    def test_sorted_keys_and_trailing_newline(self):
        text = render(make_report())
        assert text.endswith("}\n")
        # top-level keys appear in sorted order in the serialized text
        order = [k for k in ("command", "created", "inputs", "seed") if f'"{k}"' in text]
        positions = [text.index(f'"{k}"') for k in order]
        assert positions == sorted(positions)

    def test_write_report_to_path(self, tmp_path):
        rep = make_report()
        out = tmp_path / "rep.json"
        text = write_report(rep, path=out)
        assert out.read_text(encoding="utf-8") == text == render(rep)


class TestStripVolatile:
    def test_drops_exactly_created_and_version(self):
        rep = make_report()
        stripped = strip_volatile(rep)
        assert set(rep) - set(stripped) == {"created", "version"}
        for key, value in stripped.items():
            assert rep[key] == value

    def test_two_builds_agree_after_stripping(self):
        a, b = make_report(), make_report()
        assert strip_volatile(a) == strip_volatile(b)


class TestSchema:
    def test_schema_loads_and_passes_good_report(self):
        schema = load_schema()
        assert schema["properties"]["schema_version"]["const"] == SCHEMA_VERSION
        assert validate_report(make_report()) is True

    def test_every_command_validates(self):
        for command in ("analyze", "simulate", "pivot-ci", "eq1-demo"):
            assert validate_report(make_report(command=command)) is True

    def test_error_sections_validate(self):
        rep = make_report(sections={"broken": section(error="no events")})
        assert validate_report(rep) is True

    def test_null_seed_validates(self):
        assert validate_report(make_report(seed=None)) is True

    def test_without_jsonschema_nothing_is_validated(self, monkeypatch):
        # jsonschema is a test dependency only; without it a report, even
        # one the schema rejects, is not checked
        monkeypatch.setitem(sys.modules, "jsonschema", None)
        assert validate_report(make_report()) is None
        assert validate_report(dict(make_report(), tool="duckquack")) is None

    def corrupt(self, mutate):
        rep = json.loads(render(make_report()))
        mutate(rep)
        with pytest.raises(jsonschema.ValidationError):
            validate_report(rep)

    def test_empty_sections_rejected(self):
        self.corrupt(lambda r: r.update(sections={}))

    def test_wrong_tool_rejected(self):
        self.corrupt(lambda r: r.update(tool="duckquack"))

    def test_extra_top_level_key_rejected(self):
        self.corrupt(lambda r: r.update(extra=1))

    def test_missing_field_rejected(self):
        self.corrupt(lambda r: r.pop("seed"))

    def test_ok_flag_must_match_error(self):
        # flipping ok to False without an error string breaks the contract
        self.corrupt(lambda r: r["sections"]["medians"].update(ok=False))

    def test_error_with_data_rejected(self):
        def mutate(r):
            r["sections"]["medians"].update(ok=False, error="boom")

        self.corrupt(mutate)

    def test_string_seed_rejected(self):
        self.corrupt(lambda r: r.update(seed="7"))
