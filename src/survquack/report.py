"""Structured JSON reports with a published schema.

Every CLI command emits one report document. The layout is stable:
tool identity, schema version, the command, the seed that drove any
randomness, an echo of the inputs, and named sections each carrying
either data or an error string. Reports are rendered with sorted keys
and no NaN/Infinity so that two runs with the same seed are
byte-identical apart from the ``created`` timestamp and tool version,
which are excluded from the determinism contract.
"""

from __future__ import annotations

import datetime
import json
import math
from importlib import resources

import numpy as np

from ._version import __version__
from .errors import NumericalError, ValidationError

__all__ = [
    "SCHEMA_VERSION",
    "section",
    "build_report",
    "render",
    "write_report",
    "strip_volatile",
    "load_schema",
    "validate_report",
]

SCHEMA_VERSION = "2"

_COMMANDS = ("analyze", "simulate", "pivot-ci", "eq1-demo")


def _jsonable(obj, path=()):
    """``obj`` in JSON's types; a float that is not finite (JSON holds none) is
    a NumericalError naming its ``path`` of keys and list indices, dot-joined."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, (*path, k)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, (*path, i)) for i, v in enumerate(obj)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist(), path)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        if not math.isfinite(obj):
            raise NumericalError(f"{'.'.join(map(str, path))} is not a finite number")
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise ValidationError(f"value of type {type(obj).__name__} cannot go into a report")


def section(data=None, error=None, _path=None) -> dict:
    """One report section: ``ok`` is true exactly when there is no error. ``data`` is converted
    here, once; a float in it that is not finite is named by its path from the section name ``_path``."""
    if error is not None and data is not None:
        raise ValidationError("a section carries data or an error, not both")
    return {"ok": error is None, "error": error, "data": _jsonable(data, () if _path is None else (_path,))}


def build_report(command: str, seed, inputs: dict, sections: dict) -> dict:
    """The report document; ``sections`` holds ``section`` results, whose data is converted already."""
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    return {
        "tool": "survquack",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": _jsonable(seed),
        "inputs": _jsonable(inputs, ("inputs",)),
        "sections": sections,
    }


def render(report: dict) -> str:
    # sorted keys + allow_nan=False give stable, strictly valid JSON
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(report: dict, path=None, stream=None):
    """Write the rendered report to ``path``, or to ``stream`` (stdout-ish)."""
    text = render(report)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif stream is not None:
        stream.write(text)
    return text


def strip_volatile(report: dict) -> dict:
    """Drop the fields excluded from byte-determinism (timestamp, version)."""
    return {k: v for k, v in report.items() if k not in ("created", "version")}


def load_schema() -> dict:
    text = resources.files("survquack").joinpath("data/report_schema.json").read_text()
    return json.loads(text)


def validate_report(report: dict):
    """Validate against the published schema if jsonschema is installed.

    Returns True on success, None when jsonschema is unavailable; raises
    jsonschema.ValidationError on a schema violation.
    """
    try:
        import jsonschema
    except ImportError:
        return None
    jsonschema.validate(report, load_schema())
    return True
