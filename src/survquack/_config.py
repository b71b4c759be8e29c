"""Typed INI configs, read from a path or from a packaged ``builtin:<name>`` file.

Scenario configs (``cli``) and the fixture spec (``fixtures``) share this reader.
"""

import configparser
import os
from importlib import resources

from .errors import ValidationError


def _config_text(spec: str):
    """Resolve a config path; ``builtin:<name>`` loads a packaged file."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        res = resources.files("survquack").joinpath(f"data/{name}.cfg")
        if not res.is_file():
            raise ValidationError(f"no builtin config named {name!r}")
        return res.read_text(), spec
    try:
        with open(spec, encoding="utf-8") as fh:
            return fh.read(), spec
    except OSError as exc:
        raise ValidationError(f"cannot open config: {exc}") from exc


def _read_config(spec, what: str, schema) -> dict:
    """Parse a typed INI config into {section: {key: value}}, in file order.

    ``spec`` is a path or ``builtin:<name>``. ``schema`` maps each section
    name, or ``prefix:<placeholder>`` for labelled sections, to
    ({key: parse}, required keys), and each entry must appear at least
    once. Unknown sections and keys, values ``parse`` rejects with
    ValueError and missing keys are collected into one ValidationError.
    """
    text, source = _config_text(os.fspath(spec))
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ValidationError(f"{source}: {exc}") from exc

    problems = []
    found = {}
    seen = set()
    for section in parser.sections():
        head, sep, label = section.partition(":")
        names = [k for k in schema if k == section or (sep and k.startswith(head + sep))]
        if not names:
            problems.append(f"unrecognized section [{section}]")
            continue
        seen.add(names[0])
        if sep and not label:
            problems.append(f"section [{section}] has an empty label; such sections are named [{names[0]}]")
            continue
        types, required = schema[names[0]]
        fields = {}
        for key, raw in parser[section].items():
            if key not in types:
                problems.append(f"[{section}] unknown key {key!r}")
                continue
            try:
                fields[key] = types[key](raw)
            except ValueError:
                problems.append(f"[{section}] {key}: cannot parse {raw!r}")
        problems.extend(
            f"[{section}] missing required key {k!r}" for k in required if k not in parser[section]
        )
        found[section] = fields
    for name in schema:
        if name not in seen:
            problems.append(f"no [{name}] sections" if ":" in name else f"missing [{name}] section")
    if problems:
        raise ValidationError(
            f"{source}: invalid {what} ({'; '.join(problems[:4])}"
            + (f"; +{len(problems) - 4} more)" if len(problems) > 4 else ")"),
            details=problems,
        )
    return found
