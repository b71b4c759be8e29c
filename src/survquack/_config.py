"""Typed INI configs, read from a path or from a packaged ``builtin:<name>`` file.

A config's dataclass is its schema (see ``_keys``). Scenario configs (``cli``)
and the fixture spec (``fixtures``) share this reader.
"""

import configparser
import dataclasses
import functools
import os
import typing
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


def _cells(cast):
    """Parser of two comma-separated cells."""

    def parse(raw):
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected two comma-separated values, got {raw!r}")
        return tuple(map(cast, parts))

    return parse


# a key's parser, by its field's type
_PARSE = {
    int: int,
    float: float,
    float | None: float,
    tuple[str, str]: _cells(str),
    tuple[float, float]: _cells(float),
}


@functools.cache
def _keys(cls):
    """({key: parse}, required keys, filled field) of a config dataclass.

    A field of a type in ``_PARSE`` is a key, required when it has no
    default. The one other field is the reader's to fill: the items of a
    top section, or the label of an item's section. Cached per class, as
    resolving the annotations costs more than parsing a config.
    """
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    keys = {f.name: _PARSE[hints[f.name]] for f in fields if hints[f.name] in _PARSE}
    required = tuple(f.name for f in fields if f.name in keys and f.default is dataclasses.MISSING)
    (filled,) = (f.name for f in fields if f.name not in keys)
    return keys, required, filled


def _read_config(spec, what: str, section: str, cls, prefix: str, item_cls):
    """Read a typed INI config into a ``cls``.

    ``spec`` is a path or ``builtin:<name>``. The one [section] section holds
    the keys of ``cls``; each [prefix:<label>] section, in file order, holds
    the keys of one ``item_cls`` named by its label, and these items fill the
    field of ``cls`` that is no key. Unknown sections and keys, values a
    key's parser rejects with ValueError, missing keys and missing sections
    are collected into one ValidationError.
    """
    text, source = _config_text(os.fspath(spec))
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ValidationError(f"{source}: {exc}") from exc

    items_field, label_field = _keys(cls)[2], _keys(item_cls)[2]
    placeholder = f"{prefix}:<{label_field}>"
    problems = []

    def read(name, config_cls):
        types, required, _ = _keys(config_cls)
        fields = {}
        for key, raw in parser[name].items():
            if key not in types:
                problems.append(f"[{name}] unknown key {key!r}")
                continue
            try:
                fields[key] = types[key](raw)
            except ValueError:
                problems.append(f"[{name}] {key}: cannot parse {raw!r}")
        problems.extend(f"[{name}] missing required key {k!r}" for k in required if k not in parser[name])
        return fields

    top = None
    items = []
    for name in parser.sections():
        head, sep, label = name.partition(":")
        if name == section:
            top = read(name, cls)
        elif sep and head == prefix:
            if not label:
                problems.append(f"section [{name}] has an empty label; such sections are named [{placeholder}]")
            items.append((label, read(name, item_cls) if label else {}))
        else:
            problems.append(f"unrecognized section [{name}]")
    if top is None:
        problems.append(f"missing [{section}] section")
    if not items:
        problems.append(f"no [{placeholder}] sections")
    if problems:
        raise ValidationError(
            f"{source}: invalid {what} ({'; '.join(problems[:4])}"
            + (f"; +{len(problems) - 4} more)" if len(problems) > 4 else ")"),
            details=problems,
        )
    return cls(**top, **{items_field: tuple(item_cls(**{label_field: label}, **f) for label, f in items)})
