"""Records as JSON documents, and the one JSON reader, JSON writer, model-file
layer and CSV writer.

A record is a dataclass; its document is an object with exactly one key per
field. Tuples and arrays become lists, nested records become nested objects.
Reading is strict: a document with a missing or an unknown key is refused
with every such key named. Each record's own `__post_init__` converts and
checks the values it is given.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing

import numpy as np

MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """The file is not a well-formed model document."""


class ModelVersionError(ValueError):
    """The file's format version is not supported."""


def to_doc(record):
    """The JSON-ready document of a record (or of any value inside one)."""
    if dataclasses.is_dataclass(record):
        return {f.name: to_doc(getattr(record, f.name)) for f in dataclasses.fields(record)}
    if isinstance(record, np.ndarray):
        return record.tolist()
    if isinstance(record, (tuple, list)):
        return [to_doc(v) for v in record]
    if isinstance(record, dict):
        return {k: to_doc(v) for k, v in record.items()}
    return record


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _build(hint, value):
    """`value` with every record the type hint names built from its document."""
    if dataclasses.is_dataclass(hint):
        return from_doc(hint, value)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _build(args[0], value)
    if typing.get_origin(hint) is tuple and dataclasses.is_dataclass(args[0]):
        return tuple(from_doc(args[0], v) for v in value)
    return value


def from_doc(cls, d):
    """The record of type `cls` whose document is `d`; ValueError names the
    record and every missing or unknown key."""
    if not isinstance(d, dict):
        raise ValueError(f"a {cls.__name__} document must be an object, got {type(d).__name__}")
    types = _field_types(cls)
    missing, unknown = sorted(set(types) - set(d)), sorted(set(d) - set(types))
    if missing or unknown:
        problems = [f"{what} keys {keys}" for what, keys in
                    (("missing", missing), ("unknown", unknown)) if keys]
        raise ValueError(f"{cls.__name__} document has {' and '.join(problems)}")
    return cls(**{name: _build(hint, d[name]) for name, hint in types.items()})


def write_json(path, doc, indent=None) -> None:
    """Write `doc` with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, sort_keys=True, indent=indent) + "\n")


def read_json(path) -> dict:
    """The object a JSON file holds (NaN and Infinity accepted, as written);
    ValueError names the file when it is not UTF-8 JSON or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValueError(f"{path} is not a JSON file: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"{path} holds a {type(doc).__name__}, not a JSON object")
    return doc


def write_model(path, kind: str, record) -> None:
    """Write a model file: the format header, the `kind` tag and the record's document."""
    write_json(path, {"format_version": MODEL_FORMAT_VERSION, "kind": kind, **to_doc(record)})


def read_model(path, kinds: dict):
    """Parse a model file once, check its header, version and kind, and build
    the record of class `kinds[kind]` from the rest of the document; every
    malformed document raises ModelFormatError (ModelVersionError for a
    foreign version)."""
    try:
        doc = read_json(path)
    except ValueError as e:
        raise ModelFormatError(str(e)) from e
    if "format_version" not in doc:
        raise ModelFormatError(f"{path} is missing the format header")
    version = doc.pop("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"{path} has format version {version}, expected {MODEL_FORMAT_VERSION}"
        )
    kind = doc.pop("kind", None)
    if not isinstance(kind, str) or kind not in kinds:
        raise ModelFormatError(
            f"{path} holds a {kind!r} model, expected {' or '.join(map(repr, kinds))}"
        )
    try:
        return from_doc(kinds[kind], doc)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"{path} is malformed: {e}") from e


def _cell(v) -> str:
    if type(v) is float:  # most cells, as rows usually come from `tolist()`
        return repr(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return "" if v is None else str(v)


def write_csv(path, columns, rows, comment=None) -> None:
    """Write an optional `# comment` line, the header line, then one line per
    row: None is an empty cell, a float its `repr`, anything else its `str`."""
    with open(path, "w", encoding="utf-8") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write(",".join(columns) + "\n")
        f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
