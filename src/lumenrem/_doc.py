"""Records as JSON documents, and the one JSON reader, JSON writer, model-file
layer and CSV writer.

A record is a dataclass; its document is an object with exactly one key per
constructor argument. Tuples and arrays become lists, records nested objects.
Reading is strict: a document with a missing or an unknown key is refused
with every such key named. Each record's own `__post_init__` converts and
checks the values it is given.

A model file stores each array as an object instead: its dtype, its shape and
the base64 of its little-endian bytes, which is smaller than a list of
numbers and parses without a float per element. The dtype must be the
field's (float64, unless the field's metadata names another), so an array is
never cast on reading.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import functools
import json
import math
import typing

import numpy as np

MODEL_FORMAT_VERSION = 2

# the dtype a model file holds an array field in, unless the field's
# `dtype` metadata names another (int32 split features)
_ARRAY_DTYPE = "<f8"


class ModelFormatError(ValueError):
    """The file is not a well-formed model document."""


class ModelVersionError(ValueError):
    """The file's format version is not supported."""


def to_doc(record, array=np.ndarray.tolist):
    """The JSON-ready document of a record (or of any value inside one); each
    array becomes `array(a)`, by default a list."""
    if dataclasses.is_dataclass(record):
        return {name: to_doc(getattr(record, name), array) for name in _field_types(type(record))}
    if isinstance(record, np.ndarray):
        return array(record)
    if isinstance(record, (tuple, list)):
        return [to_doc(v, array) for v in record]
    if isinstance(record, dict):
        return {k: to_doc(v, array) for k, v in record.items()}
    return record


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


@functools.cache
def _field_dtypes(cls) -> dict:
    return {f.name: f.metadata.get("dtype", _ARRAY_DTYPE) for f in dataclasses.fields(cls)}


def _build(hint, value, array, where, dtype):
    """`value` with every record the type hint names built from its document,
    and each array field given to `array(value, where, dtype)` when one is
    passed."""
    if dataclasses.is_dataclass(hint):
        return from_doc(hint, value, array)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _build(args[0], value, array, where, dtype)
    if hint is np.ndarray:
        return value if array is None else array(value, where, dtype)
    origin = typing.get_origin(hint)
    if origin in (tuple, list) and (dataclasses.is_dataclass(args[0]) or args[0] is np.ndarray):
        return origin(_build(args[0], v, array, f"{where}[{i}]", dtype)
                      for i, v in enumerate(value))
    return value


def from_doc(cls, d, array=None):
    """The record of type `cls` whose document is `d`; ValueError names the
    record and every missing or unknown key, a nested record's first. With
    `array`, each array field's value is `array(value, "Record.field", dtype)`,
    `dtype` the one the field's arrays are stored in."""
    if not isinstance(d, dict):
        raise ValueError(f"a {cls.__name__} document must be an object, got {type(d).__name__}")
    types, dtypes = _field_types(cls), _field_dtypes(cls)
    values = {name: _build(hint, d[name], array, f"{cls.__name__}.{name}", dtypes[name])
              for name, hint in types.items() if name in d}
    missing, unknown = sorted(set(types) - set(d)), sorted(set(d) - set(types))
    if missing or unknown:
        problems = [f"{what} keys {keys}" for what, keys in
                    (("missing", missing), ("unknown", unknown)) if keys]
        raise ValueError(f"{cls.__name__} document has {' and '.join(problems)}")
    return cls(**values)


def _encode_array(a: np.ndarray) -> dict:
    dtype = a.dtype.newbyteorder("<").str
    return {"dtype": dtype, "shape": list(a.shape),
            "base64": base64.b64encode(a.astype(dtype, copy=False).tobytes()).decode("ascii")}


def _decode_array(doc, where: str, field_dtype: str) -> np.ndarray:
    """The array an `_encode_array` object describes; ValueError names the
    field (`where`) unless the object has exactly its three keys, the field's
    dtype, a shape of counts, valid base64 and as many items as the shape."""
    if not isinstance(doc, dict) or sorted(doc) != ["base64", "dtype", "shape"]:
        raise ValueError(f"{where} is not an array object with keys base64, dtype and shape")
    dtype, shape = doc["dtype"], doc["shape"]
    if dtype != field_dtype:
        raise ValueError(f"{where} has dtype {dtype!r}, not its field's {field_dtype!r}")
    if not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
        raise ValueError(f"{where} has shape {shape!r}, not a list of counts")
    try:
        raw = base64.b64decode(doc["base64"], validate=True)
    except (binascii.Error, TypeError, ValueError) as e:
        raise ValueError(f"{where} is not valid base64: {e}") from e
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise ValueError(f"{where} holds {len(raw)} bytes, not a whole number of "
                         f"{size}-byte items")
    # the product of Python ints: a huge declared shape is refused, never allocated
    if math.prod(shape) != len(raw) // size:
        raise ValueError(f"{where} declares shape {shape}, but holds {len(raw) // size} items")
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)


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
    """Write a model file: the format header, the `kind` tag and the record's
    document, each array in it an object of dtype, shape and base64 bytes."""
    write_json(path, {"format_version": MODEL_FORMAT_VERSION, "kind": kind,
                      **to_doc(record, _encode_array)})


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
    # 2.0 equals 2 in Python (and True equals 1), so the type is checked too
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"{path} has format version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    kind = doc.pop("kind", None)
    if not isinstance(kind, str) or kind not in kinds:
        raise ModelFormatError(
            f"{path} holds a {kind!r} model, expected {' or '.join(map(repr, kinds))}"
        )
    try:
        return from_doc(kinds[kind], doc, _decode_array)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"{path} is malformed: {e}") from e


def _cell(v) -> str:
    if type(v) is float:  # most cells, as rows usually come from `tolist()`
        return repr(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return "" if v is None else str(v)


def write_csv(path, columns, rows) -> None:
    """Write the header line, then one line per row: None is an empty cell, a
    float its `repr`, anything else its `str`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(columns) + "\n")
        f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
