"""The one JSON writer for every artifact: the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` and a final newline.

Any indent sends the standard library's encoder down its pure-Python path,
which takes tenths of a second on a forest of thousands of nodes or a ROC
curve of thousands of points. Here dicts (keys sorted) and lists with a
container among their items are walked in Python, and each list of scalars
goes to the C encoder in one call: with no indent it joins items with the
item separator, so a separator of a comma, a newline and the level's indent
lays the items out exactly as the indented encoder does. write_json hands a
file the pieces as they are made, so the whole text is never held at once;
json_text joins the same pieces for text that is printed or kept as a string.

Every JSON input is read by read_json, so a malformed file ends in one
ConfigError naming it. A number is read through finite_number, and a saved
array through json_array, which also states its shape; both take only a JSON
int or float that is a finite double (float() and np.array would take "0.5"
and count true as 1). Settings, of a config, params or model file alike, go
through from_json, which checks each value against its field's declared type.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError

_SCALARS = frozenset((float, int, str, bool, type(None)))


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n" for an object of
    dicts with string keys, lists, tuples and scalars."""
    chunks = list(_chunks(obj, "\n"))
    chunks.append("\n")
    return "".join(chunks)


def write_json(path, obj) -> None:
    """Write json_text(obj) to path as UTF-8, each piece as it is made."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(obj, "\n"))
        fh.write("\n")


def _chunks(obj, newline: str):
    """obj's text in pieces, at the level whose line breaks are newline: "\\n"
    and the level's indent."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        if not all(type(key) is str for key in obj):
            raise TypeError("json_text writes dicts with string keys only")
        opening = "{"
        for key, value in sorted(obj.items()):
            yield opening + inner + json.dumps(key) + ": "
            yield from _chunks(value, inner)
            opening = ","
        yield newline + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _SCALARS:
            yield "[" + inner
            yield json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        else:
            opening = "["
            for item in obj:
                yield opening + inner
                yield from _chunks(item, inner)
                opening = ","
        yield newline + "]"
    else:  # a scalar, or an empty dict, list or tuple
        yield json.dumps(obj)


def finite_number(v) -> bool:
    """True for an int or float that is a finite double; a JSON true or false
    is not a number."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the doubles
        return False


def json_array(values, what: str, shape=(-1,), dtype=np.float64) -> np.ndarray:
    """A JSON list of finite numbers as an array of dtype and shape; an int64
    array takes only JSON ints, and a bool is never a number. Raises
    ValueError naming what for any other list or for a count that does not
    fill shape, OverflowError for an int beyond dtype."""
    kinds = {int} if dtype == np.int64 else {int, float}
    if not (type(values) is list and set(map(type, values)) <= kinds
            and np.isfinite(array := np.array(values, dtype=dtype)).all()):
        raise ValueError(f"{what} must be a list of finite {np.dtype(dtype).name} values")
    try:
        return array.reshape(shape)
    except ValueError:
        raise ValueError(f"{what} has {array.size} values, not the shape {shape}") from None


def read_json(path, what: str, parse):
    """parse(the JSON value in the UTF-8 file at path). A file that is not
    UTF-8 JSON, or that parse refuses, raises one ConfigError naming path as
    not what; an OSError (a missing file) passes through."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    # ValueError covers JSONDecodeError and UnicodeDecodeError. OverflowError:
    # a JSON integer beyond the doubles, or beyond int64 where an index or
    # count is read. RecursionError: arrays or objects nested too deep to decode
    except (ConfigError, KeyError, IndexError, TypeError, ValueError, OverflowError,
            RecursionError) as err:
        raise ConfigError(f"{path} is not {what} ({type(err).__name__}: {err})") from None


def _json_value(kind, name: str, value, key: str):
    """value if it has the declared type kind (spelled name), else ConfigError.
    An int stands for a float and is read as one; it must be finite (not JSON
    Infinity or NaN, nor the flag values inf or nan); a bool is never a number."""
    if is_dataclass(kind):
        return from_json(kind, value, key + ".")
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple and isinstance(value, (list, tuple)):  # tuple[X, ...]: a JSON list
        return tuple(_json_value(args[0], args[0].__name__, v, f"{key}[{i}]")
                     for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):  # dict[str, X]: a JSON object
        return {k: _json_value(args[1], args[1].__name__, v, f"{key}.{k}")
                for k, v in value.items()}
    if origin not in (tuple, dict) and any(finite_number(value) if k is float
                                           else type(value) is k for k in args or (kind,)):
        return float(value) if type(value) is int and float in (args or (kind,)) else value
    raise ConfigError(f"config key {key!r} must be {name}, got {value!r}")


def json_typed(kind, value, key: str):
    """value if it has the type kind, checked as from_json checks a field;
    else ConfigError naming key."""
    return _json_value(kind, kind.__name__, value, key)


def from_json(cls, obj, where: str = ""):
    """The dataclass cls from a JSON object, each value checked against its
    field's declared type. Keys it does not declare raise ConfigError; keys
    left out take its defaults."""
    if not isinstance(obj, dict):
        section = f"key {where[:-1]!r}" if where else "file"
        raise ConfigError(f"config {section} must hold a JSON object")
    declared = {f.name: f.type for f in fields(cls)}  # type as written, e.g. "str | None"
    unknown = [key for key in obj if key not in declared]
    if unknown:
        raise ConfigError(f"unknown config key {where + unknown[0]!r}")
    hints = get_type_hints(cls)
    return cls(**{key: _json_value(hints[key], declared[key], value, where + key)
                  for key, value in obj.items()})


def settings(cls, obj: dict, **given):
    """from_json(cls) of the keys of obj that name cls's fields, or of given."""
    return from_json(cls, {f.name: given[f.name] if f.name in given else obj[f.name]
                           for f in fields(cls)})


def check_version(version, expected: int, remedy: str) -> None:
    """Refuse a file whose stored format version is not the int expected."""
    if not (type(version) is int and version == expected):
        raise ConfigError(f"version {version!r}; this earlypd reads version {expected}, "
                          f"so {remedy}")
