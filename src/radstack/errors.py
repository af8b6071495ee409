"""Exception types shared across the stack, and the field readers every input
boundary reads its values with.

A reader takes a value, its field path (e.g. ``lanes[0].speed_limit``) and the
boundary's error type. It returns the value as the program uses it, or raises
that error as ``{path}: expected {what}, got {value!r}``, the value's repr
shortened by reprlib. A bool or a str is never a number, and every number is
finite.
"""

import json
import reprlib
import sys
from itertools import chain

import numpy as np


class RadstackError(Exception):
    """Base class for all package errors."""


class ParseError(RadstackError):
    """A file could not be parsed against its documented format."""


class ValidationError(RadstackError):
    """A parsed value violates a documented invariant.

    The message names the offending field path (e.g. ``route[2]``).
    """


class IoError(RadstackError):
    """A file could not be read or written."""


class OffMapError(RadstackError):
    """The ego pose has no lane within the localization radius, or no lane
    chain that continues ahead of it."""


class DegenerateClusterError(RadstackError):
    """An empty k-means cluster could not be re-seeded."""


class DivergenceError(RadstackError):
    """Training loss became non-finite."""


class HorizonMismatchError(RadstackError):
    """A trajectory, vocabulary or model does not share horizon/dt with the proposal set."""


class ConfigError(RadstackError):
    """A config document contains unknown keys or bad values."""


# --------------------------------------------------------------------------
# Files: what names the file in the error (e.g. "scenario file").


def read_text(path, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise IoError(f"cannot read {what} {path}: {e}") from e


def read_json(path, what: str):
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed {what} {path}: {e}") from e


def load_json(path, what: str, parse, error):
    """parse(document) of a JSON file; its `error` names the file."""
    doc = read_json(path, what)
    try:
        return parse(doc)
    except error as e:
        raise error(f"malformed {what} {path}: {e}") from e


def write_text(path, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise IoError(f"cannot write {what} {path}: {e}") from e


# --------------------------------------------------------------------------
# Field readers


def expected(error, path: str, what: str, value) -> Exception:
    """The error every reader raises; an empty path leaves the prefix out.
    It carries `what`, for a text boundary to re-word (see from_text)."""
    text = f"expected {what}, got {reprlib.repr(value)}"
    err = error(f"{path}: {text}" if path else text)
    err.what = what
    return err


def from_text(text: str, read, path: str = "", error=ValidationError, **bounds):
    """read(value, path, error, **bounds) of a value given as text (a flag, a
    file field, an environment variable): the int or float it spells, else
    the text itself, which every number reader rejects. The error shows the
    text as given."""
    try:
        value = int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:
        value = text
    try:
        return read(value, path, error, **bounds)
    except error as e:
        raise expected(error, path, e.what, text) from None


_MAX = sys.float_info.max


def finite(v) -> bool:
    """v is an int or float, not a bool, and finite."""
    # The bounds are False for NaN and inf, and compare a huge int exactly.
    t = type(v)
    return (t is float or t is int or (t is not bool and isinstance(v, (float, int)))) and -_MAX <= v <= _MAX


def number(v, path: str, error=ValidationError, *, above=None, at_least=None, at_most=None) -> float:
    """v as a finite float within the given bounds."""
    if (
        finite(v)
        and (above is None or v > above)
        and (at_least is None or v >= at_least)
        and (at_most is None or v <= at_most)
    ):
        return float(v)
    bounds = (f"{op} {b}" for op, b in ((">", above), (">=", at_least), ("<=", at_most)) if b is not None)
    raise expected(error, path, " ".join(["a finite number", " and ".join(bounds)]).rstrip(), v)


def integer(v, path: str, error=ValidationError, *, at_least=None) -> int:
    """v as an int; an integral float counts."""
    if finite(v) and v == int(v) and (at_least is None or v >= at_least):
        return int(v)
    raise expected(error, path, "an integer" + ("" if at_least is None else f" >= {at_least}"), v)


def string(v, path: str, error=ValidationError, choices=None) -> str:
    """v as a str, one of `choices` if given."""
    if isinstance(v, str) and (choices is None or v in choices):
        return v
    raise expected(error, path, "a string" if choices is None else f"one of {list(choices)}", v)


def obj(v, path: str, error=ValidationError, required=(), optional=()) -> dict:
    """v as a dict holding every required key. A key in neither list is an
    error, unless optional is None, which allows any other key."""
    if not isinstance(v, dict):
        raise expected(error, path, "an object", v)
    for key in required:
        if key not in v:
            raise error(f"{path}.{key}: missing" if path else f"{key}: missing")
    if optional is not None and len(v) > len(required):  # every required key is in v
        unknown = set(v).difference(required, optional)
        if unknown:
            raise error(f"{path}: unknown keys {sorted(unknown)}" if path else f"unknown keys {sorted(unknown)}")
    return v


def items(v, path: str, error=ValidationError) -> list:
    """(field path, element) of each element of the list v."""
    if not isinstance(v, list):
        raise expected(error, path, "a list", v)
    return [(f"{path}[{i}]", x) for i, x in enumerate(v)]


def array(v, path: str, error, shape, what: str) -> np.ndarray:
    """Nested lists v as a float array of `shape`, whose first length may be
    open (None).

    One conversion and one scan of the element types check a good value. The
    first bad part of a bad value is reported: a bad number at its own path
    (``goal[2]``), a list of the wrong length as the whole value, which
    `what` describes.
    """
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        a = None
    if (
        a is not None
        and a.ndim == len(shape)
        and a.shape[1:] == shape[1:]
        and shape[0] in (None, a.shape[0])
        and _all(np.isfinite(a), None)
        and _no_bool_or_str(v, a.ndim)
    ):
        return a
    _raise_first_bad(v, path, error, shape, lambda: expected(error, path, what, v))
    return np.zeros([n or 0 for n in shape])  # an empty list with open inner sizes


_all = np.logical_and.reduce  # ndarray.all() goes through a Python-level wrapper


def _no_bool_or_str(v, depth: int) -> bool:
    # np.asarray takes True as 1.0 and "3.5" as 3.5; the JSON types say which it was.
    for _ in range(depth - 1):
        v = chain.from_iterable(v)
    return {bool, str}.isdisjoint(map(type, v))


def _raise_first_bad(v, path: str, error, shape, bad_shape):
    if not shape:
        number(v, path, error)
    elif isinstance(v, (list, tuple)) and shape[0] in (None, len(v)):
        for i, x in enumerate(v):
            _raise_first_bad(x, f"{path}[{i}]", error, shape[1:], bad_shape)
    else:
        raise bad_shape()
