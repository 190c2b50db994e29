"""The kinds of config values. Each command setting (`cli.SETTINGS`) and
each field of an estimator entry, a scenario or a CSV schema (`declared`)
declares its kind beside its default. `Kind.read` returns the typed value
or raises "<key> must be <kind>, got <value>". A boolean is no number, a
number may be a string (flags are) except in scenario fields, and a null
is a value only of a kind `or_null`. A `Vector`'s length K comes with the
data or the scenario (`dims`); without it, a vector need only be a list.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import numbers

import numpy as np

from .errors import ConfigError

FULL = float("inf")  # the harmonization strength of full harmonization


def repeated(values) -> list:
    """The values that occur more than once, in order of second occurrence."""
    seen, twice = [], []
    for v in values:
        (twice if v in seen and v not in twice else seen).append(v)
    return twice


def refuse_repeats(what: str, values) -> None:
    if repeated(values):
        raise ConfigError(f"{what} must be unique; repeated: {sorted(repeated(values))}")


def refuse_below(key: str, value, least: int) -> None:
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value!r}")


def refuse_unknown(what: str, keys, known, error=ConfigError) -> None:
    if set(keys) - set(known):
        raise error(f"unknown {what} keys: {sorted(set(keys) - set(known))}")


def _check(ok: bool, value):
    if not ok:
        raise ValueError("not of the kind")
    return value


def _number(value, strings: bool = True):
    """A real number; a boolean is none, and a string one where `strings`."""
    if isinstance(value, str) and strings:
        return float(value)
    return _check(isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)),
                  value)


def _sequence(value) -> list | tuple:
    value = value.tolist() if isinstance(value, np.ndarray) else value
    return _check(isinstance(value, (list, tuple)), value)


class Kind:
    """`parse` returns the typed value or raises TypeError or ValueError,
    which `read` turns into `error` naming `key`."""

    null = False

    def __init__(self, want: str, parse=None):
        self.want, self._parse = want, parse

    def parse(self, value, dims=None):
        return self._parse(value)

    def describe(self, dims=None) -> str:
        return self.want

    def __str__(self) -> str:
        return self.describe() + (", or null" if self.null else "")

    def or_null(self) -> Kind:
        kind = copy.copy(self)
        kind.null = True
        return kind

    def read(self, value, key: str, error=ConfigError, dims=None):
        if value is None and self.null:
            return None
        try:
            return self.parse(value, dims)
        except (TypeError, ValueError, OverflowError):
            raise error(f"{key} must be {self.describe(dims)}, got {value!r}") from None


def instance(want: str, types) -> Kind:
    return Kind(want, lambda v: _check(isinstance(v, types), v))


def whole(least: int = 0, strict: bool = False) -> Kind:
    """A whole number >= `least` (0 or 1); `strict` takes an integer alone,
    and otherwise a float or a string of one is read too (2000.0, "2000")."""
    def parse(v):
        _check(not isinstance(v, (bool, np.bool_))
               and (not strict or isinstance(v, numbers.Integral)), v)
        return _check(int(v) == float(v) and int(v) >= least, int(v))
    return Kind(f"a {'positive' if least else 'non-negative'} "
                f"{'integer' if strict else 'whole number'}", parse)


def real(low: float = -math.inf, high: float = math.inf, closed=(False, False),
         strings: bool = True) -> Kind:
    """A number between `low` and `high`, each bound `closed` or not (a NaN
    lies in none), kept as given; a string is read as a float."""
    def parse(v):
        x = _number(v, strings)
        f = float(x)  # OverflowError for an integer beyond any float
        return _check((f >= low if closed[0] else f > low)
                      and (f <= high if closed[1] else f < high), x)
    finite = (low, high, closed) == (-math.inf, math.inf, (False, False))
    return Kind("a finite number" if finite else
                f"a number in {'(['[closed[0]]}{low:g}, {high:g}{')]'[closed[1]]}", parse)


def choice(options) -> Kind:
    return Kind("one of " + ", ".join(options),
                lambda v: _check(isinstance(v, str) and v in options, v))


def listing(item: Kind, noun: str) -> Kind:
    """A list of `item`s, `noun` in its description, as a tuple."""
    return Kind(f"a list of {noun}",
                lambda v: tuple(map(item.parse, _check(isinstance(v, (list, tuple)), v))))


def record(cls, what: str, error=ConfigError, **defaults) -> Kind:
    """An object of the dataclass `cls`'s fields, as a `cls`; a key that
    names no field, or a missing field without a default, is `error`."""
    def build(v):
        fields = dataclasses.fields(cls)
        refuse_unknown(what, _check(isinstance(v, dict), v), [f.name for f in fields], error)
        missing = [f.name for f in fields if f.default is dataclasses.MISSING
                   and f.name not in {**defaults, **v}]
        if missing:
            raise error(f"{what} needs {missing}")
        return cls(**{**defaults, **v})
    return Kind("an object", build)


TEXT = Kind("a non-empty string", lambda v: _check(isinstance(v, str) and v != "", v))
LABEL = Kind("a label", str)
FLAG = instance("true or false", (bool, np.bool_))
_NON_NEGATIVE = real(0.0, FULL, (True, True))
LAMBDA = Kind("a non-negative number or 'full'", lambda v: FULL if (
    isinstance(v, str) and v.strip().lower() == "full") else float(_NON_NEGATIVE.parse(v)))
MATRIX = Kind("a matrix: a list of rows, each a list of numbers",  # its shape is read with K
              lambda v: tuple(tuple(float(_number(x)) for x in _sequence(row))
                              for row in _sequence(v)))


class Vector(Kind):
    """`dims[size]` `item`s, as a tuple, summing to `total` within 1e-12
    where it is set; `scalar` also takes one for all. Without `dims`, a list
    (or a scalar) is taken as given."""

    def __init__(self, item: Kind, size: str = "k", scalar: bool = False, total=None):
        self.item, self.size, self.scalar, self.total = item, size, scalar, total

    def describe(self, dims=None) -> str:
        n = ("K" if self.size == "k" else self.size) if dims is None else dims[self.size]
        if self.scalar:
            return f"{self.item.want}, or a list of {n} of them"
        return (f"numbers: a list of {n}, each {self.item.want}"
                + ("" if self.total is None else f", summing to {self.total:g} within 1e-12"))

    def read(self, value, key: str, error=ConfigError, dims=None):
        if dims is not None:
            return super().read(value, key, error, dims)
        if self.scalar or isinstance(value, (list, tuple)) or (value is None and self.null):
            return value
        raise error(f"{key} must be a list, got {value!r}")

    def parse(self, value, dims=None):
        if self.scalar and not isinstance(value, (list, tuple, np.ndarray)):
            return (self.item.parse(value),) * dims[self.size]
        typed = tuple(map(self.item.parse, _sequence(value)))
        return _check(len(typed) == dims[self.size] and (self.total is None or abs(
            np.asarray(typed, dtype=float).sum() - self.total) <= 1e-12), typed)


def declared(kind: Kind, default=dataclasses.MISSING):  # a field `read_fields` reads
    return dataclasses.field(default=default, metadata={"kind": kind})


def read_fields(obj, error=ConfigError, prefix: str = "", names=None) -> None:
    """Read the `declared` fields of the frozen dataclass `obj` (or those in
    `names`) in order, keeping their typed values; a vector's size is a
    field before it."""
    for f in dataclasses.fields(obj):
        if names is None or f.name in names:
            value = f.metadata["kind"].read(getattr(obj, f.name), prefix + f.name, error,
                                            vars(obj))
            object.__setattr__(obj, f.name, value)
