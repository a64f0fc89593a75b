"""Parsers for the values a configuration holds.

Every config key and procedure setting is read by one of these, so each kind
of value has one rule. A parser is ``parse(value)``: it returns the decoded
JSON value in the form the library takes, or raises ValidationError; the
caller puts the key path in front, as ``check`` does for a value that a
library caller passes. ``prior`` holds one parser per model
family, since each family names its prior's keys. No numpy here: every
command parses a config, and only ``simulate`` draws data.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable

from .errors import ValidationError
from .hypotheses import LossRatio
from .inference import FAMILIES, Family, _is_count
from .regions import Interval, RegionSet

_FLOAT_MAX = sys.float_info.max


def number(value) -> float:
    # a bool is an int to Python but no number in a config; the comparison
    # rejects NaN, the infinities and ints beyond the float range. The type
    # test first takes the common case, a float, in one step.
    if type(value) is float or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    ):
        if -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
    raise ValidationError(f"must be a finite number, got {value!r}")


def integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"must be an integer, got {value!r}")
    return value


def flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"must be true or false, got {value!r}")
    return value


def string(value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"must be a string, got {value!r}")
    return value


def check(key: str, parse: Callable, value) -> None:
    """Check a value by the parser of its kind, the error naming the key."""
    try:
        parse(value)
    except ValidationError as exc:
        raise ValidationError(f"{key}: {exc}") from None


def _limited(parse: Callable, test: Callable, wanted: str) -> Callable:
    """``parse``, taking only the values for which ``test`` holds."""

    def limited(value):
        v = parse(value)
        if not test(v):
            raise ValidationError(f"must be {wanted}, got {v!r}")
        return v

    return limited


count = _limited(integer, _is_count, "an integer in [0, 2**63)")
# any non-negative integer: a SeedSequence takes them all
seed = _limited(integer, lambda s: s >= 0, "a non-negative integer")
probability = _limited(number, lambda p: 0.0 < p < 1.0, "in (0, 1)")
threshold = _limited(number, lambda t: t >= 1.0, "at least 1")


def one_of(*choices: str) -> Callable:
    """A parser of one of the strings ``choices``."""
    expected = " or ".join(map(repr, choices))

    def parse(value) -> str:
        if value not in choices:
            raise ValidationError(f"must be {expected}, got {value!r}")
        return value

    return parse


def list_of(item: Callable) -> Callable:
    """A parser of a list whose items ``item`` reads, giving a tuple."""

    def parse(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"must be a list, got {value!r}")
        out = []
        try:
            for v in value:
                out.append(item(v))
        except ValidationError as exc:
            raise ValidationError(f"item {len(out)}: {exc}") from None
        return tuple(out)

    return parse


def interval(value) -> Interval:
    """A number for a single point, [lo, hi] for a closed interval, or
    [lo, hi, lo_open, hi_open]."""
    if not isinstance(value, (list, tuple)):
        point = number(value)
        return Interval(point, point)
    if len(value) == 2:
        return Interval(number(value[0]), number(value[1]))
    if len(value) == 4:
        lo, hi = number(value[0]), number(value[1])
        return Interval(lo, hi, flag(value[2]), flag(value[3]))
    raise ValidationError(
        f"must be a number, [lo, hi] or [lo, hi, lo_open, hi_open], got {value!r}"
    )


model_family = one_of(*FAMILIES)
numbers = list_of(number)
counts = list_of(count)
_intervals = list_of(interval)


def region(value) -> RegionSet:
    """A non-empty list of intervals and points: a hypothesis the config
    states must hold some effect."""
    items = _intervals(value)
    if not items:
        raise ValidationError("must list at least one interval or point, got []")
    return RegionSet(items)


def bounds(value) -> str | tuple[float, float]:
    if value == "partition_hull":
        return value
    if isinstance(value, (list, tuple)) and len(value) == 2:
        lo, hi = number(value[0]), number(value[1])
        if lo < hi:
            return lo, hi
    raise ValidationError(f'must be "partition_hull" or [lo, hi], got {value!r}')


def loss_ratio(value) -> LossRatio:
    """A number, or [lo, hi] for an interval of loss ratios."""
    if not isinstance(value, (list, tuple)):
        return LossRatio.scalar(number(value))
    if len(value) != 2:
        raise ValidationError(f"must be a number or [lo, hi], got {value!r}")
    return LossRatio(number(value[0]), number(value[1]))


def _prior(row: Family, value) -> tuple[float, float]:
    """The two numbers of a family's prior, the object of the row's two
    prior keys, {alpha, beta} or {mean, sd}; the prior must be proper."""
    keys = row.prior_keys
    if not isinstance(value, dict) or set(value) != set(keys):
        raise ValidationError(f"must be an object with keys {keys}, got {value!r}")
    params = number(value[keys[0]]), number(value[keys[1]])
    if not row.proper(*params):
        raise ValidationError(f"must be a proper prior, got {value!r}")
    return params


# the parser of each model family's prior
prior = {name: functools.partial(_prior, row) for name, row in FAMILIES.items()}
