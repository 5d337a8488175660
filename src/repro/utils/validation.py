"""Argument checks, and the rules config dataclasses declare on their fields.

A config field states its rule once, where it is declared, and its class's
``__post_init__`` calls :func:`check_fields`::

    episodes: int = positive(400, int)
    mode: str = one_of("fast", ("fast", "slow"))

Construction is then the one place a value is judged, and a bad value
fails with one line naming the field.  Values are stored as given, except
that a sequence is stored as a tuple: an ``int`` in a ``float`` field
serializes as the ``int`` it was.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Any, Optional, Sequence, Tuple

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0 (NaN included)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is in [0, 1]."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_sorted(name: str, values: Sequence[float]) -> np.ndarray:
    """Raise ``ValueError`` unless ``values`` is non-decreasing."""
    arr = np.asarray(values, dtype=float)
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ValueError(f"{name} must be sorted in non-decreasing order")
    return arr


_NOUNS = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    str: "a non-empty string",
}


@dataclass(frozen=True)
class Rule:
    """What one field admits; ``rule(name, value)`` returns the value to
    store or raises a one-line ``ValueError`` naming ``name``.

    ``kind`` is ``int`` (bools and non-integers refused), ``float`` (bools,
    non-numbers and non-finite values refused), ``bool``, ``str`` (non-empty,
    and one of ``choices`` when given) or any class.  A number lies in
    ``[low, high]``, or in ``(low, high)`` when ``strict``; a missing bound
    is no bound.  With ``each`` the value is a list or tuple, non-empty
    unless ``empty``, whose entries ``each`` judges; it is stored as a
    tuple.  ``optional`` admits ``None``.
    """

    kind: type = float
    low: Optional[float] = None
    high: Optional[float] = None
    strict: bool = False
    choices: Tuple[str, ...] = ()
    each: Optional["Rule"] = None
    empty: bool = False
    optional: bool = False

    def __call__(self, name: str, value: Any) -> Any:
        if value is None and self.optional:
            return value
        if self.each is not None:
            if not isinstance(value, (list, tuple)) or not (value or self.empty):
                noun = "a list" if self.empty else "a non-empty list"
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            for index, entry in enumerate(value):
                self.each(f"{name}[{index}]", entry)
            return tuple(value)
        numeric = isinstance(value, Real) and not isinstance(value, bool)
        if self.kind is int:
            ok = numeric and isinstance(value, Integral)
        elif self.kind is float:
            ok = numeric and (isinstance(value, Integral) or math.isfinite(value))
        else:
            ok = isinstance(value, self.kind) and value != ""
            ok = ok and (not self.choices or value in self.choices)
        if not ok:
            noun = _NOUNS.get(self.kind, f"a {self.kind.__name__}")
            if self.choices:
                noun = f"one of {', '.join(self.choices)}"
            raise ValueError(f"{name} must be {noun}, got {value!r}")
        low = -math.inf if self.low is None else self.low
        high = math.inf if self.high is None else self.high
        if numeric and not (low < value < high if self.strict else low <= value <= high):
            raise ValueError(f"{name} must be {self._bounds()}, got {value!r}")
        return value

    def _bounds(self) -> str:
        if self.high is None:
            return f"{'>' if self.strict else '>='} {self.low:g}"
        left, right = "()" if self.strict else "[]"
        return f"in {left}{self.low:g}, {self.high:g}{right}"


def _ruled(default: Any, rule: Rule):
    """A dataclass field carrying ``rule``; a ``None`` default admits ``None``."""
    if default is None:
        rule = replace(rule, optional=True)
    return field(default=default, metadata={"rule": rule})


def number(default: Any = MISSING):
    """A field holding any finite number."""
    return _ruled(default, Rule(float))


def positive(default: Any = MISSING, kind: type = float):
    """A field holding a number > 0."""
    return _ruled(default, Rule(kind, low=0, strict=True))


def non_negative(default: Any = MISSING, kind: type = float):
    """A field holding a number >= 0."""
    return _ruled(default, Rule(kind, low=0))


def fraction(default: Any = MISSING, strict: bool = False):
    """A field holding a number in [0, 1], or in (0, 1) when ``strict``."""
    return _ruled(default, Rule(float, low=0, high=1, strict=strict))


def one_of(default: Any, choices: Sequence[str]):
    """A field holding one of the strings ``choices``."""
    return _ruled(default, Rule(str, choices=tuple(choices)))


def boolean(default: Any = MISSING):
    """A field holding ``True`` or ``False``."""
    return _ruled(default, Rule(bool))


def text(default: Any = MISSING):
    """A field holding a non-empty string."""
    return _ruled(default, Rule(str))


def sequence_of(default: Any, each: Any, empty: bool = False):
    """A field holding a list or tuple, non-empty unless ``empty``, stored as
    a tuple.  ``each`` is another helper's field, whose rule judges every
    entry, or a class every entry is an instance of."""
    entry = Rule(each) if isinstance(each, type) else each.metadata["rule"]
    return _ruled(default, Rule(each=entry, empty=empty))


def check_fields(obj: Any) -> None:
    """Judge every ruled field of the dataclass ``obj``, storing back the
    tuple a sequence rule returns."""
    for f in fields(obj):
        rule = f.metadata.get("rule")
        if rule is not None:
            value = getattr(obj, f.name)
            checked = rule(f.name, value)
            if checked is not value:
                object.__setattr__(obj, f.name, checked)
