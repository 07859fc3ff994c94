"""Typed reads of JSON settings documents.

Every setting the package takes from a JSON document goes through
:func:`read`. It converts only the keys a document holds, so a default is
declared once, in the dataclass or the signature the settings are passed to.
A value of the wrong kind raises ``ValueError`` naming the document and the
key; JSON's loose spots are closed: ``2.5`` is not a frame count,
``"false"`` is not false and ``NaN`` is not a number. :func:`check` and
:func:`count` hold the library's own classes and functions to the same rule.
"""

from __future__ import annotations

import math
import numbers


def read(doc, where: str, **convert) -> dict:
    """Convert the keys of ``doc`` named in ``convert``, each by its function.

    Keys absent from ``doc`` are absent from the result; keys of ``doc`` not
    named are ignored. ``where`` names the document in error messages.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    values = {}
    for key, to_value in convert.items():
        if key in doc:
            try:
                values[key] = to_value(doc[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where} field {key!r}: {exc}") from exc
    return values


def whole(value) -> int:
    """A whole number as an exact ``int``: ``4`` and ``4.0`` read as 4.

    An integer, a numpy integer too, is converted by ``int``, never through
    ``float``, so large seeds keep every bit. Fractions, booleans and strings
    raise ``ValueError``.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected a whole number, got {value!r}")


def number(value) -> float:
    """A finite number as a ``float``: ``3`` and ``3.0`` read as 3.0.

    Python's ``json`` reads the ``NaN`` and ``Infinity`` literals, which pass
    every range check written ``x < 0``; they raise here, as do booleans and
    strings.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            converted = float(value)
        except OverflowError:  # an integer too large for a float
            converted = math.inf
        if math.isfinite(converted):
            return converted
    raise ValueError(f"expected a finite number, got {value!r}")


def triple(value) -> tuple[float, float, float]:
    """Three finite numbers, as a tuple of floats: a point or a translation."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"expected 3 numbers, got {value!r}")
    return tuple(number(x) for x in value)


def flag(value) -> bool:
    """JSON ``true`` or ``false``; anything else, ``"false"`` included, raises."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def count(name: str, value, least: int) -> int:
    """``value`` as an exact ``int`` (:func:`whole`) of at least ``least``; a
    fraction, a boolean or a smaller count raises ``ValueError`` naming it."""
    try:
        value = whole(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


_RULES = {
    "finite": lambda x: True,
    "positive": lambda x: x > 0,
    "non-negative": lambda x: x >= 0,
    "in (0, 1]": lambda x: 0 < x <= 1,
    "in [0, 1)": lambda x: 0 <= x < 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
}


def _number(x) -> bool:
    # booleans (numpy's and 0-d bool arrays too) and strings are not numbers
    return isinstance(x, float) or not isinstance(x, (bool, str)) and getattr(x, "dtype", None) != bool


def check(name: str, value, rule: str = "finite") -> None:
    """Raise ``ValueError`` unless ``value``, a number or a sequence of
    numbers, is finite and meets ``rule``: "finite", "positive",
    "non-negative", "in (0, 1]", "in [0, 1)" or "in [0, 1]".

    NaN, infinity, booleans and strings fail every rule, where a test written
    ``x <= 0`` lets NaN through; numpy numbers pass, 0-d arrays too.
    """
    meets = _RULES[rule]
    for x in value if isinstance(value, (tuple, list)) else (value,):
        if not (_number(x) and math.isfinite(x) and meets(x)):
            raise ValueError(f"{name} must be {rule}, got {value}")
