"""Typed reads of JSON settings documents.

Every setting the package takes from a JSON document goes through
:func:`read`. It converts only the keys a document holds, so a default is
declared once, in the dataclass or the signature the settings are passed to.
A value of the wrong kind raises ``ValueError`` naming the document and the
key; JSON's loose spots are closed: ``2.5`` is not a frame count and
``"false"`` is not false.
"""

from __future__ import annotations


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

    A Python ``int`` is returned as it is, never through ``float``, so large
    seeds keep every bit. Fractions, booleans and strings raise ``ValueError``.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected a whole number, got {value!r}")


def flag(value) -> bool:
    """JSON ``true`` or ``false``; anything else, ``"false"`` included, raises."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")
