"""Exact rational scalars: parsing and canonical formatting.

Every number in this library is a ``fractions.Fraction``; nothing is ever
rounded.  ``parse_rational`` is the one rule for a number a caller hands
in: an int or a ``Fraction`` is taken as it is, text is read as "p" or
"p/q", and anything else (a float, a bool, a ``Decimal``, decimal or
exponent text) raises ``InputError``.  The printed form is ``p/q``, or
just ``p`` when the denominator is one.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

from .errors import InputError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(value: object) -> Fraction:
    """An int or Fraction as it is, or text "p/q" or "p", as an exact Fraction.

    Floats, bools, Decimals and decimal or exponent text are rejected on
    purpose: inputs are required to be exact.  The refusal quotes text
    stripped and any other value by its repr, so ``Decimal('1')`` is not
    shown as the valid text '1'.
    """
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    text = value.strip() if isinstance(value, str) else value
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise InputError(f"not an exact rational (expected p or p/q): {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:  # digits past the interpreter's int limit
        raise InputError(str(exc)) from exc


def format_rational(x: Fraction) -> str:
    # str(Decimal(n)) spells an int exactly as str(n) does, but without the
    # interpreter's limit on the digits of an int-to-str conversion.
    num = str(Decimal(x.numerator))
    if x.denominator == 1:
        return num
    return f"{num}/{Decimal(x.denominator)}"
