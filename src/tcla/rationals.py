"""Exact rational scalars: parsing and canonical formatting.

Every number in this library is a ``fractions.Fraction``; nothing is ever
rounded.  The printed form is ``p/q``, or just ``p`` when the denominator
is one.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .errors import InputError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction.

    Decimal and exponent notation are rejected on purpose: inputs are
    required to be exact.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
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
