"""Exact rational scalars: parsing and canonical formatting.

Every number in this library is a ``fractions.Fraction``; nothing is ever
rounded.  The printed form is ``p/q``, or just ``p`` when the denominator
is one.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction.

    Decimal and exponent notation are rejected on purpose: inputs are
    required to be exact.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational (expected p or p/q): {text!r}")
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
