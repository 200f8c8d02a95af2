"""Exact rational parsing and formatting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcla.rationals import format_rational, parse_rational


def test_parse():
    assert parse_rational("5") == 5
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 3/9 ") == Fraction(1, 3)
    assert parse_rational("+4/6") == Fraction(2, 3)


@pytest.mark.parametrize("bad", ["0.25", "1e3", "3/0", "a", "", "1/-2", "--3"])
def test_parse_rejects_inexact_forms(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-9, 4)) == "-9/4"
    assert format_rational(Fraction(0)) == "0"


def test_format_past_the_int_digit_limit():
    # Longer than the interpreter's default limit on int-to-str digits.
    assert format_rational(Fraction(-(10**5000) - 1, 2)) == "-1" + "0" * 4999 + "1/2"
    assert format_rational(Fraction(10**5000)) == "1" + "0" * 5000


@settings(max_examples=100, derandomize=True)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_round_trip(num, den):
    x = Fraction(num, den)
    assert parse_rational(format_rational(x)) == x
