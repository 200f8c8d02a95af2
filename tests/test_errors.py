"""Bad input is one error type: every argument rule raises ``InputError``
where the rule is stated, and it is both a ``TclaError`` and a
``ValueError``."""

import sys
from decimal import Decimal

import pytest

from tcla import (
    BaseElement,
    CurrentElement,
    InputError,
    Root,
    SpecialLinear,
    TclaError,
    TruncatedAlgebra,
    VermaModule,
    WeightFunctional,
    algebra,
    criterion_reducible,
    cross_validate,
    enumerate_monomials,
    scan_reducible,
    virasoro_lines,
)
from tcla.lie_core import MatrixAlgebra
from tcla.rationals import parse_rational

SL2 = algebra("sl2")
SL3 = algebra("sl3")
VIR = algebra("virasoro")
SL2_N1 = TruncatedAlgebra(SL2, 1)
SL3_N1 = TruncatedAlgebra(SL3, 1)
SL2_WEIGHT = WeightFunctional([(5,), (3,)])

CASES = {
    "algebra name": (lambda: algebra("nope"), r"^unknown algebra 'nope'; available: sl2, "),
    "nilp 0": (lambda: TruncatedAlgebra(SL2, 0), r"^nilpotency order must be >= 1: order 0 is "),
    "element": (
        lambda: SL2_N1.check(CurrentElement(BaseElement.cartan(3), 0)),
        r"^sl2: Cartan index 3 out of range$",
    ),
    "coroot": (lambda: SL3.coroot(Root((2, 0))), r"^sl3: \(2,0\) is not a positive root$"),
    "chi arity": (
        lambda: enumerate_monomials(Root((1,)), SL3_N1),
        r"^chi has 1 coordinates but sl3 has 2 simple generator\(s\)$",
    ),
    "chi sign": (
        lambda: enumerate_monomials(Root((1, -1)), SL3_N1),
        r"^chi coordinates must be nonnegative, got \(1,-1\)$",
    ),
    "no levels": (lambda: WeightFunctional([]), r"^a weight functional needs at least one level$"),
    "level": (lambda: SL2_WEIGHT.level(5), r"^level 5 out of range 0\.\.1$"),
    "Cartan name": (
        lambda: WeightFunctional.from_named(SL2, 1, [{"h1": 1}, {"h9": 2}]),
        r"^level 1: unknown Cartan name\(s\) \['h9'\]; expected among \['h1'\]$",
    ),
    "weight shape": (
        lambda: VermaModule(SL2_N1, WeightFunctional([(1,), (2,), (3,)])),
        r"^weight has 3 levels but the algebra needs 2$",
    ),
    "criterion height": (lambda: criterion_reducible(SL2_WEIGHT, SL2_N1, 0), r"^max_root_height must be >= 1$"),
    "scan height": (lambda: scan_reducible(SL2_WEIGHT, SL2_N1, -1), r"^max_height must be >= 0$"),
    "samples": (lambda: cross_validate(SL2, 1, samples=0, seed=1), r"^samples must be >= 1$"),
    "m_max": (lambda: virasoro_lines(0), r"^m_max must be >= 1$"),
    "rational": (lambda: parse_rational("0.5"), r"^not an exact rational \(expected p or p/q\): '0\.5'$"),
    "float value": (lambda: WeightFunctional([(0.5,)]), r"^not an exact rational \(expected p or p/q\): 0\.5$"),
    "bool value": (lambda: WeightFunctional([(True,)]), r"^not an exact rational \(expected p or p/q\): True$"),
    "Decimal value": (
        lambda: WeightFunctional([(Decimal("1"),)]),
        r"^not an exact rational \(expected p or p/q\): Decimal\('1'\)$",
    ),
    "None value": (lambda: WeightFunctional([(None,)]), r"^not an exact rational \(expected p or p/q\): None$"),
    "named value": (
        lambda: WeightFunctional.from_named(VIR, 1, [{"L0": "0.5"}, {}]),
        r"^level 0, L0: not an exact rational",
    ),
    "matrix entry": (
        lambda: MatrixAlgebra("float-h", {BaseElement.cartan(0): {(0, 0): 0.5, (1, 1): -0.5}}),
        r"^not an exact rational \(expected p or p/q\): 0\.5$",
    ),
    "sl(n)": (lambda: SpecialLinear(1), r"^sl\(n\) needs n >= 2$"),
}


@pytest.mark.parametrize("call, message", list(CASES.values()), ids=list(CASES))
def test_bad_input_raises_input_error(call, message):
    with pytest.raises(InputError, match=message) as exc:
        call()
    assert isinstance(exc.value, TclaError) and isinstance(exc.value, ValueError)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_parse_rational_refuses_digits_past_the_int_limit():
    with pytest.raises(InputError, match="Exceeds the limit"):
        parse_rational("9" * 5000)
