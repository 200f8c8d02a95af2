"""Truncated current algebra: element checks and bracket truncation."""

import random

import pytest

from helpers import cartan, lin_sum, lowering, raising, rand_generator
from tcla import (
    BaseElement,
    CurrentElement,
    InvalidAlgebraError,
    Root,
    TruncatedAlgebra,
    UnknownElementError,
    algebra,
)

ALPHA = Root((1,))


def test_nilp_must_be_positive():
    with pytest.raises(InvalidAlgebraError, match="order 0"):
        TruncatedAlgebra(algebra("sl2"), 0)
    with pytest.raises(InvalidAlgebraError):
        TruncatedAlgebra(algebra("virasoro"), -1)


def test_degree_out_of_range_is_rejected():
    alg = TruncatedAlgebra(algebra("sl2"), 1)
    bad = CurrentElement(BaseElement.cartan(0), 2)
    with pytest.raises(UnknownElementError, match="degree"):
        alg.check(bad)
    with pytest.raises(UnknownElementError):
        alg.bracket(bad, bad)


def test_check_validates_each_element_once(monkeypatch):
    alg = TruncatedAlgebra(algebra("sl3"), 2)
    x = lowering(Root((1, 1)), 2)
    calls = []
    check_element = alg.base.check_element
    monkeypatch.setattr(alg.base, "check_element", lambda x: calls.append(x) or check_element(x))
    for _ in range(3):
        alg.check(x)
        alg.bracket(x, x)
    assert calls == [x.elem]


def test_check_rejects_an_invalid_element_on_every_call():
    alg = TruncatedAlgebra(algebra("sl3"), 2)
    bad_root = CurrentElement(BaseElement.of_root(Root((2, 1))), 0)
    bad_degree = lowering(Root((1, 0)), 3)
    for bad in (bad_root, bad_degree):
        for _ in range(2):
            with pytest.raises(UnknownElementError):
                alg.check(bad)


def test_bracket_is_a_shared_read_only_view():
    alg = TruncatedAlgebra(algebra("sl3"), 2)
    x, y = raising(Root((1, 0)), 0), lowering(Root((1, 1)), 1)
    got = alg.bracket(x, y)
    assert got == {lowering(Root((0, 1)), 1): -1}
    assert alg.bracket(x, y) is got
    with pytest.raises(TypeError):
        got[x] = 1
    truncated = alg.bracket(lowering(Root((1, 0)), 2), lowering(Root((0, 1)), 1))
    assert truncated == {}
    with pytest.raises(TypeError):
        truncated[x] = 1


def test_bracket_stores_no_invalid_pair():
    alg = TruncatedAlgebra(algebra("sl3"), 2)
    good = lowering(Root((1, 0)), 1)
    alg.bracket(good, good)
    table = dict(alg._brackets)
    bad_root = CurrentElement(BaseElement.of_root(Root((2, 1))), 0)
    bad_degree = lowering(Root((1, 0)), 3)
    for pair in ((bad_root, good), (good, bad_root), (bad_degree, good), (good, bad_degree)):
        for _ in range(2):
            with pytest.raises(UnknownElementError):
                alg.bracket(*pair)
    assert alg._brackets == table


def test_bracket_examples():
    sl2 = TruncatedAlgebra(algebra("sl2"), 1)
    e, f = raising(ALPHA, 1), lowering(ALPHA, 1)
    assert sl2.bracket(e, f) == {}  # t^2 truncates

    e0 = raising(ALPHA, 0)
    f1 = lowering(ALPHA, 1)
    assert sl2.bracket(e0, f1) == {cartan(0, 1): 1}

    vir = TruncatedAlgebra(algebra("virasoro"), 2)
    l1 = raising(ALPHA, 1)
    lm1 = lowering(ALPHA, 1)
    # [L1 (x) t, L-1 (x) t] = 2 L0 (x) t^2: the central term vanishes at m=1
    assert vir.bracket(l1, lm1) == {cartan(0, 2): 2}


def test_truncation_nilpotency():
    rng = random.Random("truncate")
    for name in ("sl3", "virasoro"):
        alg = TruncatedAlgebra(algebra(name), 2)
        for _ in range(50):
            x, y = rand_generator(rng, alg), rand_generator(rng, alg)
            if x.degree + y.degree > alg.nilp:
                assert alg.bracket(x, y) == {}


def test_degree_additivity():
    rng = random.Random("degrees")
    for name in ("sl2", "sl3", "oscillator"):
        alg = TruncatedAlgebra(algebra(name), 2)
        for _ in range(60):
            x, y = rand_generator(rng, alg), rand_generator(rng, alg)
            for term, _c in alg.bracket(x, y).items():
                assert term.degree == x.degree + y.degree


def test_antisymmetry_and_jacobi():
    rng = random.Random("hat-jacobi")
    for name in ("sl3", "virasoro"):
        alg = TruncatedAlgebra(algebra(name), 2)
        for _ in range(40):
            x, y, z = (rand_generator(rng, alg) for _ in range(3))
            assert lin_sum((1, alg.bracket(x, y)), (1, alg.bracket(y, x))) == {}
            total = lin_sum(*(
                (c, alg.bracket(term, others))
                for pivot, others in (((x, y), z), ((y, z), x), ((z, x), y))
                for term, c in alg.bracket(*pivot).items()
            ))
            assert total == {}

