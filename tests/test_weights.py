"""Weight functionals and PBW monomial enumeration."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import any_algebra, enumerate_monomials_per_factor, lowering, monomial_weight
from tcla import (
    DegreeError,
    Root,
    TruncatedAlgebra,
    WeightFunctional,
    algebra,
    enumerate_monomials,
    format_monomial,
    positive_lattice_points,
)
from tcla.weights import factor_key, lowering_generators, weight_space_dimension

ALPHA = Root((1,))


def test_evaluate_examples():
    w = WeightFunctional([(5,), (3,)])
    assert w.evaluate((1,), 0) == 5
    assert w.evaluate((1,), 1) == 3
    assert w.evaluate((0,), 0) == 0
    assert w.evaluate((Fraction(1, 2),), 1) == Fraction(3, 2)


def test_evaluate_degree_error():
    w = WeightFunctional([(5,), (3,)])
    with pytest.raises(DegreeError):
        w.evaluate((1,), 2)
    with pytest.raises(DegreeError):
        w.level(-1)


def test_from_named_defaults_and_validation():
    vir = algebra("virasoro")
    w = WeightFunctional.from_named(vir, 1, [{"L0": "1"}, {"c": "-8/3"}])
    assert w.levels == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-8, 3)))
    with pytest.raises(ValueError, match="unknown Cartan name"):
        WeightFunctional.from_named(vir, 1, [{"L0": "1"}, {"h9": "2"}])
    with pytest.raises(ValueError, match="expected 3 levels"):
        WeightFunctional.from_named(vir, 2, [{}, {}])


def test_monomial_weight_examples():
    mono = (lowering(ALPHA, 0), lowering(ALPHA, 1))
    assert monomial_weight(mono, 1) == Root((2,))

    mono3 = (lowering(Root((1, 0)), 0), lowering(Root((1, 1)), 1))
    assert monomial_weight(mono3, 2) == Root((2, 1))

    assert monomial_weight((), 2) == Root((0, 0))


def test_enumerate_sl2_examples():
    alg = TruncatedAlgebra(algebra("sl2"), 1)
    f0, f1 = lowering(ALPHA, 0), lowering(ALPHA, 1)
    assert enumerate_monomials(ALPHA, alg) == [(f0,), (f1,)]
    assert enumerate_monomials(Root((2,)), alg) == [(f0, f0), (f0, f1), (f1, f1)]


def test_enumerate_sl3_example():
    alg = TruncatedAlgebra(algebra("sl3"), 1)
    monos = enumerate_monomials(Root((1, 1)), alg)
    assert len(monos) == 6
    singles = [m for m in monos if len(m) == 1]
    pairs = [m for m in monos if len(m) == 2]
    assert len(singles) == 2 and len(pairs) == 4


def test_enumerate_zero_weight():
    for name in ("sl2", "virasoro"):
        alg = TruncatedAlgebra(algebra(name), 2)
        zero = Root((0,) * alg.base.simple_generator_count)
        assert enumerate_monomials(zero, alg) == [()]


def test_enumeration_count_matches_binomial():
    # sl2 weight k*alpha: multisets of size k over N+1 degree symbols
    for nilp in (1, 2, 3):
        alg = TruncatedAlgebra(algebra("sl2"), nilp)
        for k in range(5):
            got = len(enumerate_monomials(Root((k,)), alg))
            assert got == math.comb(k + nilp, nilp)


@pytest.mark.parametrize("nilp", (1, 2))
@pytest.mark.parametrize("name", ("sl2", "sl3", "sl4", "virasoro", "oscillator", "sp4"))
def test_weight_space_dimension_counts_the_monomials(name, nilp):
    base = any_algebra(name)
    alg = TruncatedAlgebra(base, nilp)
    height = {"sl2": 6, "sl3": 4, "sl4": 3, "virasoro": 6, "oscillator": 5, "sp4": 4}[name]
    for chi in [Root((0,) * base.simple_generator_count)] + positive_lattice_points(base.simple_generator_count, height):
        assert weight_space_dimension(chi, alg) == len(enumerate_monomials(chi, alg))


def brute_force_monomials(chi, alg):
    """Independent oracle: filter all bounded multisets of lowering symbols,
    then order them by their canonical key sequences."""
    symbols = lowering_generators(chi, alg)
    found = []
    for size in range(chi.height + 1):
        for combo in combinations_with_replacement(symbols, size):
            if monomial_weight(combo, alg.base.simple_generator_count) == chi:
                found.append(tuple(sorted(combo, key=factor_key)))
    found.sort(key=lambda mono: tuple(factor_key(x) for x in mono))
    return found


@pytest.mark.parametrize(
    "name,coords,nilp",
    [
        ("sl2", (3,), 2),
        ("sl3", (1, 1), 1),
        ("sl3", (2, 1), 1),
        ("sl4", (1, 1, 1), 1),
        ("virasoro", (4,), 1),
        ("oscillator", (3,), 2),
        # the remainder empties before the last generator
        ("virasoro", (4,), 2),
        ("oscillator", (4,), 2),
        ("sl3", (2, 2), 2),
    ],
)
def test_enumeration_matches_brute_force(name, coords, nilp):
    alg = TruncatedAlgebra(algebra(name), nilp)
    chi = Root(coords)
    assert enumerate_monomials(chi, alg) == brute_force_monomials(chi, alg)


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 2), st.integers(1, 2))
def test_enumeration_matches_brute_force_hypothesis(a, b, nilp):
    alg = TruncatedAlgebra(algebra("sl3"), nilp)
    chi = Root((a, b))
    assert enumerate_monomials(chi, alg) == brute_force_monomials(chi, alg)


@pytest.mark.parametrize("nilp", (1, 2, 3))
@pytest.mark.parametrize("name", ("sl2", "sl3", "sl4", "virasoro", "oscillator", "sp4"))
def test_enumeration_follows_the_per_factor_walk(name, nilp):
    base = any_algebra(name)
    alg = TruncatedAlgebra(base, nilp)
    height = {"sl2": 8, "sl3": 4, "sl4": 3, "virasoro": 7, "oscillator": 6, "sp4": 4}[name] - nilp
    for chi in [Root((0,) * base.simple_generator_count)] + positive_lattice_points(base.simple_generator_count, height):
        assert enumerate_monomials(chi, alg) == enumerate_monomials_per_factor(chi, alg), chi


def test_enumeration_depth_is_not_bound_by_the_factor_count():
    # 1,100 factors per monomial, far past the interpreter's recursion limit
    alg = TruncatedAlgebra(algebra("sl2"), 1)
    f0, f1 = lowering_generators(Root((1,)), alg)
    monos = enumerate_monomials(Root((1100,)), alg)
    assert len(monos) == 1101
    assert monos[0] == (f0,) * 1100 and monos[-1] == (f1,) * 1100
    assert monos[1] == (f0,) * 1099 + (f1,)


def test_enumeration_is_deterministic_and_canonical():
    alg = TruncatedAlgebra(algebra("sl3"), 2)
    chi = Root((2, 1))
    first = enumerate_monomials(chi, alg)
    assert first == enumerate_monomials(chi, alg)
    for mono in first:
        assert list(mono) == sorted(mono, key=factor_key)
        assert monomial_weight(mono, 2) == chi


def test_format_monomial():
    mono = (lowering(Root((1, 0)), 0), lowering(Root((1, 1)), 2))
    assert format_monomial(mono) == "f(1,0)[0]@0 * f(1,1)[0]@2"
    assert format_monomial(()) == "1"


def test_positive_lattice_points():
    pts = positive_lattice_points(2, 2)
    assert pts == [Root((1, 0)), Root((0, 1)), Root((2, 0)), Root((1, 1)), Root((0, 2))]
    assert positive_lattice_points(1, 0) == []


@pytest.mark.parametrize("generators", [1, 2, 3, 4])
@pytest.mark.parametrize("max_height", range(7))
def test_positive_lattice_points_are_every_composition_in_canonical_order(generators, max_height):
    pts = positive_lattice_points(generators, max_height)
    # The points of height h are the compositions of h into g nonnegative
    # parts, C(h + g - 1, g - 1) of them.
    assert len(pts) == sum(math.comb(h + generators - 1, generators - 1) for h in range(1, max_height + 1))
    assert all(len(p.coords) == generators and min(p.coords) >= 0 for p in pts)
    assert all(1 <= p.height <= max_height for p in pts)
    for a, b in zip(pts, pts[1:]):
        assert a.height <= b.height
        if a.height == b.height:
            assert a.coords > b.coords


def test_enumerate_rejects_bad_chi():
    alg = TruncatedAlgebra(algebra("sl3"), 1)
    from tcla import NotARootError

    enumerate_monomials(Root((1, 1)), alg)
    table = dict(alg._monomials)
    for _ in range(2):
        with pytest.raises(NotARootError):
            enumerate_monomials(Root((1,)), alg)
        with pytest.raises(NotARootError):
            enumerate_monomials(Root((-1, 0)), alg)
    assert alg._monomials == table


def test_enumeration_hands_out_a_fresh_list_on_every_call():
    alg = TruncatedAlgebra(algebra("sl3"), 1)
    chi = Root((2, 1))
    first = enumerate_monomials(chi, alg)  # the walk's own list
    expected = list(first)
    first.clear()
    second = enumerate_monomials(chi, alg)  # a copy of the algebra's table
    assert second == expected
    second.reverse()
    assert enumerate_monomials(chi, alg) == expected
    assert alg._monomials == {chi: tuple(expected)}
