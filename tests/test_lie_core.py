"""Structure constants, pairings and root catalogs of the built-in algebras."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import basis_sample, bracket_ext
from tcla import (
    BUILTIN_ALGEBRAS,
    BaseElement,
    LinComb,
    NotARootError,
    RescaledLowering,
    Root,
    UnknownAlgebraError,
    UnknownElementError,
    algebra,
)

SL2 = algebra("sl2")
SL3 = algebra("sl3")
SL4 = algebra("sl4")
VIR = algebra("virasoro")
OSC = algebra("oscillator")

ALPHA = Root((1,))


def test_catalog():
    assert BUILTIN_ALGEBRAS == ("sl2", "sl3", "sl4", "virasoro", "oscillator")
    for name in BUILTIN_ALGEBRAS:
        assert algebra(name).name == name
    with pytest.raises(UnknownAlgebraError):
        algebra("e8")


def test_sl2_bracket_examples():
    e = SL2.root_element(ALPHA)
    f = SL2.root_element(-ALPHA)
    h = SL2.cartan_element(0)
    assert SL2.bracket(e, f) == LinComb.term(h)
    assert SL2.bracket(h, h) == LinComb()
    assert SL2.bracket(h, e) == LinComb.term(e, 2)
    assert SL2.bracket(e, f) + SL2.bracket(f, e) == LinComb()


def test_virasoro_bracket_example():
    # [L2, L-2] = 4 L0 + (8-2)/12 c = 4 L0 + 1/2 c
    l2 = VIR.root_element(Root((2,)))
    lm2 = VIR.root_element(Root((-2,)))
    expected = LinComb([(VIR.cartan_element(0), 4), (VIR.cartan_element(1), Fraction(1, 2))])
    assert VIR.bracket(l2, lm2) == expected


def test_bracket_rejects_unknown_elements():
    bad = BaseElement.of_root(Root((2, 0)), 0)  # not an sl3 root
    with pytest.raises(UnknownElementError):
        SL3.bracket(bad, SL3.cartan_element(0))
    with pytest.raises(UnknownElementError):
        SL2.bracket(SL2.cartan_element(0), BaseElement.cartan(5))


def test_coroot_examples():
    assert SL2.coroot(ALPHA) == (Fraction(1),)
    assert VIR.coroot(Root((2,))) == (Fraction(4), Fraction(1, 2))
    for m in (1, 2, 5):
        assert OSC.coroot(Root((m,))) == (Fraction(0), Fraction(1))
    # sl3: coroot of alpha1+alpha2 is h1 + h2
    assert SL3.coroot(Root((1, 1))) == (Fraction(1), Fraction(1))


def test_coroot_rejects_non_roots():
    with pytest.raises(NotARootError):
        SL3.coroot(Root((2, 0)))
    with pytest.raises(NotARootError):
        VIR.coroot(Root((-1,)))


def test_dual_raising_examples():
    assert SL2.dual_raising(ALPHA, 0) == LinComb.term(SL2.root_element(ALPHA))
    assert VIR.dual_raising(Root((3,)), 0) == LinComb.term(VIR.root_element(Root((3,))))
    assert OSC.dual_raising(Root((2,)), 0) == LinComb.term(
        OSC.root_element(Root((2,))), Fraction(1, 2)
    )


def test_dual_raising_is_pairing_dual():
    # bracket(dual_raising(alpha, 0), lowering basis vector) recovers the coroot
    for base, alpha in [(SL3, Root((1, 1))), (VIR, Root((3,))), (OSC, Root((4,)))]:
        dual = base.dual_raising(alpha, 0)
        y = base.root_element(-alpha)
        got = bracket_ext(base, dual, LinComb.term(y))
        expected = LinComb(
            (BaseElement.cartan(k), c) for k, c in enumerate(base.coroot(alpha)) if c
        )
        assert got == expected


def test_enumerate_positive_roots_examples():
    assert SL2.positive_roots(3) == [(Root((1,)), 1)]
    assert SL3.positive_roots(2) == [
        (Root((1, 0)), 1),
        (Root((0, 1)), 1),
        (Root((1, 1)), 1),
    ]
    assert VIR.positive_roots(3) == [
        (Root((1,)), 1),
        (Root((2,)), 1),
        (Root((3,)), 1),
    ]


def test_sl4_root_catalog():
    roots = [r for r, d in SL4.positive_roots()]
    assert len(roots) == 6
    assert [r.height for r in roots] == [1, 1, 1, 2, 2, 3]
    assert roots[-1] == Root((1, 1, 1))


def test_enumeration_is_reproducible():
    assert SL4.positive_roots(3) == SL4.positive_roots(3)
    assert VIR.positive_roots(5) == VIR.positive_roots(5)


def test_infinite_root_systems_need_a_bound():
    with pytest.raises(ValueError):
        VIR.positive_roots(None)
    with pytest.raises(ValueError):
        OSC.positive_roots(None)


# -- structure-constant identities ------------------------------------------------


def _pairs(base, bound):
    elems = basis_sample(base, bound)
    return [(x, y) for x in elems for y in elems]


@pytest.mark.parametrize("name,bound", [("sl2", 3), ("sl3", 3), ("virasoro", 4), ("oscillator", 4)])
def test_antisymmetry(name, bound):
    base = algebra(name)
    for x, y in _pairs(base, bound):
        assert base.bracket(x, y) + base.bracket(y, x) == LinComb()


@pytest.mark.parametrize("name,bound,triples", [("sl2", 3, None), ("sl3", 3, None), ("virasoro", 4, 200), ("oscillator", 4, 200)])
def test_jacobi(name, bound, triples):
    base = algebra(name)
    elems = basis_sample(base, bound)
    rng = random.Random(f"jacobi:{name}")
    if triples is None:
        combos = [(x, y, z) for x in elems for y in elems for z in elems]
    else:
        combos = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(triples)]
    for x, y, z in combos:
        total = (
            bracket_ext(base, base.bracket(x, y), LinComb.term(z))
            + bracket_ext(base, base.bracket(y, z), LinComb.term(x))
            + bracket_ext(base, base.bracket(z, x), LinComb.term(y))
        )
        assert total == LinComb(), (x, y, z)


@pytest.mark.parametrize("name,bound", [("sl2", 3), ("sl3", 3), ("sl4", 3), ("virasoro", 5), ("oscillator", 5)])
def test_grading(name, bound):
    base = algebra(name)
    zero = Root.zero(base.simple_generator_count)
    for x, y in _pairs(base, bound):
        rx = x.root if x.root is not None else zero
        ry = y.root if y.root is not None else zero
        total = rx + ry
        for term, _c in base.bracket(x, y).items():
            if total.is_zero:
                assert term.is_cartan
            else:
                assert term.root == total


@pytest.mark.parametrize("name,bound", [("sl2", 1), ("sl3", 2), ("sl4", 3), ("virasoro", 6), ("oscillator", 6)])
def test_pairing_consistency(name, bound):
    # bracket(x_a, y_b) = P[a][b] * h_alpha for root-space basis pairs
    base = algebra(name)
    for alpha, dim in base.positive_roots(bound):
        p = base.pairing(alpha)
        h = base.coroot(alpha)
        assert any(c != 0 for c in h), "coroot must be nonzero"
        h_comb = LinComb((BaseElement.cartan(k), c) for k, c in enumerate(h) if c)
        for a in range(dim):
            for b in range(dim):
                got = base.bracket(base.root_element(alpha, a), base.root_element(-alpha, b))
                assert got == p[a][b] * h_comb


@pytest.mark.parametrize("name,bound", [("sl2", 1), ("sl3", 2), ("sl4", 3), ("virasoro", 6), ("oscillator", 6)])
def test_cartan_action(name, bound):
    base = algebra(name)
    for root, dim in base.positive_roots(bound):
        for signed in (root, -root):
            action = base.root_functional(signed)
            for s in range(dim):
                x = base.root_element(signed, s)
                for k in range(base.cartan_rank):
                    got = base.bracket(base.cartan_element(k), x)
                    assert got == action[k] * LinComb.term(x)


@settings(max_examples=60, derandomize=True)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_virasoro_jacobi_hypothesis(m, n, p):
    def elem(k):
        return VIR.cartan_element(0) if k == 0 else VIR.root_element(Root((k,)))

    x, y, z = elem(m), elem(n), elem(p)
    total = (
        bracket_ext(VIR, VIR.bracket(x, y), LinComb.term(z))
        + bracket_ext(VIR, VIR.bracket(y, z), LinComb.term(x))
        + bracket_ext(VIR, VIR.bracket(z, x), LinComb.term(y))
    )
    assert total == LinComb()


def test_singular_pairing_violates_nondegeneracy():
    from tcla import InvalidAlgebraError
    from tcla.lie_core import SpecialLinear

    class Broken(SpecialLinear):
        def pairing(self, alpha):
            return [[Fraction(0)]]

    with pytest.raises(InvalidAlgebraError):
        Broken(2).dual_raising(Root((1,)), 0)


def test_rescaled_lowering_keeps_the_axioms():
    rng = random.Random("rescale")
    scales = {}

    def scale(alpha, idx):
        return scales.setdefault((alpha, idx), Fraction(rng.randint(1, 7), rng.randint(1, 5)))

    scaled = RescaledLowering(SL3, scale)
    # pairing consistency survives the rescale
    for alpha, dim in scaled.positive_roots(2):
        p = scaled.pairing(alpha)
        h_comb = LinComb(
            (BaseElement.cartan(k), c) for k, c in enumerate(scaled.coroot(alpha)) if c
        )
        for a in range(dim):
            for b in range(dim):
                got = scaled.bracket(scaled.root_element(alpha, a), scaled.root_element(-alpha, b))
                assert got == p[a][b] * h_comb
    # spot-check Jacobi in the rescaled basis
    elems = basis_sample(scaled, 2)
    for _ in range(100):
        x, y, z = (rng.choice(elems) for _ in range(3))
        total = (
            bracket_ext(scaled, scaled.bracket(x, y), LinComb.term(z))
            + bracket_ext(scaled, scaled.bracket(y, z), LinComb.term(x))
            + bracket_ext(scaled, scaled.bracket(z, x), LinComb.term(y))
        )
        assert total == LinComb()
