"""The straightening engine: generator actions on Verma-module vectors."""

import random
from fractions import Fraction

import pytest

from helpers import (
    cartan,
    is_sparse,
    lin_sum,
    lowering,
    raising,
    rand_generator,
    rand_vector,
    rand_weight,
    rat,
    root_functional,
    vector_weights,
)
from tcla import (
    BUILTIN_ALGEBRAS,
    BaseElement,
    CurrentElement,
    InvalidAlgebraError,
    Root,
    TruncatedAlgebra,
    VermaModule,
    WeightFunctional,
    algebra,
    criterion_reducible,
)
from tcla.lie_core import MatrixAlgebra

ALPHA = Root((1,))


@pytest.fixture(autouse=True)
def act_results_are_zero_free(monkeypatch):
    """Check every action in this file: a fresh dict of nonzero Fractions."""
    act = VermaModule.act

    def checked(self, x, v):
        out = act(self, x, v)
        assert is_sparse(out) and out is not v, (x, out)
        return out

    monkeypatch.setattr(VermaModule, "act", checked)


def sl2_module(levels=((5,), (3,))):
    alg = TruncatedAlgebra(algebra("sl2"), len(levels) - 1)
    return VermaModule(alg, WeightFunctional(levels))


def test_highest_weight_vector():
    m = sl2_module()
    v = m.highest_weight_vector()
    assert v == {(): 1}
    assert vector_weights(v, 1) == {Root((0,))}


def test_raising_kills_highest_weight_vector():
    for name in BUILTIN_ALGEBRAS:
        base = algebra(name)
        alg = TruncatedAlgebra(base, 2)
        m = VermaModule(alg, rand_weight(random.Random("hw:" + name), base, 2))
        v = m.highest_weight_vector()
        for root in base.positive_roots(3):
            for deg in range(3):
                assert m.act(raising(root, deg), v) == {}


def test_lowering_prepends_when_canonical():
    m = sl2_module()
    f0, f1 = lowering(ALPHA, 0), lowering(ALPHA, 1)
    v = m.act(f1, m.highest_weight_vector())
    assert v == {(f1,): 1}
    # sl2 lowering factors commute, so the product lands on the sorted monomial
    assert m.act(f0, v) == {(f0, f1): 1}
    assert m.act(f1, m.act(f0, m.highest_weight_vector())) == {(f0, f1): 1}


def test_sl3_straightening_frozen():
    # With the frozen canonical order f1 < f2 < f12:
    #   f1 . (f2 v) is already ordered, while f2 . (f1 v) straightens through
    #   [f2, f1] = +f12 (Chevalley signs of the matrix-unit convention).
    base = algebra("sl3")
    alg = TruncatedAlgebra(base, 1)
    m = VermaModule(alg, WeightFunctional([(1, 2), (3, 4)]))
    f1 = lowering(Root((1, 0)), 0)
    f2 = lowering(Root((0, 1)), 0)
    f12 = lowering(Root((1, 1)), 0)
    v = m.highest_weight_vector()
    assert m.act(f1, m.act(f2, v)) == {(f1, f2): 1}
    assert m.act(f2, m.act(f1, v)) == {(f1, f2): 1, (f12,): 1}


def test_cartan_on_highest_weight_vector():
    m = sl2_module(((5,), (3,), (7,)))
    v = m.highest_weight_vector()
    for deg, value in [(0, 5), (1, 3), (2, 7)]:
        assert m.act(cartan(0, deg), v) == lin_sum((value, v))


def test_cartan_degree_zero_is_scalar_on_homogeneous_vectors():
    rng = random.Random("cartan-scalar")
    for name in ("sl3", "virasoro"):
        base = algebra(name)
        alg = TruncatedAlgebra(base, 2)
        weight = rand_weight(rng, base, 2)
        m = VermaModule(alg, weight)
        for chi in (Root((1,) * base.simple_generator_count), Root((2,) + (0,) * (base.simple_generator_count - 1))):
            from tcla import enumerate_monomials

            monos = enumerate_monomials(chi, alg)
            v = lin_sum((1, {mono: rat(rng) for mono in monos}))
            if not v:
                continue
            for k in range(base.cartan_rank):
                h = cartan(k, 0)
                basis_dir = tuple(Fraction(int(j == k)) for j in range(base.cartan_rank))
                expected = weight.evaluate(basis_dir, 0) - root_functional(base, chi)[k]
                assert m.act(h, v) == lin_sum((expected, v))


def test_cartan_commutator_example():
    m = sl2_module()
    f0, f1 = lowering(ALPHA, 0), lowering(ALPHA, 1)
    h1 = cartan(0, 1)
    got = m.act(h1, {(f0,): Fraction(1)})
    assert got == {(f0,): 3, (f1,): -2}


def test_raising_examples():
    m = sl2_module()
    v = m.highest_weight_vector()
    f0, f1 = lowering(ALPHA, 0), lowering(ALPHA, 1)
    e0, e1 = raising(ALPHA, 0), raising(ALPHA, 1)
    assert m.act(e0, m.act(f0, v)) == {(): 5}
    assert m.act(e1, m.act(f0, v)) == {(): 3}
    assert m.act(e1, m.act(f1, v)) == {}


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_module_axiom(name):
    # X (Y v) - Y (X v) = [X, Y] v, exactly
    rng = random.Random("module-axiom:" + name)
    base = algebra(name)
    for nilp in (1, 2):
        alg = TruncatedAlgebra(base, nilp)
        m = VermaModule(alg, rand_weight(rng, base, nilp))
        for _ in range(60):
            x, y = rand_generator(rng, alg), rand_generator(rng, alg)
            v = rand_vector(rng, m)
            lhs = lin_sum((1, m.act(x, m.act(y, v))), (-1, m.act(y, m.act(x, v))))
            rhs = lin_sum(*((c, m.act(z, v)) for z, c in alg.bracket(x, y).items()))
            assert lhs == rhs, (x, y, v)


def test_weight_homogeneity():
    rng = random.Random("homogeneous")
    base = algebra("sl3")
    alg = TruncatedAlgebra(base, 2)
    m = VermaModule(alg, rand_weight(rng, base, 2))
    gens = base.simple_generator_count
    for _ in range(40):
        v = rand_vector(rng, m)
        if not v or len(vector_weights(v, gens)) != 1:
            continue
        (chi,) = vector_weights(v, gens)
        x = rand_generator(rng, alg)
        out = m.act(x, v)
        if not out:
            continue
        drop = Root((0,) * gens) if x.elem.root is None else -x.elem.root
        assert vector_weights(out, gens) == {chi + drop}


def test_action_is_linear():
    rng = random.Random("linear")
    base = algebra("virasoro")
    alg = TruncatedAlgebra(base, 1)
    m = VermaModule(alg, rand_weight(rng, base, 1))
    for _ in range(30):
        x = rand_generator(rng, alg)
        v, w = rand_vector(rng, m), rand_vector(rng, m)
        a, b = rat(rng), rat(rng)
        assert m.act(x, lin_sum((a, v), (b, w))) == lin_sum((a, m.act(x, v)), (b, m.act(x, w)))


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_one_term_fast_path_equals_the_general_path(name):
    # {mono: 1} copies the memo entry; {mono: 2} goes through add_scaled.
    rng = random.Random("one-term:" + name)
    base = algebra(name)
    alg = TruncatedAlgebra(base, 2)
    weight = rand_weight(rng, base, 2)
    warm, cold = VermaModule(alg, weight), VermaModule(alg, weight)
    for _ in range(40):
        x = rand_generator(rng, alg)
        for mono in rand_vector(rng, warm):
            fast = warm.act(x, {mono: Fraction(1)})
            general = {m: c / 2 for m, c in cold.act(x, {mono: Fraction(2)}).items()}
            assert fast == general and is_sparse(fast), (x, mono)


def test_a_lowering_bracket_with_a_cartan_term_is_refused():
    # E10 under the name of -alpha and E01 under the name of -2 alpha: their
    # bracket is a Cartan term, which would put a weight value into the
    # lowering table that every module on the algebra shares.
    h, y1, y2 = BaseElement.cartan(0), BaseElement.of_root(-ALPHA), BaseElement.of_root(-2 * ALPHA)
    bad = MatrixAlgebra("cartan-term", {h: {(0, 0): 1, (1, 1): -1}, y1: {(1, 0): 1}, y2: {(0, 1): 1}})
    assert bad.bracket(y2, y1) == {h: 1}
    m = VermaModule(TruncatedAlgebra(bad, 1), WeightFunctional([(5,), (3,)]))
    x, f = CurrentElement(y2, 0), CurrentElement(y1, 0)
    for _ in range(2):
        with pytest.raises(InvalidAlgebraError):
            m.act(x, {(f,): Fraction(1)})


def test_weight_shape_must_match():
    # The module and the criterion refuse a weight with the same check.
    alg = TruncatedAlgebra(algebra("sl2"), 1)
    for weight, message in (
        (WeightFunctional([(1,), (2,), (3,)]), "weight has 3 levels but the algebra needs 2"),
        (WeightFunctional([(1, 2), (3, 4)]), "weight levels have length 2 but the Cartan rank is 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            VermaModule(alg, weight)
        with pytest.raises(ValueError, match=f"^{message}$"):
            criterion_reducible(weight, alg)
