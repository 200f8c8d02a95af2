"""Structure constants, coroots and root catalogs of the built-in algebras."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    G2,
    RescaledLowering,
    Sp4,
    any_algebra,
    basis_sample,
    bracket_ext,
    closed_form_coroots,
    coroot_element,
    is_sparse,
    lin_sum,
    root_functional,
)
from tcla import (
    BUILTIN_ALGEBRAS,
    BaseElement,
    CurrentElement,
    InputError,
    InvalidAlgebraError,
    Root,
    TruncatedAlgebra,
    WeightFunctional,
    algebra,
    scan_reducible,
)
from tcla import lie_core
from tcla.lie_core import Algebra, MatrixAlgebra, SpecialLinear, add_scaled, add_term

SL2 = algebra("sl2")
SL3 = algebra("sl3")
SL4 = algebra("sl4")
VIR = algebra("virasoro")
OSC = algebra("oscillator")

ALPHA = Root((1,))


def test_catalog():
    assert BUILTIN_ALGEBRAS == ("sl2", "sl3", "sl4", "virasoro", "oscillator")
    for name in BUILTIN_ALGEBRAS:
        first, second = algebra(name), algebra(name)
        # A fresh instance per call, so no table is shared between callers.
        assert first.name == second.name == name and first is not second
    with pytest.raises(InputError) as exc:
        algebra("e8")
    assert str(exc.value) == "unknown algebra 'e8'; available: sl2, sl3, sl4, virasoro, oscillator"


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_a_warm_algebra_pickles_without_its_caches(name):
    # A process pool under spawn or forkserver pickles the algebra it hands
    # each worker; the bracket table holds views that cannot be pickled.
    base = algebra(name)
    scan_reducible(WeightFunctional([(1,) * base.cartan_rank] * 2), TruncatedAlgebra(base, 1), 2)
    table = dict(base._brackets)
    assert table and "_dual_raising" not in vars(base)
    copy = pickle.loads(pickle.dumps(base))
    assert type(copy) is type(base) and copy.name == name
    assert "_brackets" not in vars(copy)
    assert {pair: copy.bracket(*pair) for pair in table} == table
    assert base._brackets == table  # the original keeps its table


def test_value_types_are_tuples_with_vector_roots():
    # Equal values built apart compare and hash equal, and survive the
    # pickling a process pool applies.
    for build in (
        lambda: Root((1, 2)),
        lambda: BaseElement.of_root(Root((1, 2))),
        lambda: BaseElement.cartan(1),
        lambda: CurrentElement(BaseElement.of_root(Root((-1, 0))), 1),
    ):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        c = pickle.loads(pickle.dumps(a))
        assert type(c) is type(a) and c == a
    # Vector arithmetic, not tuple concatenation or repetition.
    r, s = Root((1, 2)), Root((0, 1))
    results = [r + s, r - s, -r, 3 * r, r * 3]
    assert results == [Root((1, 3)), Root((1, 1)), Root((-1, -2)), Root((3, 6)), Root((3, 6))]
    assert all(type(v) is Root for v in results)


def test_add_term_drops_cancelled_keys():
    # a + (-a) cancelling to zero is checked in test_sl2_bracket_examples.
    k = BaseElement.cartan(0)
    acc: dict = {}
    for c in (1, -1):
        add_term(acc, k, Fraction(c))
    assert acc == {}
    for c in (1, -1, 2):
        add_term(acc, k, Fraction(c))
    assert list(acc.items()) == [(k, Fraction(2))]


def test_sparse_sums_add_no_zero_and_multiply_by_no_one():
    # Adding 0 or multiplying by 1 makes a new Fraction, so the identity
    # checks fail if either comes back.
    k, j = BaseElement.cartan(0), BaseElement.cartan(1)
    c = Fraction(3, 4)
    acc: dict = {}
    add_term(acc, k, c)
    assert acc[k] is c
    acc = {}
    add_term(acc, k, Fraction(0))
    assert acc == {}
    terms = {k: Fraction(3, 4), j: Fraction(-5)}
    acc = {}
    add_scaled(acc, terms, Fraction(1))
    assert acc == terms and all(acc[key] is terms[key] for key in terms)
    acc = dict(terms)
    add_scaled(acc, terms, Fraction(-1))
    assert acc == {}
    acc = {}
    add_scaled(acc, terms, Fraction(2, 3))
    assert acc == {k: Fraction(1, 2), j: Fraction(-10, 3)}


def test_a_value_of_one_takes_no_product():
    k, j, i = (BaseElement.cartan(n) for n in range(3))
    c = Fraction(2, 3)
    terms = {k: Fraction(1), j: Fraction(-5), i: Fraction(7, 2)}
    acc: dict = {}
    add_scaled(acc, terms, c)
    assert acc[k] is c
    assert acc == {key: c * value for key, value in terms.items()}


@pytest.mark.parametrize("coords", [(), (0, 0), (1, 0), (0, 1), (1, -1), (-1, 0), (2, 3)])
def test_root_predicates_match_their_definitions(coords):
    zero = all(c == 0 for c in coords)
    root = Root(coords)
    assert root.is_zero is zero
    assert root.is_positive is (not zero and all(c >= 0 for c in coords))


def test_sl2_bracket_examples():
    e = BaseElement.of_root(ALPHA)
    f = BaseElement.of_root(-ALPHA)
    h = BaseElement.cartan(0)
    assert SL2.bracket(e, f) == {h: 1}
    assert SL2.bracket(h, h) == {}
    assert SL2.bracket(h, e) == {e: 2}
    assert lin_sum((1, SL2.bracket(e, f)), (1, SL2.bracket(f, e))) == {}


def test_virasoro_bracket_example():
    # [L2, L-2] = 4 L0 + (8-2)/12 c = 4 L0 + 1/2 c
    l2 = BaseElement.of_root(Root((2,)))
    lm2 = BaseElement.of_root(Root((-2,)))
    expected = {BaseElement.cartan(0): 4, BaseElement.cartan(1): Fraction(1, 2)}
    assert VIR.bracket(l2, lm2) == expected


def test_oscillator_bracket_examples():
    # x_m = a_m / m and x_-m = a_-m, so [x_m, x_-m] = hbar for every m > 0.
    d, hbar = BaseElement.cartan(0), BaseElement.cartan(1)
    for m in range(1, 7):
        x, y = BaseElement.of_root(Root((m,))), BaseElement.of_root(Root((-m,)))
        assert OSC.bracket(x, y) == {hbar: 1}
        assert OSC.bracket(y, x) == {hbar: -1}
        assert OSC.bracket(d, x) == {x: m}
        assert OSC.bracket(d, y) == {y: -m}


def test_bracket_rejects_unknown_elements():
    bad = BaseElement.of_root(Root((2, 0)))  # not an sl3 root
    with pytest.raises(InputError, match=r"^sl3: \(2,0\) is not a root$"):
        SL3.bracket(bad, BaseElement.cartan(0))
    with pytest.raises(InputError, match="^sl2: Cartan index 5 out of range$"):
        SL2.bracket(BaseElement.cartan(0), BaseElement.cartan(5))
    with pytest.raises(InputError, match=r"^sl2: root vector \(1\) has index 1, not 0$"):  # root spaces are one-dimensional
        SL2.bracket(BaseElement(ALPHA, 1), BaseElement.cartan(0))
    # Rejections are never stored: the same invalid pair raises again, and a
    # valid pair asked for after a rejection still gets its bracket.
    for base, x, y, message in [
        (SL3, bad, BaseElement.cartan(0), r"^sl3: \(2,0\) is not a root$"),
        (SL3, BaseElement.cartan(0), bad, r"^sl3: \(2,0\) is not a root$"),
        (VIR, BaseElement.cartan(0), BaseElement.cartan(2), "^virasoro: Cartan index 2 out of range$"),
        (OSC, BaseElement.of_root(Root((0,))), BaseElement.cartan(0), r"^oscillator: \(0\) is not a root$"),
    ]:
        for _ in range(2):
            with pytest.raises(InputError, match=message):
                base.bracket(x, y)
    e1 = BaseElement.of_root(Root((1, 0)))
    e2 = BaseElement.of_root(Root((0, 1)))
    assert SL3.bracket(e1, e2) == {BaseElement.of_root(Root((1, 1))): 1}
    assert SL3.bracket(e1, e2) == {BaseElement.of_root(Root((1, 1))): 1}


# -- sl(n) against its matrices ---------------------------------------------------


def _run_root(n, i, j):
    """alpha_i + ... + alpha_{j-1}, the root of E[i][j] for i < j."""
    return Root(tuple(1 if i <= k < j else 0 for k in range(n - 1)))


def _matrix(n, x):
    """The n x n matrix of a basis element, per the documented convention:
    h_k = E[k][k] - E[k+1][k+1], and the root vector of +-alpha_ij is E[i][j]
    or E[j][i]."""
    m = [[Fraction(0)] * n for _ in range(n)]
    if x.root is None:
        m[x.index][x.index] = Fraction(1)
        m[x.index + 1][x.index + 1] = Fraction(-1)
        return m
    for i in range(n):
        for j in range(i + 1, n):
            if x.root == _run_root(n, i, j):
                m[i][j] = Fraction(1)
            elif x.root == -_run_root(n, i, j):
                m[j][i] = Fraction(1)
    return m


def _in_basis(n, m):
    """A traceless matrix as a combination of basis elements: each off-diagonal
    entry is a root vector's coefficient, and the diagonal is the sum of
    c_k h_k with c_k the partial sums of the diagonal entries."""
    terms = [(BaseElement.cartan(k), sum(m[i][i] for i in range(k + 1))) for k in range(n - 1)]
    for i in range(n):
        for j in range(i + 1, n):
            terms.append((BaseElement.of_root(_run_root(n, i, j)), m[i][j]))
            terms.append((BaseElement.of_root(-_run_root(n, i, j)), m[j][i]))
    return lin_sum(*((c, {x: 1}) for x, c in terms))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_bracket_is_the_matrix_commutator(n):
    base = algebra(f"sl{n}")
    elems = basis_sample(base, n)
    assert len(elems) == n * n - 1
    for x in elems:
        a = _matrix(n, x)
        for y in elems:
            b = _matrix(n, y)
            ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            commutator = [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]
            assert base.bracket(x, y) == _in_basis(n, commutator), (x, y)


def test_matrix_bracket_outside_the_span_raises():
    # sl2's root vectors without h: [e, f] = E00 - E11 has no basis element
    # to land on, and the first bracket says so.
    e, f = BaseElement.of_root(ALPHA), BaseElement.of_root(-ALPHA)
    no_cartan = MatrixAlgebra("sl2-without-h", {e: {(0, 1): 1}, f: {(1, 0): 1}})
    assert no_cartan.bracket(e, e) == {}
    for _ in range(2):
        with pytest.raises(InvalidAlgebraError):
            no_cartan.bracket(e, f)


def test_matrix_algebra_refuses_an_entry_at_an_earlier_pivot():
    # h1 = E00 - E11 and E00 - E22 span sl3's Cartan, but the second has an
    # entry at the first one's pivot E00, so the pivot rule cannot read it.
    units = {BaseElement.cartan(0): {(0, 0): 1, (1, 1): -1}, BaseElement.cartan(1): {(0, 0): 1, (2, 2): -1}}
    units.update({BaseElement.of_root(Root((1, 0))): {(0, 1): 1}})
    with pytest.raises(InvalidAlgebraError):
        MatrixAlgebra("sl3-cartan", units)


def test_sp4_is_data_on_the_matrix_bracket():
    # The catalog is read off the matrix data; the bracket is the base's,
    # and the coroots are the generic ones read from it.
    for cls in (SpecialLinear, Sp4, G2):
        assert not {"_structure", "pairing", "coroot", "simple_root_action"} & set(vars(cls)), cls
    sp4 = Sp4()
    assert (sp4.cartan_rank, sp4.simple_generator_count, sp4.cartan_names) == (2, 2, ("h1", "h2"))
    assert sp4.positive_roots() == [Root((1, 0)), Root((0, 1)), Root((1, 1)), Root((2, 1))]
    g2 = G2()
    assert (g2.cartan_rank, g2.simple_generator_count) == (2, 2)
    assert g2.positive_roots() == [Root(c) for c in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))]
    # Every basis is normalised by its bracket: no class defines a pairing,
    # and no class but Algebra has a coroot of its own.
    library = [c for c in vars(lie_core).values() if isinstance(c, type) and issubclass(c, Algebra)]
    for cls in library + [Sp4, G2, RescaledLowering]:
        assert "pairing" not in vars(cls), cls
        assert ("coroot" in vars(cls)) == (cls is Algebra), cls


def test_coroot_examples():
    # Every root of every algebra, and of each one with rescaled lowering
    # vectors, whose coroots are its base algebra's.
    def scale(alpha):
        return Fraction(alpha.height + 1, 3)

    for name in BUILTIN_ALGEBRAS + ("sp4", "g2"):
        for base in (any_algebra(name), RescaledLowering(any_algebra(name), scale)):
            expected = closed_form_coroots(base)
            assert len(expected) >= len(base.positive_roots(12))
            for alpha, h in expected.items():
                got = base.coroot(alpha)
                assert got == tuple(Fraction(c) for c in h), (base, alpha)
                assert all(type(c) is Fraction for c in got)


def test_coroot_rejects_non_roots():
    with pytest.raises(InputError, match=r"^sl3: \(2,0\) is not a positive root$"):
        SL3.coroot(Root((2, 0)))
    with pytest.raises(InputError, match=r"^virasoro: \(-1\) is not a positive root$"):
        VIR.coroot(Root((-1,)))


def test_dual_raising_examples():
    # The raising basis vector itself, whose bracket with the lowering
    # vector is the coroot.
    for base, alpha in [(SL2, ALPHA), (SL3, Root((1, 1))), (VIR, Root((3,))), (OSC, Root((2,))), (OSC, Root((4,)))]:
        x = base.dual_raising(alpha)
        assert type(x) is BaseElement and x == BaseElement.of_root(alpha)
        assert base.bracket(x, BaseElement.of_root(-alpha)) == coroot_element(closed_form_coroots(base)[alpha])


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS + ("sp4", "sl3[rescaled]", "virasoro[rescaled]"))
def test_cached_results_are_zero_free_read_only_views(name):
    # Every caller shares a stored bracket.
    if name.endswith("[rescaled]"):
        base = RescaledLowering(algebra(name.split("[")[0]), lambda a: Fraction(2, a.height + 2))
    else:
        base = any_algebra(name)
    sample = basis_sample(base)
    views = [base.bracket(x, y) for x in sample for y in sample]
    for view in views:
        assert is_sparse(view), view
        with pytest.raises(TypeError):
            view[sample[0]] = Fraction(1)


def test_enumerate_positive_roots_examples():
    assert SL2.positive_roots(3) == [Root((1,))]
    assert SL3.positive_roots(2) == [Root((1, 0)), Root((0, 1)), Root((1, 1))]
    assert VIR.positive_roots(3) == [Root((1,)), Root((2,)), Root((3,))]


def test_sl4_root_catalog():
    roots = SL4.positive_roots()
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


@pytest.mark.parametrize(
    "name,bound", [("sl2", 3), ("sl3", 3), ("virasoro", 4), ("oscillator", 4), ("sp4", 3), ("g2", 5)]
)
def test_antisymmetry(name, bound):
    base = any_algebra(name)
    for x, y in _pairs(base, bound):
        assert lin_sum((1, base.bracket(x, y)), (1, base.bracket(y, x))) == {}


@pytest.mark.parametrize(
    "name,bound,triples",
    [("sl2", 3, None), ("sl3", 3, None), ("virasoro", 4, 200), ("oscillator", 4, 200), ("sp4", 3, None),
     ("g2", 5, None)],
)
def test_jacobi(name, bound, triples):
    base = any_algebra(name)
    elems = basis_sample(base, bound)
    if base.finite_roots:  # the full basis: 8 for sl3, 10 for sp4, 14 for g2
        assert len(elems) == base.cartan_rank + 2 * len(base.positive_roots())
    rng = random.Random(f"jacobi:{name}")
    if triples is None:
        combos = [(x, y, z) for x in elems for y in elems for z in elems]
    else:
        combos = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(triples)]
    for x, y, z in combos:
        total = lin_sum(
            (1, bracket_ext(base, base.bracket(x, y), {z: 1})),
            (1, bracket_ext(base, base.bracket(y, z), {x: 1})),
            (1, bracket_ext(base, base.bracket(z, x), {y: 1})),
        )
        assert total == {}, (x, y, z)


@pytest.mark.parametrize(
    "name,bound", [("sl2", 3), ("sl3", 3), ("sl4", 3), ("virasoro", 5), ("oscillator", 5), ("sp4", 3), ("g2", 5)]
)
def test_grading(name, bound):
    base = any_algebra(name)
    zero = Root((0,) * base.simple_generator_count)
    for x, y in _pairs(base, bound):
        rx = x.root if x.root is not None else zero
        ry = y.root if y.root is not None else zero
        total = rx + ry
        for term, _c in base.bracket(x, y).items():
            if total.is_zero:
                assert term.root is None
            else:
                assert term.root == total


@pytest.mark.parametrize(
    "name,bound", [("sl2", 1), ("sl3", 2), ("sl4", 3), ("virasoro", 6), ("oscillator", 6), ("sp4", 3), ("g2", 5)]
)
def test_pairing_consistency(name, bound):
    # bracket(x_alpha, y_alpha) = h_alpha, the nonzero closed-form coroot
    base = any_algebra(name)
    coroots = closed_form_coroots(base)
    for alpha in base.positive_roots(bound):
        got = base.bracket(BaseElement.of_root(alpha), BaseElement.of_root(-alpha))
        assert got == coroot_element(coroots[alpha]) != {}, alpha


@pytest.mark.parametrize(
    "name,bound", [("sl2", 1), ("sl3", 2), ("sl4", 3), ("virasoro", 6), ("oscillator", 6), ("sp4", 3), ("g2", 5)]
)
def test_cartan_action(name, bound):
    base = any_algebra(name)
    for root in base.positive_roots(bound):
        for signed in (root, -root):
            action = root_functional(base, signed)
            x = BaseElement.of_root(signed)
            for k in range(base.cartan_rank):
                got = base.bracket(BaseElement.cartan(k), x)
                assert got == lin_sum((action[k], {x: 1}))


@settings(max_examples=60, derandomize=True)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_virasoro_jacobi_hypothesis(m, n, p):
    def elem(k):
        return BaseElement.cartan(0) if k == 0 else BaseElement.of_root(Root((k,)))

    x, y, z = elem(m), elem(n), elem(p)
    total = lin_sum(
        (1, bracket_ext(VIR, VIR.bracket(x, y), {z: 1})),
        (1, bracket_ext(VIR, VIR.bracket(y, z), {x: 1})),
        (1, bracket_ext(VIR, VIR.bracket(z, x), {y: 1})),
    )
    assert total == {}


def test_bracket_without_a_cartan_part_has_no_coroot():
    # h = E00 - E11, x = E01, y = E02 constructs, but [x, y] = 0.
    h, x, y = BaseElement.cartan(0), BaseElement.of_root(ALPHA), BaseElement.of_root(-ALPHA)
    zero = MatrixAlgebra("zero-bracket", {h: {(0, 0): 1, (1, 1): -1}, x: {(0, 1): 1}, y: {(0, 2): 1}})
    assert zero.bracket(x, y) == {}
    # y = E12 under the name of -alpha: [x, y] = E02, the root vector of 2 alpha.
    x2 = BaseElement.of_root(2 * ALPHA)
    units = {h: {(0, 0): 1, (1, 1): -1}, x: {(0, 1): 1}, y: {(1, 2): 1}, x2: {(0, 2): 1}}
    root_term = MatrixAlgebra("root-term", units)
    assert root_term.bracket(x, y) == {x2: 1}
    # Neither has a coroot or a dual raising vector, and a refusal is not
    # cached: asked again, it raises again.
    for alg in (zero, root_term):
        for _ in range(2):
            with pytest.raises(InvalidAlgebraError):
                alg.coroot(ALPHA)
            with pytest.raises(InvalidAlgebraError):
                alg.dual_raising(ALPHA)
    # The determinant scan refuses the degenerate bracket too, rather than
    # reading det = 0 off it.
    with pytest.raises(InvalidAlgebraError):
        scan_reducible(WeightFunctional([[5], [3]]), TruncatedAlgebra(zero, 1), 2)


def test_rescaled_lowering_keeps_the_axioms():
    rng = random.Random("rescale")
    scales = {}

    def scale(alpha):
        return scales.setdefault(alpha, Fraction(rng.randint(1, 7), rng.randint(1, 5)))

    scaled = RescaledLowering(SL3, scale)
    # the coroots and the Cartan action survive the rescale
    for alpha in scaled.positive_roots(2):
        assert scaled.coroot(alpha) == SL3.coroot(alpha)
        got = scaled.bracket(BaseElement.of_root(alpha), BaseElement.of_root(-alpha))
        assert got == coroot_element(SL3.coroot(alpha))
        for signed in (alpha, -alpha):
            action = root_functional(scaled, signed)
            x = BaseElement.of_root(signed)
            for k in range(scaled.cartan_rank):
                assert scaled.bracket(BaseElement.cartan(k), x) == lin_sum((action[k], {x: 1}))
    # the rescale shows between roots: x_alpha becomes x_alpha / s and
    # y_alpha becomes s y_alpha, while [e1, e2] = e12 and [f1, f2] = -f12
    a1, a2 = Root((1, 0)), Root((0, 1))
    raised = scaled.bracket(BaseElement.of_root(a1), BaseElement.of_root(a2))
    assert raised == {BaseElement.of_root(a1 + a2): scale(a1 + a2) / (scale(a1) * scale(a2))}
    lowered = scaled.bracket(BaseElement.of_root(-a1), BaseElement.of_root(-a2))
    assert lowered == {BaseElement.of_root(-a1 - a2): -scale(a1) * scale(a2) / scale(a1 + a2)}
    # spot-check Jacobi in the rescaled basis
    elems = basis_sample(scaled, 2)
    for _ in range(100):
        x, y, z = (rng.choice(elems) for _ in range(3))
        total = lin_sum(
            (1, bracket_ext(scaled, scaled.bracket(x, y), {z: 1})),
            (1, bracket_ext(scaled, scaled.bracket(y, z), {x: 1})),
            (1, bracket_ext(scaled, scaled.bracket(z, x), {y: 1})),
        )
        assert total == {}
