"""Shapovalov matrices: frozen hand oracles and structural laws."""

import random
from fractions import Fraction

import pytest
from helpers import (
    RescaledLowering,
    any_algebra,
    ascend_path,
    determinant_at,
    determinant_law,
    evaluate,
    lin_sum,
    lowering,
    rand_generator,
    rand_vector,
    rand_weight,
    raising,
    reorder,
)
from tcla import (
    BUILTIN_ALGEBRAS,
    InvalidAlgebraError,
    Root,
    ShapovalovMatrix,
    TruncatedAlgebra,
    VermaModule,
    WeightFunctional,
    algebra,
    ascend,
    enumerate_monomials,
    matrix_to_json,
    positive_lattice_points,
    scan_reducible,
    shapovalov_matrix,
)
from tcla import criterion, linalg
from tcla.shapovalov import determinant

ALPHA = Root((1,))


def sl2_module(levels=((5,), (3,))):
    alg = TruncatedAlgebra(algebra("sl2"), len(levels) - 1)
    return VermaModule(alg, WeightFunctional(levels))


def test_ascend_examples():
    m = sl2_module()
    f0, f1 = lowering(ALPHA, 0), lowering(ALPHA, 1)
    v = m.descend((f0,))
    assert ascend(m, f0, v) == {(): 5}
    assert ascend(m, f1, v) == {(): 3}


@pytest.mark.parametrize("name", (*BUILTIN_ALGEBRAS, "sp4", "g2", "rescaled-sl3"))
def test_ascend_is_one_raising_action(name):
    # Along the lowering factor y_alpha at t-degree d, ascend acts with the
    # raising basis vector x_alpha at t-degree d, into a fresh dict.
    rng = random.Random(f"ascend:{name}")
    base = blocks_algebra(name)
    m = VermaModule(TruncatedAlgebra(base, 2), rand_weight(rng, base, 2))
    roots = base.positive_roots(2)
    for _ in range(20):
        alpha, degree = rng.choice(roots), rng.randint(0, 2)
        v = rand_vector(rng, m)
        out = ascend(m, lowering(alpha, degree), v)
        assert out == m.act(raising(alpha, degree), v) and out is not v


def test_sl2_hand_oracle_matrix():
    # Entries are the weight values on the coroot at t^(i+j), zero past t^N:
    # [[L0, L1], [L1, 0]] for levels (5, 3).
    m = sl2_module()
    mat = shapovalov_matrix(m, ALPHA)
    f0, f1 = lowering(ALPHA, 0), lowering(ALPHA, 1)
    assert mat.monomials == [(f0,), (f1,)]
    assert mat.entries == [[5, 3], [3, 0]]
    assert determinant_at(m, ALPHA) == -9


def test_chi_zero_matrix():
    m = sl2_module()
    mat = shapovalov_matrix(m, Root((0,)))
    assert mat.monomials == [()]
    assert mat.entries == [[1]]
    assert determinant_at(m, Root((0,))) == 1


def test_virasoro_hand_oracle_matrix():
    vir = algebra("virasoro")
    alg = TruncatedAlgebra(vir, 1)
    m = VermaModule(alg, WeightFunctional([(1, 0), (Fraction(1, 2), 0)]))
    mat = shapovalov_matrix(m, ALPHA)
    assert mat.entries == [[2, 1], [1, 0]]
    assert determinant_at(m, ALPHA) == -1


def test_sl2_two_alpha_hand_oracle():
    # Straightening by hand over monomials (f0 f0), (f0 f1), (f1 f1) with
    # levels (a, b) gives entries L_{d+q} L_{c+p} + L_{d+p} L_{c+q}
    # - 2 L_{c+d+p+q} (indices past N vanish), hence det = -4 b^6.
    m = sl2_module()
    mat = shapovalov_matrix(m, Root((2,)))
    assert mat.entries == [[40, 24, 18], [24, 9, 0], [18, 0, 0]]
    assert determinant_at(m, Root((2,))) == -2916

    rng = random.Random("2alpha")
    for _ in range(10):
        w = rand_weight(rng, algebra("sl2"), 1)
        mm = VermaModule(TruncatedAlgebra(algebra("sl2"), 1), w)
        b = evaluate(w, (1,), 1)
        assert determinant_at(mm, Root((2,))) == -4 * b**6


def test_hankel_law_on_simple_roots():
    # At a simple one-dimensional root the matrix is Hankel in the coroot
    # values and anti-triangular; its determinant is the product law's.
    rng = random.Random("hankel")
    for name in ("sl2", "sl3", "sl4", "virasoro", "oscillator"):
        base = algebra(name)
        simple = base.positive_roots(1)
        for nilp in (1, 2):
            alg = TruncatedAlgebra(base, nilp)
            for _ in range(3):
                w = rand_weight(rng, base, nilp)
                m = VermaModule(alg, w)
                for alpha in simple:
                    h = base.coroot(alpha)
                    mat = shapovalov_matrix(m, alpha)
                    for i in range(nilp + 1):
                        for j in range(nilp + 1):
                            expected = evaluate(w, h, i + j) if i + j <= nilp else Fraction(0)
                            assert mat.entries[i][j] == expected
                    assert linalg.determinant(mat.entries) == determinant_law(alg, w, alpha)


def test_symmetry_for_sl_and_virasoro():
    rng = random.Random("symmetry")
    cases = [("sl3", (Root((1, 1)), Root((2, 0)))), ("virasoro", (Root((2,)), Root((3,))))]
    for name, chis in cases:
        base = algebra(name)
        alg = TruncatedAlgebra(base, 1)
        m = VermaModule(alg, rand_weight(rng, base, 1))
        for chi in chis:
            mat = shapovalov_matrix(m, chi).entries
            n = len(mat)
            assert all(mat[i][j] == mat[j][i] for i in range(n) for j in range(n))


def test_rescaling_preserves_zero_locus():
    # Rescaling the lowering basis multiplies the determinant at each chi by
    # a fixed nonzero constant, so the zero set over weights is unchanged.
    rng = random.Random("rescale-det")
    for name, coords in [("sl2", (1,)), ("sl3", (1, 1)), ("virasoro", (2,))]:
        base = algebra(name)
        scales = {}

        def scale(alpha):
            return scales.setdefault(alpha, Fraction(rng.randint(1, 9), rng.randint(1, 5)))

        scaled = RescaledLowering(base, scale)
        chi = Root(coords)
        ratios = set()
        for _ in range(3):
            w = rand_weight(rng, base, 1)
            det = determinant_at(VermaModule(TruncatedAlgebra(base, 1), w), chi)
            det_scaled = determinant_at(VermaModule(TruncatedAlgebra(scaled, 1), w), chi)
            assert (det == 0) == (det_scaled == 0)
            if det:
                ratios.add(det_scaled / det)
        assert len(ratios) <= 1  # one constant per chi
        if ratios:
            assert next(iter(ratios)) != 0
        # a reducible weight stays degenerate in the rescaled basis
        top_zero = WeightFunctional([rand_weight(rng, base, 1).levels[0], (0,) * base.cartan_rank])
        det0 = determinant_at(VermaModule(TruncatedAlgebra(scaled, 1), top_zero), chi)
        assert det0 == 0


def test_monomial_order_change_flips_at_most_the_sign():
    rng = random.Random("permute")
    base = algebra("sl3")
    alg = TruncatedAlgebra(base, 1)
    m = VermaModule(alg, rand_weight(rng, base, 1))
    chi = Root((1, 1))
    monos = enumerate_monomials(chi, alg)
    det = linalg.determinant(shapovalov_matrix(m, chi).entries)
    for _ in range(4):
        shuffled = monos[:]
        rng.shuffle(shuffled)
        det_perm = linalg.determinant(reorder(shapovalov_matrix(m, chi), shuffled).entries)
        assert det_perm in (det, -det)


def test_degenerate_matrix_has_vanishing_kernel_vector():
    # A left-kernel combination of descents dies along every upward path.
    m = sl2_module(((5,), (0,)))
    chi = Root((1,))
    mat = shapovalov_matrix(m, chi)
    det = linalg.determinant(mat.entries)
    assert det == 0
    u = [Fraction(0), Fraction(1)]  # the matrix is [[5, 0], [0, 0]]
    size = len(mat.entries)
    for j in range(size):
        assert sum(u[i] * mat.entries[i][j] for i in range(size)) == 0
    # engine-level: the same combination, ascended along each path, is zero
    w = lin_sum(*((u[i], m.descend(mono)) for i, mono in enumerate(mat.monomials)))
    assert w
    for mono in mat.monomials:
        assert ascend_path(m, mono, w).get((), 0) == 0


def test_matrix_json_schema():
    m = sl2_module()
    mat = shapovalov_matrix(m, ALPHA)
    doc = matrix_to_json(mat, determinant(mat, 1))
    assert doc == {
        "chi": [1],
        "monomials": ["f(1)[0]@0", "f(1)[0]@1"],
        "entries": [["5", "3"], ["3", "0"]],
        "det": "-9",
    }


def direct_matrix(m, chi, monos=None):
    # One full ascent per entry: the definition the recursive builder must match.
    monos = enumerate_monomials(chi, m.alg) if monos is None else monos
    return [[ascend_path(m, col, m.descend(row)).get((), 0) for col in monos] for row in monos]


def top_zero(rng, base, nilp):
    levels = [list(level) for level in rand_weight(rng, base, nilp).levels]
    levels[-1] = [Fraction(0)] * base.cartan_rank
    return WeightFunctional(levels)


@pytest.mark.parametrize("nilp", (1, 2))
@pytest.mark.parametrize("name", ("sl2", "sl3", "sl4", "virasoro", "oscillator"))
def test_recursive_matrix_equals_direct_ascents(name, nilp):
    rng = random.Random(f"oracle:{name}:{nilp}")
    base = algebra(name)
    alg = TruncatedAlgebra(base, nilp)
    height = 2 if name == "sl4" else 3
    for weight in (rand_weight(rng, base, nilp), top_zero(rng, base, nilp)):
        m = VermaModule(alg, weight)
        for chi in positive_lattice_points(base.simple_generator_count, height):
            assert shapovalov_matrix(m, chi).entries == direct_matrix(m, chi)


def test_recursive_matrix_on_rescaled_lowering():
    rng = random.Random("oracle:rescaled")
    base = algebra("sl3")
    scales = {}
    scaled = RescaledLowering(
        base, lambda alpha: scales.setdefault(alpha, Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    )
    m = VermaModule(TruncatedAlgebra(scaled, 2), rand_weight(rng, base, 2))
    for chi in positive_lattice_points(2, 3):
        assert shapovalov_matrix(m, chi).entries == direct_matrix(m, chi)


def test_single_chi_on_a_fresh_module():
    # No earlier scan: the smaller matrices are filled on demand.
    rng = random.Random("oracle:cold")
    alg = TruncatedAlgebra(algebra("virasoro"), 1)
    weight = rand_weight(rng, alg.base, 1)
    chi = Root((4,))
    expected = direct_matrix(VermaModule(alg, weight), chi)
    assert shapovalov_matrix(VermaModule(alg, weight), chi).entries == expected


def test_returned_matrix_is_a_copy_of_the_cache():
    m = sl2_module()
    first = shapovalov_matrix(m, ALPHA)
    first.rows[0][0] = 99
    first.rows[1][1] = 7  # a zero the cache does not store
    del first.rows[1][0]
    first.monomials.reverse()
    again = shapovalov_matrix(m, ALPHA)
    assert again.rows == [{0: 5, 1: 3}, {0: 3}]
    assert again.entries == [[5, 3], [3, 0]]
    assert again.monomials == enumerate_monomials(ALPHA, m.alg)


def test_mutating_an_action_or_a_monomial_list_changes_no_later_call():
    m = sl2_module()
    f0, f1 = lowering(ALPHA, 0), lowering(ALPHA, 1)
    acted = m.act(f0, m.highest_weight_vector())
    acted[(f0,)] = Fraction(4)
    acted[(f1,)] = Fraction(1)
    listed = enumerate_monomials(ALPHA, m.alg)
    listed.reverse()
    assert m.act(f0, m.highest_weight_vector()) == {(f0,): 1}
    assert enumerate_monomials(ALPHA, m.alg) == [(f0,), (f1,)]


def test_scan_never_builds_the_dense_view(monkeypatch):
    def dense(self):
        raise AssertionError("dense view built")

    monkeypatch.setattr(ShapovalovMatrix, "entries", property(dense))
    rng = random.Random("scan:sparse")
    alg = TruncatedAlgebra(algebra("virasoro"), 2)
    report = scan_reducible(rand_weight(rng, alg.base, 2), alg, 3)
    assert [r.dimension for r in report.records] == [3, 9, 22]


@pytest.mark.parametrize("nilp", (1, 2))
@pytest.mark.parametrize("name", ("sl2", "sl3", "sl4", "virasoro", "oscillator"))
def test_cache_holds_sparse_rows_and_hands_out_dense_ones(name, nilp):
    rng = random.Random(f"sparse:{name}:{nilp}")
    base = algebra(name)
    alg = TruncatedAlgebra(base, nilp)
    height = 2 if name == "sl4" else 3
    for weight in (rand_weight(rng, base, nilp), with_zero_entry(rng, base, nilp), top_zero(rng, base, nilp)):
        m = VermaModule(alg, weight)
        for chi in positive_lattice_points(base.simple_generator_count, height):
            mat = shapovalov_matrix(m, chi)
            n = mat.size
            assert len(mat.entries) == n and all(len(row) == n for row in mat.entries)
            assert all(type(x) is Fraction for row in mat.entries for x in row)
        for monos, index, rows in m._matrices.values():
            assert len(rows) == len(monos) == len(index)
            for row in rows:
                assert all(value != 0 for value in row.values())
                assert set(row) <= set(range(len(monos)))
                assert all(type(value) is (int if value.denominator == 1 else Fraction) for value in row.values())


def test_an_integral_weight_caches_only_ints():
    base = algebra("sl3")
    alg = TruncatedAlgebra(base, 2)
    m = VermaModule(alg, WeightFunctional([[3, -2], [1, 4], [-5, 2]]))
    for chi in positive_lattice_points(2, 3):
        mat = shapovalov_matrix(m, chi)
        assert all(type(x) is Fraction for row in mat.entries for x in row)
    values = [value for _, _, rows in m._matrices.values() for row in rows for value in row.values()]
    assert values and all(type(value) is int for value in values)


@pytest.mark.parametrize("nilp", (1, 2))
@pytest.mark.parametrize("name", (*BUILTIN_ALGEBRAS, "sp4", "g2"))
def test_modules_sharing_an_algebra_agree_with_modules_on_fresh_ones(name, nilp):
    # Two weights on one algebra share its monomial and lowering tables; the
    # second module starts with the first one's tables warm.
    rng = random.Random(f"shared:{name}:{nilp}")
    base = any_algebra(name)
    height = 2 if name in ("sl4", "sp4", "g2") else 3
    chis = positive_lattice_points(base.simple_generator_count, height)
    shared = TruncatedAlgebra(base, nilp)

    def results(alg, weight, probes):
        m = VermaModule(alg, weight)
        acts = [m.act(x, v) for x, v in probes]
        rows = [shapovalov_matrix(m, chi).rows for chi in chis]
        return acts, rows, scan_reducible(weight, alg, height)

    for weight in (rand_weight(rng, base, nilp), top_zero(rng, base, nilp)):
        probe_module = VermaModule(TruncatedAlgebra(base, nilp), weight)
        probes = [(rand_generator(rng, shared), rand_vector(rng, probe_module)) for _ in range(20)]
        assert results(shared, weight, probes) == results(TruncatedAlgebra(base, nilp), weight, probes)
    assert shared._lowering
    assert all(x.elem.root is not None and not x.elem.root.is_positive for x in shared._lowering)


def test_shuffled_override_equals_direct_ascents():
    rng = random.Random("oracle:override")
    base = algebra("sl3")
    alg = TruncatedAlgebra(base, 2)
    m = VermaModule(alg, rand_weight(rng, base, 2))
    chi = Root((2, 1))
    monos = enumerate_monomials(chi, alg)
    rng.shuffle(monos)
    mat = reorder(shapovalov_matrix(m, chi), monos)
    assert mat.monomials == monos
    assert mat.entries == direct_matrix(m, chi, monos)


# -- block determinant -----------------------------------------------------------

BLOCK_CASES = [
    (name, nilp, height)
    for nilp, heights in ((1, {"sl2": 5, "sl3": 3, "sl4": 2, "virasoro": 4, "oscillator": 4}),
                          (2, {"sl2": 4, "sl3": 3, "sl4": 2, "virasoro": 4, "oscillator": 3}),
                          (3, {"sl2": 3, "sl3": 2, "sl4": 1, "virasoro": 3, "oscillator": 3}))
    for name, height in heights.items()
]


def with_zero_entry(rng, base, nilp):
    levels = [list(level) for level in rand_weight(rng, base, nilp).levels]
    levels[rng.randint(0, nilp)][0] = Fraction(0)
    return WeightFunctional(levels)


@pytest.mark.parametrize("name, nilp, height", BLOCK_CASES)
def test_block_determinant_equals_canonical_bareiss(name, nilp, height):
    rng = random.Random(f"blocks:{name}:{nilp}")
    base = algebra(name)
    alg = TruncatedAlgebra(base, nilp)
    for weight in (rand_weight(rng, base, nilp), with_zero_entry(rng, base, nilp), top_zero(rng, base, nilp)):
        m = VermaModule(alg, weight)
        for chi in positive_lattice_points(base.simple_generator_count, height):
            mat = shapovalov_matrix(m, chi)
            assert determinant(mat, nilp) == linalg.determinant(mat.entries)


def test_block_determinant_on_rescaled_lowering():
    rng = random.Random("blocks:rescaled")
    for name in ("sl3", "virasoro"):
        base = algebra(name)
        scales = {}
        scaled = RescaledLowering(
            base, lambda alpha: scales.setdefault(alpha, Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        )
        m = VermaModule(TruncatedAlgebra(scaled, 2), rand_weight(rng, base, 2))
        for chi in positive_lattice_points(base.simple_generator_count, 3):
            mat = shapovalov_matrix(m, chi)
            assert determinant(mat, 2) == linalg.determinant(mat.entries)


def test_block_determinant_stops_at_the_first_zero_block(monkeypatch):
    # With the top level zero, the first block (the monomials of top
    # t-degree against those of degree zero) is singular.
    rng = random.Random("blocks:zero")
    base = algebra("virasoro")
    m = VermaModule(TruncatedAlgebra(base, 2), top_zero(rng, base, 2))
    mat = shapovalov_matrix(m, Root((3,)))
    calls = []
    bareiss = linalg.determinant
    monkeypatch.setattr(linalg, "determinant", lambda rows: calls.append(rows) or bareiss(rows))
    assert determinant(mat, 2) == 0
    assert len(calls) == 1 < len(mat.monomials)


def test_block_determinant_is_exact_under_any_monomial_order():
    rng = random.Random("blocks:shuffle")
    for name, nilp, chi in (("sl3", 2, Root((2, 1))), ("virasoro", 2, Root((3,))), ("sl2", 3, Root((2,)))):
        base = algebra(name)
        alg = TruncatedAlgebra(base, nilp)
        m = VermaModule(alg, rand_weight(rng, base, nilp))
        det = linalg.determinant(shapovalov_matrix(m, chi).entries)
        monos = enumerate_monomials(chi, alg)
        for _ in range(4):
            rng.shuffle(monos)
            assert determinant(reorder(shapovalov_matrix(m, chi), monos), nilp) == det


def test_planted_entry_above_the_block_diagonal_raises():
    rng = random.Random("blocks:planted")
    alg = TruncatedAlgebra(algebra("sl3"), 2)
    mat = shapovalov_matrix(VermaModule(alg, rand_weight(rng, alg.base, 2)), Root((1, 1)))
    # Row f(1,1)@1 against column f(1,1)@2: t-degrees 1 + 2 > N * 1.
    i, j = (mat.monomials.index((lowering(Root((1, 1)), d),)) for d in (1, 2))
    assert mat.entries[i][j] == 0 and j not in mat.rows[i]
    mat.rows[i][j] = 1
    with pytest.raises(InvalidAlgebraError, match="t-degree bound"):
        determinant(mat, 2)


def test_monomials_not_closed_under_degree_reversal_raise():
    mat = shapovalov_matrix(sl2_module(), ALPHA)  # monomials f@0, f@1
    del mat.monomials[1], mat.rows[1], mat.rows[0][1]
    with pytest.raises(InvalidAlgebraError, match="degree reversal"):
        determinant(mat, 1)


@pytest.mark.parametrize("nilp", (1, 2))
@pytest.mark.parametrize("name", ("sl2", "sl3", "sl4", "virasoro", "oscillator", "sp4", "g2"))
def test_block_determinant_equals_the_product_law(name, nilp):
    rng = random.Random(f"law:{name}:{nilp}")
    base = any_algebra(name)
    alg = TruncatedAlgebra(base, nilp)
    height = {"sl2": 4, "sl3": 3, "sl4": 2, "virasoro": 4, "oscillator": 3, "sp4": 5 - nilp, "g2": 5 - nilp}[name]
    for weight in (rand_weight(rng, base, nilp), with_zero_entry(rng, base, nilp)):
        m = VermaModule(alg, weight)
        for chi in positive_lattice_points(base.simple_generator_count, height):
            assert determinant(shapovalov_matrix(m, chi), nilp) == determinant_law(alg, weight, chi)


# -- blocks build ----------------------------------------------------------------


def row_key(mono, nilp):
    return (nilp * len(mono) - sum(f.degree for f in mono), -len(mono))


def col_key(mono):
    return (sum(f.degree for f in mono), -len(mono))


def above_blocks(mat, nilp):
    # The full rows restricted to C(m_j) >= R(m_i), keys written out here
    # rather than read from the module under test.
    cols = [col_key(m) for m in mat.monomials]
    return [
        {j: s for j, s in row.items() if cols[j] >= row_key(mono, nilp)}
        for mono, row in zip(mat.monomials, mat.rows)
    ]


def unit_ground_level(rng, base, nilp):
    levels = [list(level) for level in rand_weight(rng, base, nilp).levels]
    levels[0] = [Fraction(1)] * base.cartan_rank
    return WeightFunctional(levels)


def blocks_algebra(name):
    # "rescaled-<name>": the built-in with every lowering vector scaled.
    if name.startswith("rescaled-"):
        return RescaledLowering(algebra(name[len("rescaled-"):]), lambda alpha: Fraction(alpha.height + 2, 3))
    return any_algebra(name)


@pytest.mark.parametrize("nilp", (1, 2))
@pytest.mark.parametrize("name", (*BUILTIN_ALGEBRAS, "sp4", "g2", "rescaled-sl3", "rescaled-virasoro"))
def test_blocks_build_is_the_full_build_at_and_above_the_diagonal_blocks(name, nilp):
    rng = random.Random(f"above:{name}:{nilp}")
    base = blocks_algebra(name)
    alg = TruncatedAlgebra(base, nilp)
    height = 2 if name in ("sl4", "sp4", "g2") else 3
    chis = positive_lattice_points(base.simple_generator_count, height)
    weights = (rand_weight(rng, base, nilp), rand_weight(rng, base, nilp),
               top_zero(rng, base, nilp), unit_ground_level(rng, base, nilp))
    for weight in weights:
        full_module, blocks_module = VermaModule(alg, weight), VermaModule(alg, weight)
        full_dets = []
        for chi in chis:
            full = shapovalov_matrix(full_module, chi)
            blocks = shapovalov_matrix(blocks_module, chi, blocks=True)
            assert blocks.monomials == full.monomials
            assert blocks.rows == above_blocks(full, nilp)
            full_dets.append(linalg.determinant(full.entries))
        assert [r.det for r in scan_reducible(weight, alg, height).records] == full_dets


def test_a_scan_stores_no_entry_below_the_diagonal_blocks(monkeypatch):
    built = []

    def recording(module, chi, **kw):
        built.append((module, shapovalov_matrix(module, chi, **kw)))
        return built[-1][1]

    monkeypatch.setattr(criterion, "shapovalov_matrix", recording)
    rng = random.Random("scan:below")
    alg = TruncatedAlgebra(algebra("virasoro"), 2)
    scan_reducible(rand_weight(rng, alg.base, 2), alg, 4)
    (module,) = {m for m, _ in built}
    mats = [mat for _, mat in built]
    cached = [(monos, rows) for monos, _, rows in module._matrices.values()]
    assert len(mats) == 4 and len(cached) == 5  # chi = 0 is cached too
    for monos, rows in [(mat.monomials, mat.rows) for mat in mats] + cached:
        cols = [col_key(m) for m in monos]
        assert all(cols[j] >= row_key(mono, 2) for mono, row in zip(monos, rows) for j in row)
    # The largest matrix, dimension 51, stores fewer entries than the full one.
    full = shapovalov_matrix(module, Root((4,)))
    assert mats[-1].size == 51 and sum(map(len, mats[-1].rows)) < sum(map(len, full.rows))


@pytest.mark.parametrize("blocks_first", (False, True))
def test_full_and_blocks_requests_on_one_module_equal_those_on_fresh_ones(blocks_first):
    rng = random.Random(f"kinds:{blocks_first}")
    for name, nilp, height in (("sl3", 2, 3), ("virasoro", 2, 4)):
        base = algebra(name)
        alg = TruncatedAlgebra(base, nilp)
        weight = rand_weight(rng, base, nilp)
        chis = positive_lattice_points(base.simple_generator_count, height)
        m = VermaModule(alg, weight)
        # The first kind at the last chi fills the smaller matrices of its
        # kind that it reads; the second kind must not be served from them.
        order = (True, False) if blocks_first else (False, True)
        shapovalov_matrix(m, chis[-1], blocks=order[0])
        for blocks in order[::-1]:
            for chi in chis:
                fresh = shapovalov_matrix(VermaModule(alg, weight), chi, blocks=blocks)
                assert shapovalov_matrix(m, chi, blocks=blocks) == fresh
