"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Every tolerance here is exact equality; randomness is
seeded and reproducible.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    RescaledLowering,
    any_algebra,
    basis_sample,
    bracket_ext,
    closed_form_coroots,
    coroot_element,
    determinant_at,
    evaluate,
    lin_sum,
    rand_generator,
    rand_vector,
    rand_weight,
    reorder,
    root_functional,
)
from tcla import (
    BUILTIN_ALGEBRAS,
    BaseElement,
    Root,
    TruncatedAlgebra,
    VermaModule,
    WeightFunctional,
    algebra,
    criterion_reducible,
    cross_validate,
    enumerate_monomials,
    render_csv,
    render_svg,
    scan_reducible,
    shapovalov_matrix,
    sl3_hyperplanes,
    virasoro_lines,
)
from tcla import linalg
from tcla.cli import main as cli_main

SEED = 20260808


def ok(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_hand_oracle_matrix():
    started = time.time()
    alg = TruncatedAlgebra(algebra("sl2"), 1)
    module = VermaModule(alg, WeightFunctional([(5,), (3,)]))
    mat = shapovalov_matrix(module, Root((1,)))
    det = linalg.determinant(mat.entries)
    assert mat.entries == [[5, 3], [3, 0]]
    assert det == -9
    elapsed = time.time() - started
    assert elapsed < 1.0
    ok(1, f"sl2 N=1 chi=alpha matrix [[5,3],[3,0]], det -9 ({elapsed:.3f}s)")


def test_criterion_2_hankel_law():
    started = time.time()
    rng = random.Random(SEED)
    base = algebra("sl2")
    alpha = Root((1,))
    for nilp in (1, 2):
        sign = -1 if ((nilp + 1) // 2) % 2 else 1
        alg = TruncatedAlgebra(base, nilp)
        for _ in range(100):
            w = rand_weight(rng, base, nilp, lo=-20, hi=20, maxden=6)
            det = determinant_at(VermaModule(alg, w), alpha)
            top = evaluate(w, (1,), nilp)
            assert det == sign * top ** (nilp + 1)
    elapsed = time.time() - started
    assert elapsed < 10.0
    ok(2, f"sl2 Hankel law det = sign * top^(N+1) on 200 random weights ({elapsed:.1f}s)")


@pytest.mark.parametrize(
    "name,max_height",
    [("sl2", 2), ("sl3", 2), ("virasoro", 4), ("oscillator", 3), ("sp4", 3)],
)
@pytest.mark.parametrize("nilp", [1, 2])
def test_criterion_3_criterion_vs_scan_cross_validation(name, max_height, nilp):
    report = cross_validate(any_algebra(name), nilp, 100, seed=SEED, max_height=max_height)
    if report.disagreements:
        bad = [rec for rec in report.records if not rec["agree"]]
        pytest.fail(
            f"criterion/scan disagreement for {name} N={nilp}:\n"
            + json.dumps(bad, indent=2)
        )
    assert report.agreements == 100
    ok(3, f"{name} N={nilp} criterion vs scan agree on 100/100 samples (height {max_height})")


def test_criterion_3_on_g2():
    # The non-simply-laced stretch case, at N=1 only: its roots reach height 5.
    report = cross_validate(any_algebra("g2"), 1, 100, seed=SEED, max_height=3)
    assert report.disagreements == [] and report.agreements == 100
    ok(3, "g2 N=1 criterion vs scan agree on 100/100 samples (height 3)")


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_criterion_4_top_level_only_dependence(name):
    base = algebra(name)
    depth = 2 if base.finite_roots else 3
    rng = random.Random(f"{SEED}:pairs:{name}")
    for pair_index in range(50):
        nilp = 1 if pair_index % 2 == 0 else 2
        alg = TruncatedAlgebra(base, nilp)
        w1 = rand_weight(rng, base, nilp)
        levels = [list(level) for level in rand_weight(rng, base, nilp).levels]
        levels[-1] = list(w1.levels[-1])  # same top, different lower levels
        w2 = WeightFunctional(levels)
        v1 = criterion_reducible(w1, alg, depth)
        v2 = criterion_reducible(w2, alg, depth)
        assert v1.reducible == v2.reducible and v1.witnesses == v2.witnesses
        s1 = scan_reducible(w1, alg, depth)
        s2 = scan_reducible(w2, alg, depth)
        assert s1.zero_found == s2.zero_found
    ok(4, f"{name}: 50 pairs differing below the top level agree on both verdicts")


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_criterion_5_structure_constants(name):
    base = algebra(name)
    elems = basis_sample(base, 3 if base.finite_roots else 6)
    rng = random.Random(f"{SEED}:structure:{name}")
    if base.finite_roots:
        triples = [(x, y, z) for x in elems for y in elems for z in elems]
        pairs = [(x, y) for x in elems for y in elems]
    else:
        triples = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(400)]
        pairs = [tuple(rng.choice(elems) for _ in range(2)) for _ in range(600)]

    zero = Root((0,) * base.simple_generator_count)
    for x, y in pairs:
        assert lin_sum((1, base.bracket(x, y)), (1, base.bracket(y, x))) == {}
        rx = x.root if x.root is not None else zero
        ry = y.root if y.root is not None else zero
        total = rx + ry
        for term, _c in base.bracket(x, y).items():
            assert term.root is None if total.is_zero else term.root == total
    for x, y, z in triples:
        jac = lin_sum(
            (1, bracket_ext(base, base.bracket(x, y), {z: 1})),
            (1, bracket_ext(base, base.bracket(y, z), {x: 1})),
            (1, bracket_ext(base, base.bracket(z, x), {y: 1})),
        )
        assert jac == {}, (x, y, z)
    coroots = closed_form_coroots(base)
    for alpha in base.positive_roots(3 if base.finite_roots else 6):
        got = base.bracket(BaseElement.of_root(alpha), BaseElement.of_root(-alpha))
        assert got == coroot_element(coroots[alpha]) != {}
        for signed in (alpha, -alpha):
            action = root_functional(base, signed)
            x = BaseElement.of_root(signed)
            for k in range(base.cartan_rank):
                assert base.bracket(BaseElement.cartan(k), x) == lin_sum((action[k], {x: 1}))
    ok(5, f"{name}: antisymmetry, Jacobi, grading, coroots, Cartan action all exact")


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_criterion_6_module_axiom(name):
    base = algebra(name)
    rng = random.Random(f"{SEED}:axiom:{name}")
    alg = TruncatedAlgebra(base, 2)
    module = VermaModule(alg, rand_weight(rng, base, 2))
    for _ in range(200):
        x, y = rand_generator(rng, alg), rand_generator(rng, alg)
        v = rand_vector(rng, module)
        lhs = lin_sum((1, module.act(x, module.act(y, v))), (-1, module.act(y, module.act(x, v))))
        rhs = lin_sum(*((c, module.act(z, v)) for z, c in alg.bracket(x, y).items()))
        assert lhs == rhs, (x, y, v)
    ok(6, f"{name}: X(Yv) - Y(Xv) = [X,Y]v on 200 random triples")


def test_criterion_7_invariance():
    rng = random.Random(f"{SEED}:invariance")
    probes = [
        ("sl2", (1,)), ("sl2", (2,)),
        ("sl3", (1, 0)), ("sl3", (1, 1)), ("sl3", (0, 2)),
        ("virasoro", (1,)), ("virasoro", (2,)),
        ("oscillator", (2,)),
    ]
    count = 0
    while count < 20:
        name, coords = probes[count % len(probes)]
        base = algebra(name)
        chi = Root(coords)
        scales = {}

        def scale(alpha, _s=scales, _r=rng):
            return _s.setdefault(alpha, Fraction(_r.randint(1, 9), _r.randint(1, 5)))

        scaled = RescaledLowering(base, scale)
        # alternate generic and criterion-degenerate top levels
        w = rand_weight(rng, base, 1)
        if count % 2:
            levels = [list(level) for level in w.levels]
            levels[-1] = [Fraction(0)] * base.cartan_rank
            w = WeightFunctional(levels)
        det = determinant_at(VermaModule(TruncatedAlgebra(base, 1), w), chi)
        det_scaled = determinant_at(VermaModule(TruncatedAlgebra(scaled, 1), w), chi)
        assert (det == 0) == (det_scaled == 0)
        count += 1

    # monomial-order permutation changes the determinant by at most a sign
    base = algebra("sl3")
    alg = TruncatedAlgebra(base, 1)
    module = VermaModule(alg, rand_weight(rng, base, 1))
    chi = Root((1, 1))
    monos = enumerate_monomials(chi, alg)
    det = linalg.determinant(shapovalov_matrix(module, chi).entries)
    for _ in range(5):
        shuffled = monos[:]
        rng.shuffle(shuffled)
        det_perm = linalg.determinant(reorder(shapovalov_matrix(module, chi), shuffled).entries)
        assert det_perm in (det, -det)
    ok(7, "rescaled bases keep the zero set on 20 probes; order changes flip at most the sign")


def test_criterion_8_figures(tmp_path):
    import pathlib

    ls = sl3_hyperplanes()
    assert len(ls.lines) == 3
    assert {n for _l, n in ls.lines} == {(1, 0), (0, 1), (1, 1)}
    vir = virasoro_lines(4)
    assert len(vir.lines) == 4
    for m, (_label, (n1, n2)) in enumerate(vir.lines, start=1):
        assert -n1 / n2 == -Fraction(m * m - 1, 24)
    golden = pathlib.Path(__file__).parent / "golden"
    assert render_csv(ls).encode() == (golden / "sl3.csv").read_bytes()
    assert render_svg(ls).encode() == (golden / "sl3.svg").read_bytes()
    assert render_csv(vir).encode() == (golden / "virasoro_m4.csv").read_bytes()
    assert render_svg(vir).encode() == (golden / "virasoro_m4.svg").read_bytes()
    ok(8, "sl3 normals {(1,0),(0,1),(1,1)}, virasoro slopes -(m^2-1)/24, goldens byte-equal")


def test_criterion_9_virasoro_formula(tmp_path, capsys):
    lam = tmp_path / "reducible.json"
    lam.write_text(json.dumps({"levels": [{}, {}, {"L0": "1", "c": "-8"}]}), encoding="utf-8")
    assert cli_main(["check", "--algebra", "virasoro", "--nilp", "2", "--lambda", str(lam)]) == 0
    out = capsys.readouterr().out
    assert "REDUCIBLE, witness m=2" in out

    lam2 = tmp_path / "irreducible.json"
    lam2.write_text(json.dumps({"levels": [{}, {}, {"L0": "-1", "c": "4"}]}), encoding="utf-8")
    assert cli_main(["check", "--algebra", "virasoro", "--nilp", "2", "--lambda", str(lam2)]) == 0
    assert "IRREDUCIBLE" in capsys.readouterr().out

    # the witness satisfies 2m L0 + (m^3 - m)/12 c = 0 exactly at m = 2
    assert 2 * 2 * Fraction(1) + Fraction(2**3 - 2, 12) * Fraction(-8) == 0
    ok(9, "virasoro check: (1, -8) reducible at m=2, (-1, 4) irreducible")
