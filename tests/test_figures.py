"""Hyperplane-arrangement emitters: line data, CSV/SVG rendering, goldens."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import rand_weight
from tcla import (
    Root,
    TruncatedAlgebra,
    WeightFunctional,
    algebra,
    criterion_reducible,
    render_csv,
    render_svg,
    sl3_hyperplanes,
    virasoro_lines,
)

GOLDEN = Path(__file__).parent / "golden"


def test_sl3_lines():
    ls = sl3_hyperplanes()
    assert len(ls.lines) == 3
    assert {normal for _label, normal in ls.lines} == {
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    }
    labels = [label for label, _ in ls.lines]
    assert len(set(labels)) == 3
    assert ls.axes == ("h1", "h2")


def test_virasoro_line_slopes():
    ls = virasoro_lines(4)
    assert len(ls.lines) == 4
    for m, (label, (n1, n2)) in enumerate(ls.lines, start=1):
        assert label == f"m={m}"
        assert n2 != 0
        assert -n1 / n2 == -Fraction(m * m - 1, 24)
    # m = 1 is the horizontal axis y = 0
    assert ls.lines[0][1][0] == 0


def test_virasoro_m_max_validation():
    with pytest.raises(ValueError):
        virasoro_lines(0)


def test_point_on_witness_line():
    # (3, -3) satisfies the alpha1+alpha2 condition; the origin satisfies all
    ls = sl3_hyperplanes()
    by_label = dict(ls.lines)
    n1, n2 = by_label["alpha1+alpha2"]
    assert n1 * 3 + n2 * (-3) == 0
    for _label, (a, b) in ls.lines:
        assert a * 0 + b * 0 == 0


def test_lines_vanish_on_matching_reducible_samples():
    # For each emitted line, a weight constructed to satisfy the criterion at
    # the matching witness gives exactly zero under the line's normal.
    rng = random.Random("figure-consistency")

    sl3 = algebra("sl3")
    alg3 = TruncatedAlgebra(sl3, 1)
    for root, normal in [
        (Root((1, 0)), (1, 0)),
        (Root((0, 1)), (0, 1)),
        (Root((1, 1)), (1, 1)),
    ]:
        h = sl3.coroot(root)
        pivot = next(k for k, c in enumerate(h) if c)
        for _ in range(5):
            levels = [list(l) for l in rand_weight(rng, sl3, 1).levels]
            top = levels[1]
            top[pivot] = -sum(top[j] * h[j] for j in range(len(h)) if j != pivot) / h[pivot]
            w = WeightFunctional(levels)
            verdict = criterion_reducible(w, alg3, 2)
            assert root in verdict.witnesses
            x, y = w.levels[1]
            assert normal[0] * x + normal[1] * y == 0

    vir = algebra("virasoro")
    algv = TruncatedAlgebra(vir, 1)
    lines = dict(virasoro_lines(4).lines)
    for m in (1, 2, 3, 4):
        # solve 2m y + (m^3-m)/12 x = 0 with x random
        x = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        y = -Fraction(m**3 - m, 12) * x / (2 * m)
        w = WeightFunctional([(0, 0), (y, x)])  # levels over (L0, c)
        verdict = criterion_reducible(w, algv, 6)
        assert Root((m,)) in verdict.witnesses
        n1, n2 = lines[f"m={m}"]
        assert n1 * x + n2 * y == 0


def test_csv_content():
    assert render_csv(sl3_hyperplanes()) == (
        "label,n1,n2\n"
        "alpha1,1,0\n"
        "alpha2,0,1\n"
        "alpha1+alpha2,1,1\n"
    )
    rows = render_csv(virasoro_lines(4)).splitlines()
    assert rows[0] == "label,n1,n2"
    assert len(rows) == 5
    assert rows[2] == "m=2,1/2,4"


def test_rendering_is_deterministic():
    assert render_svg(sl3_hyperplanes()) == render_svg(sl3_hyperplanes())
    assert render_csv(virasoro_lines(7)) == render_csv(virasoro_lines(7))


@pytest.mark.parametrize(
    "fname,make",
    [
        ("sl3.csv", lambda: render_csv(sl3_hyperplanes())),
        ("sl3.svg", lambda: render_svg(sl3_hyperplanes())),
        ("virasoro_m4.csv", lambda: render_csv(virasoro_lines(4))),
        ("virasoro_m4.svg", lambda: render_svg(virasoro_lines(4))),
    ],
)
def test_golden_files(fname, make):
    expected = (GOLDEN / fname).read_bytes()
    assert make().encode("utf-8") == expected
