"""Exact matrix helpers, cross-checked against cofactor expansion."""

import random
from fractions import Fraction

import pytest

from tcla import linalg


def cofactor_det(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def rand_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]


def test_determinant_base_cases():
    assert linalg.determinant([]) == 1
    assert linalg.determinant([[Fraction(7, 3)]]) == Fraction(7, 3)
    assert linalg.determinant([[Fraction(5), Fraction(3)], [Fraction(3), Fraction(0)]]) == -9


def test_determinant_matches_cofactor_expansion():
    rng = random.Random("bareiss")
    for n in (2, 3, 4, 5):
        for _ in range(10):
            m = rand_matrix(rng, n)
            assert linalg.determinant(m) == cofactor_det(m)


def test_determinant_needs_square_input():
    with pytest.raises(ValueError):
        linalg.determinant([[Fraction(1), Fraction(2)]])


def test_determinant_singular_via_pivot_search():
    z = Fraction(0)
    m = [[z, Fraction(1), z], [z, Fraction(2), z], [Fraction(1), z, Fraction(1)]]
    assert linalg.determinant(m) == 0
    # zero pivot but nonsingular: forces the row swap
    m2 = [[z, Fraction(1)], [Fraction(1), z]]
    assert linalg.determinant(m2) == -1


def test_kernel_vectors():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    x = linalg.kernel_vector(m)
    assert x is not None and any(x)
    assert all(sum(row[j] * x[j] for j in range(2)) == 0 for row in m)
    u = linalg.left_kernel_vector(m)
    assert u is not None and any(u)
    assert all(sum(u[i] * m[i][j] for i in range(2)) == 0 for j in range(2))
    assert linalg.kernel_vector([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) is None
