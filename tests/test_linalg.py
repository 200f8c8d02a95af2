"""The exact determinant, cross-checked against cofactor expansion."""

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



def elimination_det(rows):
    """Independent oracle: dense Fraction Gaussian elimination."""
    m = [list(row) for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return det


def test_determinant_with_huge_numerators_and_mixed_denominators():
    rng = random.Random("bareiss:huge")
    for n in (1, 2, 3, 4, 6):
        for _ in range(5):
            m = [[Fraction(rng.randint(-2**80, 2**80), rng.choice((1, 2, 3, 7, 2**70 + 1)))
                  for _ in range(n)] for _ in range(n)]
            if n > 1:
                m[0][0] = Fraction(0)  # forces a row swap
            assert linalg.determinant(m) == elimination_det(m)
            if n > 1:
                m[-1] = m[0]
                assert linalg.determinant(m) == elimination_det(m) == 0
