"""Exact determinants over the rationals for small dense matrices.

The module's one routine, ``determinant``, is fraction-free (Bareiss)
elimination on an integer matrix obtained by clearing denominators row by
row, so its entries may be ints or Fractions; intermediate values stay
integral, which keeps coefficient growth polynomial instead of the
exponential blow-up of naive rational elimination.  It is the per-block
kernel of ``shapovalov.determinant``, which factors a Shapovalov matrix
into t-degree blocks first; on a whole matrix it is the oracle the block
determinant is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def determinant(rows: list[list[int | Fraction]]) -> Fraction:
    """Exact determinant of int or Fraction entries; the 0x0 matrix has
    determinant 1."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")

    # Clear denominators: row i scaled by the lcm of its denominators.
    scale = 1
    m: list[list[int]] = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        scale *= d
        m.append([x.numerator * (d // x.denominator) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                # Exact by Sylvester's identity.
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * m[-1][-1], scale)
