"""Exact linear algebra over the rationals for small dense matrices.

The determinant uses fraction-free (Bareiss) elimination on an integer
matrix obtained by clearing denominators row by row; intermediate values
stay integral, which keeps coefficient growth polynomial instead of the
exponential blow-up of naive rational elimination.  ``determinant`` is the
per-block kernel of ``shapovalov.determinant``, which factors a Shapovalov
matrix into t-degree blocks first; on a whole matrix it is the oracle the
block determinant is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def determinant(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant; the 0x0 matrix has determinant 1."""
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
        m.append([int(x * d) for x in row])

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


def kernel_vector(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """A nonzero x with A x = 0, or None if the columns are independent."""
    if not rows:
        return None
    nrows, ncols = len(rows), len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_of_col[c] = r
        r += 1
        if r == nrows:
            break
    free = next((c for c in range(ncols) if c not in pivot_of_col), None)
    if free is None:
        return None
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for c, row in pivot_of_col.items():
        x[c] = -a[row][free]
    return x


def left_kernel_vector(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """A nonzero u with u^T A = 0, or None if the rows are independent."""
    if not rows:
        return None
    transposed = [list(col) for col in zip(*rows)]
    return kernel_vector(transposed)
