"""Shapovalov matrices and their exact determinants.

Row i descends from the highest-weight vector along the i-th PBW monomial;
column j ascends back along the dual of the j-th monomial (each lowering
factor y_alpha replaced, in reverse order, by the raising vector x_alpha
with [x_alpha, y_alpha] = h_alpha, at the same t-degree).  Entry (i, j) is
the resulting multiple of the highest-weight vector.

Matrices are built by the transpose recursion rather than one full ascent
per entry.  Split column j's monomial as f0 . tail_j, with f0 its first
factor.  The ascent raises along e_{f0} first, which lands in the weight
space one step down, and the rest of the path is column tail_j of the
matrix there:

    S_chi[i][j] = sum_l (e_{f0} . m_i v)[l] * S_{chi - wt(f0)}[l][tail_j]

So each (row, distinct first factor) pair costs one raising action.  The
canonical matrices are cached per module (``VermaModule._matrices``, keyed
by chi) as sparse rows: row i is a dict j -> S[i][j] holding only the
nonzero entries, and chi = 0 gives [{0: 1}].  A scan over every weight drop
pays for each smaller matrix once, and a lone chi fills the smaller ones on
demand.

A row is built by sparse accumulation: for each term (l, c) of the raised
vector and each nonzero entry s at column t of row l one step down, c * s
is added at column j if m_j = f0 . m_t.  So the cost follows
the nonzero products rather than the square of the dimension.  A product
is left out only when its lower entry is zero, and no entry is assumed zero
from the t-degree bound below: every stored entry is the exact full sum,
and ``determinant`` checks the bound against computed values.
``shapovalov_matrix`` hands out dense copies.

The determinant uses the t-degree bound of the form.  Write len(m) for
the number of factors of a monomial and tdeg(m) for the sum of their
t-degrees.  Straightening entry (i, j) leaves products of Cartan factors
of total t-degree tdeg(m_i) + tdeg(m_j).  A Cartan factor has weight zero,
so it absorbs at least one lowering and one raising factor; there are at
most min(len m_i, len m_j) of them, each of t-degree <= N.  Hence

    S[i][j] = 0  whenever  tdeg(m_i) + tdeg(m_j) > N * min(len m_i, len m_j).

Key row i by (N len m_i - tdeg m_i, -len m_i) and column j by
(tdeg m_j, -len m_j): an entry whose column key exceeds its row key
vanishes.  The degree reversal d -> N - d of every factor maps the
monomials of chi onto themselves and each row key onto a column key, so
both key lists are the same multiset.  Sorted by key, the matrix is block
lower-triangular with square diagonal blocks, and its determinant is the
sign of the two sorting permutations times the product of the blocks'
determinants.  ``determinant`` checks the zero pattern on every call.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InvalidAlgebraError
from .lie_core import Root, add_term
from .current import CurrentElement
from .rationals import format_rational
from .verma import Terms, VermaModule
from .weights import Monomial, enumerate_monomials, format_monomial

_ZERO = Fraction(0)

# A cached canonical matrix: its monomials, monomial -> index, and its rows,
# each holding only its nonzero entries as column -> value.
Canonical = tuple[list[Monomial], dict[Monomial, int], list[dict[int, Fraction]]]


@dataclass
class ShapovalovMatrix:
    chi: Root
    monomials: list[Monomial]
    entries: list[list[Fraction]]

    @property
    def size(self) -> int:
        return len(self.monomials)


def ascend(module: VermaModule, path: Monomial, v: Terms) -> Terms:
    """Apply the upward path dual to ``path``.

    The ascent retraces the descent step by step: the descent applies the
    monomial's rightmost factor first, so the ascent starts from the dual
    of the leftmost factor and works right, each lowering factor y_alpha
    replaced by the raising vector x_alpha with [x_alpha, y_alpha] = h_alpha
    at the same t-degree, so each step is one action.  The composed
    operator is the image of the monomial under the transpose
    anti-involution, which is what makes the matrices of the sl(n) and
    Virasoro built-ins symmetric.

    The matrix builder only ever calls it with a one-factor path (the
    raise by e_{f0} in the recursion); the full path is the direct
    definition of an entry, which the tests use as the oracle.  The
    result is a fresh dict, except that an empty path returns ``v``.
    """
    base = module.alg.base
    for f in path:
        v = module.act(CurrentElement(base.dual_raising(-f.elem.root), f.degree), v)
        if not v:
            break
    return v


def _canonical(module: VermaModule, chi: Root) -> Canonical:
    """The canonical matrix at chi, from the module's cache or built from
    the smaller ones."""
    hit = module._matrices.get(chi)
    if hit is not None:
        return hit
    monos = enumerate_monomials(chi, module.alg)
    if chi.is_zero:
        rows = [{0: Fraction(1)}]
    else:
        # Per first factor f0: the matrix one step down, and column j keyed
        # by the index of its tail there.  f0 is a lowering factor, so
        # chi + root(f0) is chi - wt(f0).
        lower: dict[CurrentElement, Canonical] = {}
        columns: dict[CurrentElement, dict[int, int]] = {}
        for j, mono in enumerate(monos):
            f0 = mono[0]
            if f0 not in lower:
                lower[f0] = _canonical(module, chi + f0.elem.root)
                columns[f0] = {}
            columns[f0][lower[f0][1][mono[1:]]] = j
        rows = []
        for mono in monos:
            descent = module.descend(mono)
            row: dict[int, Fraction] = {}
            for f0, cols in columns.items():
                _, index, sub = lower[f0]
                for m, c in ascend(module, (f0,), descent).items():
                    for tail, s in sub[index[m]].items():
                        j = cols.get(tail)
                        if j is not None:
                            add_term(row, j, c * s)
            rows.append(row)
    out = module._matrices[chi] = (monos, {m: k for k, m in enumerate(monos)}, rows)
    return out


def shapovalov_matrix(module: VermaModule, chi: Root) -> ShapovalovMatrix:
    """The matrix of descent/ascent scalars at weight drop chi, indexed by
    the canonical monomial list.

    The result is a dense copy of the module's cached sparse rows.
    """
    monos, _, rows = _canonical(module, chi)
    order = range(len(monos))
    entries = [[row.get(j, _ZERO) for j in order] for row in rows]
    return ShapovalovMatrix(chi=chi, monomials=list(monos), entries=entries)


def _sign(perm: list[int]) -> int:
    """The sign of a permutation of range(len(perm))."""
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        seen[start], j = True, perm[start]
        while j != start:  # a cycle of length L is L - 1 transpositions
            seen[j], j, sign = True, perm[j], -sign
    return sign


def determinant(matrix: ShapovalovMatrix, nilp: int) -> Fraction:
    """Exact determinant from the diagonal blocks of the t-degree order.

    Equals ``linalg.determinant(matrix.entries)`` for any order of the
    monomials.  A matrix that breaks the zero pattern of the t-degree bound
    (see the module docstring) raises InvalidAlgebraError.
    """
    shape = [(len(m), sum(f.degree for f in m)) for m in matrix.monomials]
    row_key = [(nilp * n - d, -n) for n, d in shape]
    col_key = [(d, -n) for n, d in shape]
    rows = sorted(range(len(shape)), key=row_key.__getitem__)
    cols = sorted(range(len(shape)), key=col_key.__getitem__)
    keys = [row_key[i] for i in rows]
    if keys != [col_key[j] for j in cols]:
        raise InvalidAlgebraError(f"the monomials at chi={matrix.chi} are not closed under degree reversal")
    ends = [bisect_right(keys, k) for k in dict.fromkeys(keys)]
    blocks = list(zip([0] + ends, ends))
    entries = matrix.entries
    for start, end in blocks:
        if any(entries[i][j] for i in rows[start:end] for j in cols[end:]):
            raise InvalidAlgebraError(f"Shapovalov matrix at chi={matrix.chi} breaks the t-degree bound")
    det = Fraction(_sign(rows) * _sign(cols))
    for start, end in blocks:
        det *= linalg.determinant([[entries[i][j] for j in cols[start:end]] for i in rows[start:end]])
        if not det:
            break
    return det


def matrix_to_json(matrix: ShapovalovMatrix, det: Fraction) -> dict:
    """JSON-ready form: rationals as "p/q" strings, monomials as text."""
    return {
        "chi": list(matrix.chi.coords),
        "monomials": [format_monomial(m) for m in matrix.monomials],
        "entries": [[format_rational(x) for x in row] for row in matrix.entries],
        "det": format_rational(det),
    }
