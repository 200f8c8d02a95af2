"""Shapovalov matrices and their exact determinants.

Row i descends from the highest-weight vector along the i-th PBW monomial;
column j ascends back along the dual of the j-th monomial (each lowering
factor y_alpha replaced, in reverse order, by x_alpha / <x_alpha, y_alpha>
at the same t-degree).  Entry (i, j) is the resulting multiple of the
highest-weight vector.

Matrices are built by the transpose recursion rather than one full ascent
per entry.  Split column j's monomial as f0 . tail_j, with f0 its first
factor.  The ascent raises along e_{f0} first, which lands in the weight
space one step down, and the rest of the path is column tail_j of the
matrix there:

    S_chi[i][j] = sum_l (e_{f0} . m_i v)[l] * S_{chi - wt(f0)}[l][tail_j]

So each (row, distinct first factor) pair costs one raising action, and
everything else is a lookup.  The canonical matrices are cached per module
(``VermaModule._matrices``, keyed by chi, with chi = 0 giving [[1]]), so a
scan over every weight drop pays for each smaller matrix once, and a lone
chi fills the smaller ones on demand.

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
from typing import Sequence

from . import linalg
from .errors import InvalidAlgebraError
from .lie_core import LinComb, Root
from .current import CurrentElement
from .rationals import format_rational
from .verma import VermaModule
from .weights import Monomial, enumerate_monomials, format_monomial

_ZERO = Fraction(0)

# A cached canonical matrix: its monomials, monomial -> index, its entries.
Canonical = tuple[list[Monomial], dict[Monomial, int], list[list[Fraction]]]


@dataclass
class ShapovalovMatrix:
    chi: Root
    monomials: list[Monomial]
    entries: list[list[Fraction]]

    @property
    def size(self) -> int:
        return len(self.monomials)


def ascend(module: VermaModule, path: Monomial, v: LinComb) -> LinComb:
    """Apply the upward path dual to ``path``.

    The ascent retraces the descent step by step: the descent applies the
    monomial's rightmost factor first, so the ascent starts from the dual
    of the leftmost factor and works right, each lowering factor y_alpha
    replaced by the raising vector x_alpha / <x_alpha, y_alpha> at the same
    t-degree, so each step is one scaled action.  The composed
    operator is the image of the monomial under the transpose
    anti-involution, which is what makes the matrices of the sl(n) and
    Virasoro built-ins symmetric.

    The matrix builder only ever calls it with a one-factor path (the
    raise by e_{f0} in the recursion); the full path is the direct
    definition of an entry, which the tests use as the oracle.
    """
    base = module.alg.base
    for f in path:
        assert f.elem.root is not None
        ((x, coeff),) = base.dual_raising(-f.elem.root).items()
        v = coeff * module.act(CurrentElement(x, f.degree), v)
        if v.is_zero:
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
        entries = [[Fraction(1)]]
    else:
        columns: dict[CurrentElement, list[int]] = {}
        for j, mono in enumerate(monos):
            columns.setdefault(mono[0], []).append(j)
        # f0 is a lowering factor, so chi + root(f0) is chi - wt(f0).
        lower = {f0: _canonical(module, chi + f0.elem.root) for f0 in columns}
        entries = []
        for mono in monos:
            descent = module.descend(mono)
            row = [_ZERO] * len(monos)
            for f0, cols in columns.items():
                _, index, sub = lower[f0]
                raised = [(c, sub[index[m]]) for m, c in ascend(module, (f0,), descent).items()]
                for j in cols:
                    tail = index[monos[j][1:]]
                    row[j] = sum((c * sub_row[tail] for c, sub_row in raised), _ZERO)
            entries.append(row)
    out = module._matrices[chi] = (monos, {m: k for k, m in enumerate(monos)}, entries)
    return out


def shapovalov_matrix(
    module: VermaModule,
    chi: Root,
    monomials: Sequence[Monomial] | None = None,
) -> ShapovalovMatrix:
    """The matrix of descent/ascent scalars at weight drop chi, indexed by
    the canonical monomial list or by an explicit reordering of it.

    The result is a copy of the module's cached matrix.  An override that
    is not a reordering of the canonical monomials raises ValueError.
    """
    canon, index, entries = _canonical(module, chi)
    if monomials is None:
        return ShapovalovMatrix(chi=chi, monomials=list(canon), entries=[row[:] for row in entries])
    monos = list(monomials)
    order = [index.get(m) for m in monos]
    if len(order) != len(canon) or set(order) != set(range(len(canon))):
        raise ValueError(
            f"monomials must be a reordering of the {len(canon)} canonical monomials at chi={chi}"
        )
    return ShapovalovMatrix(chi=chi, monomials=monos, entries=[[entries[a][b] for b in order] for a in order])


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


def matrix_to_json(matrix: ShapovalovMatrix, det: Fraction | None = None) -> dict:
    """JSON-ready form: rationals as "p/q" strings, monomials as text.

    The default ``det`` is ``determinant`` with N read off the monomials:
    a nonzero chi has monomials with a factor at every t-degree 0..N."""
    if det is None:
        det = determinant(matrix, max((f.degree for m in matrix.monomials for f in m), default=0))
    return {
        "chi": list(matrix.chi.coords),
        "monomials": [format_monomial(m) for m in matrix.monomials],
        "entries": [[format_rational(x) for x in row] for row in matrix.entries],
        "det": format_rational(det),
    }
