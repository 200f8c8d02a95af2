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
by (chi, blocks), see below) as sparse rows: row i is a dict j -> S[i][j]
holding only the nonzero entries, each an int when it is integral and a
Fraction otherwise, and chi = 0 gives [{0: 1}].  A scan over every weight
drop pays for each smaller matrix once, and a lone chi fills the smaller
ones on demand.

A row is built by sparse accumulation: for each term (l, c) of the raised
vector and each nonzero entry s at column t of row l one step down, c * s
is added at column j if m_j = f0 . m_t: a new column stores the product
itself, so no product is added to 0, and the sums that cancelled are
dropped when the row is stored.  So the cost follows
the nonzero products rather than the square of the dimension.  An integral
c enters as an int, so most products multiply two ints rather than two
Fractions.  A product is left out only when its lower entry is zero or
its column is not kept, and no entry is assumed zero from the t-degree
bound below: every stored entry is the exact full sum, and
``determinant`` checks the bound against computed values.
``shapovalov_matrix`` hands out copies of the cached sparse rows
(``ShapovalovMatrix.rows``); its ``entries`` property builds the dense
view, every entry a Fraction, on demand.

The determinant uses the t-degree bound of the form.  Write len(m) for
the number of factors of a monomial and tdeg(m) for the sum of their
t-degrees.  Straightening entry (i, j) leaves products of Cartan factors
of total t-degree tdeg(m_i) + tdeg(m_j).  A Cartan factor has weight zero,
so it absorbs at least one lowering and one raising factor; there are at
most min(len m_i, len m_j) of them, each of t-degree <= N.  Hence

    S[i][j] = 0  whenever  tdeg(m_i) + tdeg(m_j) > N * min(len m_i, len m_j).

Key row i by R(m_i) = (N len m_i - tdeg m_i, -len m_i) and column j by
C(m_j) = (tdeg m_j, -len m_j): an entry with C(m_j) > R(m_i) vanishes.
The degree reversal d -> N - d of every factor maps the monomials of chi
onto themselves and each row key onto a column key, so both key lists
are the same multiset.  Sorted by key, the matrix is block
lower-triangular with square diagonal blocks, the entries with
C(m_j) = R(m_i), and its determinant is the sign of the two sorting
permutations times the product of the blocks' determinants.
``determinant`` checks the zero pattern against every stored entry on
every call, and hands each block to the Bareiss step as it is stored,
ints and Fractions, with no dense Fraction copy between.

So a determinant never reads an entry with C(m_j) < R(m_i), below the
diagonal blocks, and a blocks build (``blocks=True``, the scan's) never
computes one: row i keeps column j only when C(m_j) >= R(m_i), a full
build keeps every column, and a (row, first factor) pair with no kept
column is never raised.  The kept entries are exact, because they read
only kept entries one step down:

    Closure lemma.  If C(m_j) >= R(m_i) and m_j = f0 . t, then every term
    m_l of e_{f0} . m_i v has C(t) >= R(m_l).

    Proof.  Let f0 have t-degree d, and write R1, C1 for the first key
    components.  Straightening moves the raising element x = e_{f0}
    right through m_i.  Each bracket adds t-degrees, so the total is
    conserved.  A term that survives has x bracketed with r >= 1
    factors, which it consumes, and x ends either as a lowering factor
    (len m_l = len m_i - r + 1, tdeg m_l = tdeg m_i + d) or as a Cartan
    factor of t-degree c <= N evaluated at v (len m_l = len m_i - r,
    tdeg m_l = tdeg m_i + d - c).  Reordering lowering factors conserves
    t-degree, and a bracket of two of them is lowering (``_act_mono``
    refuses any other), so each such merge shortens the monomial by one.
    Either way R1(m_l) <= R1(m_i) - d, since c <= N and each factor
    consumed past the first and each merge lowers R1 by N >= 1.
    Equality needs r = 1, no merge and, for a Cartan end, c = N, and
    then len m_l >= len m_i - 1.  Now C1(t) = C1(m_j) - d >= R1(m_i) - d >=
    R1(m_l).  If both are equalities, C1(m_j) = R1(m_i), so C(m_j) >=
    R(m_i) gives len m_j <= len m_i, and len t = len m_j - 1 <=
    len m_i - 1 <= len m_l: the second components give C(t) >= R(m_l).

The kept part at chi thus needs only the kept part one step down, and
the recursion builds nothing else.  The proof uses only the additivity
of t-degrees and the lowering-bracket refusal, not the weight, so it
holds for every algebra the module accepts.  A blocks build and a full
build at one chi are cached apart and never serve each other: a blocks
matrix has the full determinant but not the full entries.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import InvalidAlgebraError
from .lie_core import Root
from .current import CurrentElement
from .rationals import format_rational
from .verma import Terms, VermaModule
from .weights import Monomial, enumerate_monomials, format_monomial

_ZERO = Fraction(0)

# A sparse matrix row: column -> nonzero entry, an int when integral.
Row = dict[int, int | Fraction]

# A cached canonical matrix: its monomials, monomial -> index, and its rows.
Canonical = tuple[list[Monomial], dict[Monomial, int], list[Row]]


class ShapovalovMatrix(NamedTuple):
    """The matrix at ``chi`` over ``monomials``, stored as sparse ``rows``."""

    chi: Root
    monomials: list[Monomial]
    rows: list[Row]

    @property
    def size(self) -> int:
        return len(self.monomials)

    @property
    def entries(self) -> list[list[Fraction]]:
        """The dense matrix, every entry a Fraction, built on each read."""
        entries = []
        for row in self.rows:
            dense = [_ZERO] * len(self.monomials)
            for j, s in row.items():
                dense[j] = Fraction(s)
            entries.append(dense)
        return entries


def ascend(module: VermaModule, f: CurrentElement, v: Terms) -> Terms:
    """Raise ``v`` along the dual of the lowering factor ``f``, as a fresh dict.

    The lowering factor y_alpha is replaced by the raising vector x_alpha
    with [x_alpha, y_alpha] = h_alpha at the same t-degree, so the step is
    one action; each factor's raising element is built once per module.
    The full ascent along a monomial retraces its descent, leftmost factor
    first.  The composed operator is the image of the monomial under the
    transpose anti-involution, which is what makes the matrices of the
    sl(n) and Virasoro built-ins symmetric.
    """
    x = module._raising.get(f)
    if x is None:
        x = module._raising[f] = CurrentElement(module.alg.base.dual_raising(-f.elem.root), f.degree)
    return module.act(x, v)


def _row_key(mono: Monomial, nilp: int) -> tuple[int, int]:
    """R(m) = (N len m - tdeg m, -len m), the row key of the t-degree order."""
    n = len(mono)
    return (nilp * n - sum(f.degree for f in mono), -n)


def _col_key(mono: Monomial) -> tuple[int, int]:
    """C(m) = (tdeg m, -len m), the column key of the t-degree order."""
    return (sum(f.degree for f in mono), -len(mono))


def _canonical(module: VermaModule, chi: Root, blocks: bool) -> Canonical:
    """The canonical matrix at chi, whole or only its entries with C >= R
    (``blocks``), from the module's cache or built from the smaller ones
    of the same kind."""
    hit = module._matrices.get((chi, blocks))
    if hit is not None:
        return hit
    monos = enumerate_monomials(chi, module.alg)
    if chi.is_zero:
        rows = [{0: 1}]
    else:
        # Per first factor f0: the matrix one step down, and column j keyed
        # by the index of its tail there.  f0 is a lowering factor, so
        # chi + root(f0) is chi - wt(f0).
        lower: dict[CurrentElement, Canonical] = {}
        columns: dict[CurrentElement, dict[int, int]] = {}
        for j, mono in enumerate(monos):
            f0 = mono[0]
            if f0 not in lower:
                lower[f0] = _canonical(module, chi + f0.elem.root, blocks)
                columns[f0] = {}
            columns[f0][lower[f0][1][mono[1:]]] = j
        # Row i keeps column j when C(m_j) >= its floor: R(m_i) in a blocks
        # build, the smallest column key in a full one.  The kept columns
        # per first factor depend only on the floor; a first factor with
        # none is left out, so the row is never raised along it.
        col_key = [_col_key(mono) for mono in monos]
        lowest = min(col_key)
        kept_by_floor: dict[tuple[int, int], dict[CurrentElement, dict[int, int]]] = {}
        rows = []
        for mono in monos:
            floor = _row_key(mono, module.alg.nilp) if blocks else lowest
            kept = kept_by_floor.get(floor)
            if kept is None:
                kept = kept_by_floor[floor] = {}
                for f0, cols in columns.items():
                    cols = {t: j for t, j in cols.items() if col_key[j] >= floor}
                    if cols:
                        kept[f0] = cols
            descent = module.descend(mono)
            row: Row = {}
            for f0, cols in kept.items():
                _, index, sub = lower[f0]
                for m, c in ascend(module, f0, descent).items():
                    if c.denominator == 1:
                        c = c.numerator
                    for tail, s in sub[index[m]].items():
                        j = cols.get(tail)
                        if j is not None:
                            old = row.get(j)
                            row[j] = c * s if old is None else old + c * s
            # Drop the sums that cancelled.  A sum of Fractions can be
            # integral too; store it as an int.
            rows.append({j: s.numerator if s.denominator == 1 else s for j, s in row.items() if s})
    out = module._matrices[chi, blocks] = (monos, {m: k for k, m in enumerate(monos)}, rows)
    return out


def shapovalov_matrix(module: VermaModule, chi: Root, *, blocks: bool = False) -> ShapovalovMatrix:
    """The matrix of descent/ascent scalars at weight drop chi, indexed by
    the canonical monomial list.

    With ``blocks`` the rows hold only the entries at or above the
    diagonal blocks of the t-degree order, C(m_j) >= R(m_i) (see the
    module docstring): the diagonal blocks themselves, and the entries
    the t-degree bound says vanish, computed so that ``determinant``
    checks them.  The entries below the blocks are never computed.  Such
    a matrix has the full matrix's determinant, but it is not the full
    matrix; ``scan_reducible`` asks for it.

    The result holds copies of the module's cached sparse rows, so the
    caller may change it.
    """
    monos, _, rows = _canonical(module, chi, blocks)
    return ShapovalovMatrix(chi=chi, monomials=list(monos), rows=[dict(row) for row in rows])


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
    row_key = [_row_key(m, nilp) for m in matrix.monomials]
    col_key = [_col_key(m) for m in matrix.monomials]
    rows = sorted(range(len(row_key)), key=row_key.__getitem__)
    cols = sorted(range(len(col_key)), key=col_key.__getitem__)
    keys = [row_key[i] for i in rows]
    if keys != [col_key[j] for j in cols]:
        raise InvalidAlgebraError(f"the monomials at chi={matrix.chi} are not closed under degree reversal")
    stored = matrix.rows
    for row, key in zip(stored, row_key):
        if any(col_key[j] > key for j in row):
            raise InvalidAlgebraError(f"Shapovalov matrix at chi={matrix.chi} breaks the t-degree bound")
    ends = [bisect_right(keys, k) for k in dict.fromkeys(keys)]
    det = Fraction(_sign(rows) * _sign(cols))
    for start, end in zip([0] + ends, ends):
        block_cols = cols[start:end]
        block = [[stored[i].get(j, 0) for j in block_cols] for i in rows[start:end]]
        det *= linalg.determinant(block)
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
