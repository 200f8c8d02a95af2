"""Base Lie algebras with triangular decomposition.

Every algebra is presented through the same data: a Cartan basis acting
diagonally, a catalog of positive roots written over a finite set of simple
generators, and structure constants for the bracket of basis elements.
Root spaces are one-dimensional: x_alpha spans g^alpha and y_alpha spans
g^-alpha, so a root vector is named by its root alone.  Each basis is
normalised so that [x_alpha, y_alpha] = h_alpha, so the bracket is the one
source of the rest: the coroot h_alpha is the bracket itself.

The structure constants are data.  ``Algebra.bracket`` is the one bracket:
it answers from a per-instance table keyed by the pair of basis elements,
and on a miss validates both elements once, computes the bracket with the
subclass hook ``_structure`` and stores it.  ``MatrixAlgebra`` is the hook
for any algebra given by matrices: the matrix commutator, expanded back
over the basis by the pivot rule (below).  The Virasoro and oscillator
constants are closed forms in the mode numbers.  The bracket of the
truncated current algebra g (x) k[t]/t^(N+1) reads [a, b] off this table
and only adds the t-degrees.

A linear combination, here and in the Verma module, is a plain dict from
key to nonzero Fraction, built with ``add_term`` or with a comprehension
whose values are known to be nonzero; ``add_scaled`` adds a multiple of
one sum into another.  Neither does arithmetic that leaves a value as it
is: a new key takes the caller's value without adding 0, and neither a
multiple of 1 nor a value of 1 takes a product.  The cached results of
``bracket`` are shared by every caller, so they are read-only
``MappingProxyType`` views; every other function returns a dict that the
caller owns.

Built-in conventions
--------------------

``sl2``, ``sl3``, ``sl4``
    Matrix data on matrix units E[i][j] (0-based), in basis order: the
    Cartan basis h_k = E[k][k] - E[k+1][k+1], named "h1", "h2", ..., then
    for each i < j the raising vector E[i][j] of the root
    alpha_ij = alpha_i + ... + alpha_{j-1} and its lowering partner E[j][i].
    The bracket is the commutator [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb,
    so [e1, e2] = +e12 for adjacent simple raising vectors and
    [f1, f2] = -f12.  The pivot rule reads it back over the basis: each
    element's pivot is its first unit (E[k][k] for h_k, its one unit for a
    root vector), and no element has an entry at an earlier pivot, so
    taking coefficients in basis order gives each h_k the partial sum of
    the diagonal up to k.  The coroot of alpha_ij is
    [E_ij, E_ji] = E_ii - E_jj, whose coordinates over the h_k equal the
    root's own coordinates over the simple roots.

``virasoro``
    Basis L_m (m integer) plus central c, with
    [L_m, L_n] = (m - n) L_{m+n} + delta_{m,-n} (m^3 - m)/12 c.
    Cartan basis ("L0", "c").  The positive spaces are spanned by L_m for
    m > 0, so the root of L_m is m * alpha1 with alpha1(L0) = -1 and
    alpha1(c) = 0.  The coroot is [L_m, L_-m] = 2m L0 + (m^3 - m)/12 c.

``oscillator``
    Modes a_m (m nonzero) plus Cartan ("d", "hbar"):  [d, a_m] = m a_m,
    [a_m, a_n] = m delta_{m,-n} hbar, and hbar is central.  The raising
    basis vector of the root m > 0 is a_m / m and the lowering one is
    a_-m, so the coroot of every positive root is [a_m / m, a_-m] = hbar.

The value types ``Root`` and ``BaseElement`` (and ``CurrentElement`` in
``current``) are NamedTuples, so the memo and table lookups that key on
them hash and compare natively.  So are the reports of ``criterion`` and
``figures`` and ``ShapovalovMatrix``; a field that follows from the
others (``Verdict.reducible``, ``ValidationReport.samples``,
``agreements`` and ``disagreements``) is a property, not stored.  A
root's ``coords`` is a tuple of ints, its signed coordinates over the
simple generators; positive roots have all coordinates >= 0.  The canonical order on positive roots is (height
ascending, coordinates lexicographic descending), which for sl3 lists
alpha1, alpha2, alpha1+alpha2.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import InputError, InvalidAlgebraError

CartanVector = tuple[Fraction, ...]


class Root(NamedTuple):
    """Element of the root lattice: ``coords`` is a tuple of ints, the
    coordinates over the simple generators.

    A NamedTuple, so hashing and equality are the tuple's own.  ``+``,
    ``-``, unary ``-`` and ``k * r`` are redefined as vector arithmetic,
    not tuple concatenation and repetition.
    """

    coords: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    @property
    def is_positive(self) -> bool:
        """In the positive cone and nonzero (so the empty root is not)."""
        coords = self.coords
        return any(coords) and min(coords) >= 0

    def fits_within(self, other: "Root") -> bool:
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Root":
        return Root(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "Root":
        return Root(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def root_order_key(root: Root) -> tuple:
    """Canonical order on roots: height, then lexicographic-descending coords."""
    return (root.height, tuple(-c for c in root.coords))


def root_label(base: "Algebra", root: Root) -> str:
    """How reports and figures name a root: "m=3" over one simple
    generator, "alpha1+2*alpha2" over several."""
    if base.simple_generator_count == 1:
        return f"m={root.coords[0]}"
    terms = []
    for i, c in enumerate(root.coords):
        if c == 1:
            terms.append(f"alpha{i + 1}")
        elif c:
            terms.append(f"{c}*alpha{i + 1}")
    return "+".join(terms)


class BaseElement(NamedTuple):
    """Basis element of g: the ``index``-th Cartan vector (root None) or the
    vector spanning the root space of ``root`` (index 0)."""

    root: Root | None
    index: int = 0

    @staticmethod
    def cartan(index: int) -> "BaseElement":
        return BaseElement(None, index)

    @staticmethod
    def of_root(root: Root) -> "BaseElement":
        return BaseElement(root)

    def __str__(self) -> str:
        if self.root is None:
            return f"h[{self.index}]"
        return f"x{self.root}"


def add_term(acc: dict, key, c: Fraction) -> None:
    """Add ``c`` at ``key`` of the sparse sum ``acc``; drop the key if it cancels.

    An absent key stores ``c`` itself, and only if it is nonzero: no zero is
    ever added."""
    old = acc.get(key)
    if old is not None:
        c += old
    if c:
        acc[key] = c
    elif old is not None:
        del acc[key]


def add_scaled(acc: dict, terms: Mapping, c: Fraction) -> None:
    """Add ``c * terms`` into the sparse sum ``acc`` with no product by 1:
    when ``c`` is 1 the values of ``terms`` go in as they are, and a value
    of 1 puts ``c`` itself in."""
    if c == 1:
        for key, value in terms.items():
            add_term(acc, key, value)
    else:
        for key, value in terms.items():
            add_term(acc, key, c if value == 1 else c * value)


class Algebra:
    """Common surface of the built-in algebras.

    Subclasses fill in the root catalog (``positive_roots``, ``is_root``)
    and the structure constants of basis elements (``_structure``), in a
    basis with [x_alpha, y_alpha] = h_alpha; everything else (validation,
    the bracket table, coroots, dual raising vectors) is generic.
    ``coroot_zeros`` is an optional exact solve.
    """

    name: str
    cartan_rank: int
    cartan_names: tuple[str, ...]
    simple_generator_count: int
    finite_roots: bool

    # -- subclass surface ---------------------------------------------------

    def positive_roots(self, max_height: int | None = None) -> list[Root]:
        """Positive roots, canonically ordered.

        ``max_height=None`` asks for the full catalog and is only legal for
        finite root systems.
        """
        raise NotImplementedError

    def is_root(self, root: Root) -> bool:
        """Whether a signed coordinate vector of the right arity is a root."""
        raise NotImplementedError

    def _structure(self, x: BaseElement, y: BaseElement) -> dict[BaseElement, Fraction]:
        """[x, y] of two basis elements that ``bracket`` has already
        validated, as a fresh dict of nonzero Fractions."""
        raise NotImplementedError

    # -- generic ------------------------------------------------------------

    def check_positive_root(self, alpha: Root) -> None:
        if len(alpha.coords) != self.simple_generator_count:
            raise InputError(f"{self.name}: root arity {len(alpha.coords)} != {self.simple_generator_count}")
        if not alpha.is_positive or not self.is_root(alpha):
            raise InputError(f"{self.name}: {alpha} is not a positive root")

    def check_element(self, x: BaseElement) -> None:
        if x.root is None:
            if not 0 <= x.index < self.cartan_rank:
                raise InputError(f"{self.name}: Cartan index {x.index} out of range")
            return
        if len(x.root.coords) != self.simple_generator_count or not self.is_root(x.root):
            raise InputError(f"{self.name}: {x.root} is not a root")
        if x.index:
            raise InputError(f"{self.name}: root vector {x.root} has index {x.index}, not 0")

    def bracket(self, x: BaseElement, y: BaseElement) -> Mapping[BaseElement, Fraction]:
        """[x, y] of two basis elements, as a map from basis element to
        nonzero Fraction coefficient.

        Read from the instance's structure-constant table, keyed by the
        pair.  A miss validates both elements, computes the bracket with
        ``_structure`` and stores it, so only valid pairs are ever stored
        and an invalid pair raises on every call.  Every caller shares the
        stored result, so the table holds read-only ``MappingProxyType``
        views.  Bilinear extension is the caller's duty.
        """
        table = self.__dict__.setdefault("_brackets", {})
        hit = table.get((x, y))
        if hit is not None:
            return hit
        self.check_element(x)
        self.check_element(y)
        out = table[x, y] = MappingProxyType(self._structure(x, y))
        return out

    def dual_raising(self, alpha: Root) -> BaseElement:
        """x_alpha, the raising vector that the Shapovalov ascent puts in
        place of y_alpha.

        Cached per instance like ``bracket`` (only valid roots are ever
        stored): every module over the algebra asks for the same few
        roots, once per lowering factor it raises along, since
        ``shapovalov.ascend`` keeps each factor's raising element per
        module.  A miss reads the coroot, so a root whose
        bracket has none is refused here too.  Both caches are created on
        first use because subclasses do not call a common ``__init__``.
        """
        cache = self.__dict__.setdefault("_dual_raising", {})
        x = cache.get(alpha)
        if x is None:
            self.coroot(alpha)
            x = cache[alpha] = BaseElement.of_root(alpha)
        return x

    def coroot(self, alpha: Root) -> CartanVector:
        """h_alpha = [x_alpha, y_alpha], as Fraction coordinates over the
        Cartan basis.

        A bracket that is zero or has a root-vector term has no coroot, and
        raises ``InvalidAlgebraError``.
        """
        self.check_positive_root(alpha)
        h = [Fraction(0)] * self.cartan_rank
        for z, c in self.bracket(BaseElement.of_root(alpha), BaseElement.of_root(-alpha)).items():
            if z.root is not None:
                raise InvalidAlgebraError(f"{self.name}: [x, y] at {alpha} has the root-vector term {z}")
            h[z.index] = c
        if not any(h):
            raise InvalidAlgebraError(f"{self.name}: [x, y] at {alpha} is zero, so it has no coroot")
        return tuple(h)

    def coroot_zeros(self, top: CartanVector, max_height: int) -> tuple[list[Root], int | None]:
        """Positive roots whose coroot the Cartan functional ``top`` kills,
        with the height bound of that listing (None when it is exhaustive).

        Generic: evaluate ``top`` on each coroot of the catalog, all of it
        for a finite root system and up to ``max_height`` otherwise.
        Algebras whose coroots have a closed form override this with an
        exact solve, so their verdict does not depend on the bound.
        """
        bound = None if self.finite_roots else max_height
        witnesses = [
            root
            for root in self.positive_roots(bound)
            if sum(c * v for c, v in zip(self.coroot(root), top)) == 0
        ]
        return witnesses, bound

    def __getstate__(self) -> dict:
        """Pickle without the bracket and dual-raising caches: the table's
        read-only views cannot be pickled, and a copy fills its own."""
        state = dict(self.__dict__)
        state.pop("_brackets", None)
        state.pop("_dual_raising", None)
        return state

    def __repr__(self) -> str:
        return f"<algebra {self.name}>"


def commutator(a: Mapping[tuple[int, int], Fraction], b: Mapping[tuple[int, int], Fraction]) -> dict:
    """[a, b] = ab - ba of two matrices given as dicts from matrix unit (i, j)
    to nonzero entry, in the same form."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                add_term(out, (i, l), x * y)
            if l == i:
                add_term(out, (k, j), -x * y)
    return out


class MatrixAlgebra(Algebra):
    """An algebra of square matrices, given by the matrix of each basis element.

    ``units`` maps every basis element, in basis order, to its matrix as a
    dict from matrix unit (i, j) to a nonzero entry.  The root catalog, the
    simple-generator count and the Cartan rank are read off its keys; the
    Cartan names are "h1", "h2", ...

    The bracket is the matrix commutator, expanded back over the basis by
    the pivot rule: each element's pivot is its first unit, and in basis
    order each element takes the commutator's entry at its pivot (divided
    by its own) as its coefficient and subtracts its contribution.  The
    rule is exact when no element has an entry at an earlier element's
    pivot, which the constructor checks; a commutator outside the span of
    the basis leaves a residual and raises ``InvalidAlgebraError``.
    """

    finite_roots = True

    def __init__(self, name: str, units: dict[BaseElement, dict[tuple[int, int], int | Fraction]]) -> None:
        self.name = name
        self._units = {x: {u: Fraction(e) for u, e in m.items()} for x, m in units.items()}
        self._pivots: list[tuple[BaseElement, tuple[int, int]]] = []
        for x, m in self._units.items():
            if any(pivot in m for _, pivot in self._pivots):
                raise InvalidAlgebraError(f"{name}: {x} has an entry at an earlier element's pivot")
            self._pivots.append((x, next(iter(m))))
        roots = [x.root for x in self._units if x.root is not None]
        self._roots = sorted((r for r in roots if r.is_positive), key=root_order_key)
        self.simple_generator_count = len(roots[0].coords)
        self.cartan_rank = len(self._units) - len(roots)
        self.cartan_names = tuple(f"h{k + 1}" for k in range(self.cartan_rank))

    def positive_roots(self, max_height: int | None = None) -> list[Root]:
        return [r for r in self._roots if max_height is None or r.height <= max_height]

    def is_root(self, root: Root) -> bool:
        return BaseElement.of_root(root) in self._units

    def _structure(self, x: BaseElement, y: BaseElement) -> dict[BaseElement, Fraction]:
        units = commutator(self._units[x], self._units[y])
        terms = {}
        for z, pivot in self._pivots:
            if pivot in units:
                m = self._units[z]
                coeff = terms[z] = units[pivot] / m[pivot]
                for u, e in m.items():
                    add_term(units, u, -coeff * e)
        if units:
            raise InvalidAlgebraError(f"{self.name}: [{x}, {y}] leaves the span of the basis")
        return terms


class SpecialLinear(MatrixAlgebra):
    """sl(n): traceless n x n matrices over the rationals, on matrix units."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise InputError("sl(n) needs n >= 2")
        units = {BaseElement.cartan(k): {(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)}
        for i in range(n):
            for j in range(i + 1, n):
                # alpha_ij = alpha_i + ... + alpha_{j-1}, the root of E[i][j]
                root = Root(tuple(1 if i <= k < j else 0 for k in range(n - 1)))
                units[BaseElement.of_root(root)] = {(i, j): 1}
                units[BaseElement.of_root(-root)] = {(j, i): 1}
        super().__init__(f"sl{n}", units)


class _RankOne(Algebra):
    """Root catalog of the rank-1 built-ins: one simple generator, and every
    nonzero multiple m * alpha1 is a root."""

    simple_generator_count = 1
    finite_roots = False

    def positive_roots(self, max_height: int | None = None) -> list[Root]:
        if max_height is None:
            raise InputError(f"{self.name} has infinitely many positive roots; give a height bound")
        return [Root((m,)) for m in range(1, max_height + 1)]

    def is_root(self, root: Root) -> bool:
        return len(root.coords) == 1 and root.coords[0] != 0


class VirasoroAlgebra(_RankOne):
    """The Virasoro algebra: L_m (m integer) plus a central charge element."""

    name = "virasoro"
    cartan_rank = 2
    cartan_names = ("L0", "c")

    @staticmethod
    def _mode(x: BaseElement) -> int | None:
        """m for L_m (L0 is Cartan vector 0), None for the central c."""
        if x.root is not None:
            return x.root.coords[0]
        return 0 if x.index == 0 else None

    def _structure(self, x: BaseElement, y: BaseElement) -> dict[BaseElement, Fraction]:
        m, n = self._mode(x), self._mode(y)
        if m is None or n is None or m == n:
            return {}
        if m != -n:
            return {BaseElement.of_root(Root((m + n,))): Fraction(m - n)}
        # m = -n != 0; the central term vanishes at m = +-1.
        out = {BaseElement.cartan(0): Fraction(m - n)}
        central = Fraction(m**3 - m, 12)
        if central:
            out[BaseElement.cartan(1)] = central
        return out

    def coroot_zeros(self, top: CartanVector, max_height: int) -> tuple[list[Root], int | None]:
        # Solve 2m x + (m^3 - m)/12 y = 0 over integers m >= 1 (the condition is
        # odd in m, so negative solutions mirror positive ones).
        x, y = top
        if x == 0 and y == 0:
            return self.positive_roots(max_height), max_height
        if y == 0:
            return [], None
        q = 1 - 24 * x / y  # m^2 for any nonzero root of the cubic
        if q.denominator == 1 and q >= 1:
            m = isqrt(q.numerator)
            if m * m == q.numerator:
                return [Root((m,))], None
        return [], None


class OscillatorAlgebra(_RankOne):
    """Oscillator algebra: a_m (m nonzero) with [a_m, a_-m] = m hbar and a
    grading element d.  The Heisenberg core is extended by d so that the
    Cartan action has nontrivial eigenvalues.  The basis vector of the root
    m is a_m / m for m > 0 and a_m for m < 0."""

    name = "oscillator"
    cartan_rank = 2
    cartan_names = ("d", "hbar")

    def _structure(self, x: BaseElement, y: BaseElement) -> dict[BaseElement, Fraction]:
        # d is Cartan vector 0 and hbar (index 1) is central; modes are nonzero.
        d = BaseElement.cartan(0)
        if x.root is not None and y.root is not None:
            m, n = x.root.coords[0], y.root.coords[0]
            # [a_m / m, a_-m] = hbar for m > 0, and the reverse is -hbar.
            return {BaseElement.cartan(1): Fraction(1 if m > 0 else -1)} if m == -n else {}
        if x == d and y.root is not None:
            return {y: Fraction(y.root.coords[0])}
        if y == d and x.root is not None:
            return {x: Fraction(-x.root.coords[0])}
        return {}

    def coroot_zeros(self, top: CartanVector, max_height: int) -> tuple[list[Root], int | None]:
        # Every coroot is hbar: all positive roots qualify, or none does.
        if top[1] == 0:
            return self.positive_roots(max_height), max_height
        return [], None


_BUILTINS = {
    "sl2": lambda: SpecialLinear(2),
    "sl3": lambda: SpecialLinear(3),
    "sl4": lambda: SpecialLinear(4),
    "virasoro": VirasoroAlgebra,
    "oscillator": OscillatorAlgebra,
}
BUILTIN_ALGEBRAS = tuple(_BUILTINS)


def algebra(name: str) -> Algebra:
    """A fresh instance of the built-in algebra with this catalog name."""
    build = _BUILTINS.get(name)
    if build is None:
        raise InputError(f"unknown algebra {name!r}; available: {', '.join(BUILTIN_ALGEBRAS)}")
    return build()
