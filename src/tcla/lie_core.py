"""Base Lie algebras with triangular decomposition and root-space pairing.

Every algebra is presented through the same data: a Cartan basis acting
diagonally, a catalog of positive roots written over a finite set of simple
generators, structure constants for the bracket of basis elements, and for
each positive root alpha the scalar pairing <x_alpha, y_alpha> together with
a coroot h_alpha satisfying [x_alpha, y_alpha] = <x_alpha, y_alpha> h_alpha.
Root spaces are one-dimensional: x_alpha spans g^alpha and y_alpha spans
g^-alpha, so a root vector is named by its root alone.

The structure constants are data.  ``Algebra.bracket`` is the one bracket:
it answers from a per-instance table keyed by the pair of basis elements,
and on a miss validates both elements once, computes the bracket with the
subclass hook ``_structure`` and stores it.  sl(n) builds a dict from each
basis element to its matrix units once, in ``__init__``; the Virasoro and
oscillator constants are closed forms in the mode numbers.  The bracket of
the truncated current algebra g (x) k[t]/t^(N+1) reads [a, b] off this
table and only adds the t-degrees.

Built-in conventions
--------------------

``sl2``, ``sl3``, ``sl4``
    Realised on matrix units E[i][j] (0-based).  Cartan basis
    h_k = E[k][k] - E[k+1][k+1], named "h1", "h2", ...; the raising vector
    of the root alpha_ij (i < j) is E[i][j] and its lowering partner is
    E[j][i].  All signs follow mechanically from
    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb; in particular
    [e1, e2] = +e12 for adjacent simple raising vectors, and
    [f1, f2] = -f12.  Pairing <E_ij, E_ji> = 1, so the coroot of alpha_ij
    is E_ii - E_jj, whose coordinates over the h_k equal the root's own
    coordinates over the simple roots.

``virasoro``
    Basis L_m (m integer) plus central c, with
    [L_m, L_n] = (m - n) L_{m+n} + delta_{m,-n} (m^3 - m)/12 c.
    Cartan basis ("L0", "c").  The positive spaces are spanned by L_m for
    m > 0, so the root of L_m is m * alpha1 with alpha1(L0) = -1 and
    alpha1(c) = 0.  Pairing <L_m, L_-m> = 1 fixes the coroot
    2m L0 + (m^3 - m)/12 c.

``oscillator``
    Basis a_m (m nonzero) plus Cartan ("d", "hbar"):  [d, a_m] = m a_m,
    [a_m, a_n] = m delta_{m,-n} hbar, and hbar is central.  Pairing
    <a_m, a_-m> = m, so the coroot of every positive root is hbar.

The value types ``Root`` and ``BaseElement`` (and ``CurrentElement`` in
``current``) are NamedTuples, so the memo and table lookups that key on
them hash and compare natively.  A root's ``coords`` is a tuple of ints,
its signed coordinates over the simple generators; positive roots have
all coordinates >= 0.  The canonical order on positive roots is (height
ascending, coordinates lexicographic descending), which for sl3 lists
alpha1, alpha2, alpha1+alpha2.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    InvalidAlgebraError,
    NotARootError,
    UnknownAlgebraError,
    UnknownElementError,
)

CartanVector = tuple[Fraction, ...]


class Root(NamedTuple):
    """Element of the root lattice: ``coords`` is a tuple of ints, the
    coordinates over the simple generators.

    A NamedTuple, so hashing and equality are the tuple's own.  ``+``,
    ``-``, unary ``-`` and ``k * r`` are redefined as vector arithmetic,
    not tuple concatenation and repetition.
    """

    coords: tuple[int, ...]

    @staticmethod
    def zero(generators: int) -> "Root":
        return Root((0,) * generators)

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_positive(self) -> bool:
        """In the positive cone and nonzero."""
        return not self.is_zero and all(c >= 0 for c in self.coords)

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

    @property
    def is_cartan(self) -> bool:
        return self.root is None

    def __str__(self) -> str:
        if self.root is None:
            return f"h[{self.index}]"
        return f"x{self.root}"


def add_term(acc: dict, key, c: Fraction) -> None:
    """Add ``c`` at ``key`` of the sparse sum ``acc``; drop the key if it cancels."""
    c += acc.get(key, 0)
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


class LinComb:
    """Sparse exact-rational linear combination of hashable keys.

    The library's one combination type: algebra elements are combinations
    of basis elements, and Verma-module vectors are combinations of PBW
    monomials (each standing for that monomial applied to the
    highest-weight vector).  Never stores a zero coefficient, and every
    coefficient is a Fraction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()) -> None:
        acc: dict = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for key, coeff in items:
            add_term(acc, key, Fraction(coeff))
        self._terms = acc

    @classmethod
    def wrap(cls, terms: dict) -> "LinComb":
        """Adopt ``terms`` without copying or normalising it: the caller
        guarantees Fraction coefficients, none of them zero."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @staticmethod
    def term(key, coeff=1) -> "LinComb":
        return LinComb([(key, Fraction(coeff))])

    def items(self) -> Iterator:
        return iter(self._terms.items())

    def keys(self):
        return self._terms.keys()

    def coefficient(self, key) -> Fraction:
        return self._terms.get(key, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            add_term(out, key, coeff)
        return LinComb.wrap(out)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return LinComb.wrap({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar) -> "LinComb":
        s = Fraction(scalar)
        if not s:
            return LinComb()
        if s == 1:
            return self  # no method mutates a LinComb, so sharing is safe
        return LinComb.wrap({k: s * c for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*{k}" for k, c in sorted(self._terms.items(), key=lambda t: str(t[0])))


class Algebra:
    """Common surface of the built-in algebras.

    Subclasses fill in the root catalog, the structure constants of basis
    elements (``_structure``), and the pairing data; everything else
    (validation, the bracket table, dual raising vectors, root functionals)
    is generic.
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

    def _structure(self, x: BaseElement, y: BaseElement) -> LinComb:
        """[x, y] of two basis elements that ``bracket`` has already validated."""
        raise NotImplementedError

    def pairing(self, alpha: Root) -> Fraction:
        """The scalar <x_alpha, y_alpha> with [x_alpha, y_alpha] = <x_alpha, y_alpha> h_alpha."""
        raise NotImplementedError

    def coroot(self, alpha: Root) -> CartanVector:
        """h_alpha, as coordinates over the Cartan basis."""
        raise NotImplementedError

    def simple_root_action(self, s: int) -> CartanVector:
        """Values of the s-th simple root on each Cartan basis vector."""
        raise NotImplementedError

    # -- generic ------------------------------------------------------------

    def check_positive_root(self, alpha: Root) -> None:
        if len(alpha.coords) != self.simple_generator_count:
            raise NotARootError(f"{self.name}: root arity {len(alpha.coords)} != {self.simple_generator_count}")
        if not alpha.is_positive or not self.is_root(alpha):
            raise NotARootError(f"{self.name}: {alpha} is not a positive root")

    def check_element(self, x: BaseElement) -> None:
        if x.root is None:
            if not 0 <= x.index < self.cartan_rank:
                raise UnknownElementError(f"{self.name}: Cartan index {x.index} out of range")
            return
        if len(x.root.coords) != self.simple_generator_count or not self.is_root(x.root):
            raise UnknownElementError(f"{self.name}: {x.root} is not a root")
        if x.index:
            raise UnknownElementError(f"{self.name}: root vector {x.root} has index {x.index}, not 0")

    def cartan_element(self, index: int) -> BaseElement:
        x = BaseElement.cartan(index)
        self.check_element(x)
        return x

    def root_element(self, root: Root) -> BaseElement:
        x = BaseElement.of_root(root)
        self.check_element(x)
        return x

    def root_functional(self, root: Root) -> CartanVector:
        """alpha(h_k) for each Cartan basis vector, extended linearly in alpha."""
        values = [Fraction(0)] * self.cartan_rank
        for s, c in enumerate(root.coords):
            if c:
                action = self.simple_root_action(s)
                for k in range(self.cartan_rank):
                    values[k] += c * action[k]
        return tuple(values)

    def bracket(self, x: BaseElement, y: BaseElement) -> LinComb:
        """[x, y] of two basis elements, as a LinComb of basis elements.

        Read from the instance's structure-constant table, keyed by the
        pair.  A miss validates both elements, computes the bracket with
        ``_structure`` and stores it, so only valid pairs are ever stored
        and an invalid pair raises on every call.  The returned LinComb is
        shared, which is safe because LinComb has no mutating method.
        Bilinear extension is the caller's duty.
        """
        table = self.__dict__.setdefault("_brackets", {})
        hit = table.get((x, y))
        if hit is not None:
            return hit
        self.check_element(x)
        self.check_element(y)
        out = table[x, y] = self._structure(x, y)
        return out

    def dual_raising(self, alpha: Root) -> LinComb:
        """x_alpha / <x_alpha, y_alpha>, the raising vector paired to 1 with y_alpha.

        Cached per instance like ``bracket`` (only valid arguments are ever
        stored): the Shapovalov builder asks for the same few vectors once
        per raising action.  Both caches are created on first use because
        subclasses do not call a common ``__init__``.
        """
        cache = self.__dict__.setdefault("_dual_raising", {})
        hit = cache.get(alpha)
        if hit is not None:
            return hit
        self.check_positive_root(alpha)
        p = Fraction(self.pairing(alpha))
        if not p:
            raise InvalidAlgebraError(f"{self.name}: zero pairing at {alpha} violates non-degeneracy")
        dual = cache[alpha] = LinComb.term(BaseElement.of_root(alpha), 1 / p)
        return dual

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

    def __repr__(self) -> str:
        return f"<algebra {self.name}>"


class SpecialLinear(Algebra):
    """sl(n): traceless n x n matrices over the rationals, on matrix units."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("sl(n) needs n >= 2")
        self.n = n
        self.name = f"sl{n}"
        self.cartan_rank = n - 1
        self.cartan_names = tuple(f"h{k + 1}" for k in range(n - 1))
        self.simple_generator_count = n - 1
        self.finite_roots = True
        # Each basis element's matrix units, and the inverse for the
        # off-diagonal units.
        self._units: dict[BaseElement, dict[tuple[int, int], Fraction]] = {
            BaseElement.cartan(k): {(k, k): Fraction(1), (k + 1, k + 1): Fraction(-1)}
            for k in range(n - 1)
        }
        self._elements: dict[tuple[int, int], BaseElement] = {}
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                # alpha_ij = alpha_i + ... + alpha_{j-1}, the root of E[i][j]
                root = Root(tuple(1 if i <= k < j else 0 for k in range(n - 1)))
                roots.append(root)
                for signed, unit in ((root, (i, j)), (-root, (j, i))):
                    x = self._elements[unit] = BaseElement.of_root(signed)
                    self._units[x] = {unit: Fraction(1)}
        self._roots = sorted(roots, key=root_order_key)

    def positive_roots(self, max_height: int | None = None) -> list[Root]:
        return [r for r in self._roots if max_height is None or r.height <= max_height]

    def is_root(self, root: Root) -> bool:
        return BaseElement.of_root(root) in self._units

    def simple_root_action(self, s: int) -> CartanVector:
        # Cartan matrix of type A: alpha_s(h_k).
        return tuple(
            Fraction(2 if k == s else -1 if abs(k - s) == 1 else 0)
            for k in range(self.cartan_rank)
        )

    def _structure(self, x: BaseElement, y: BaseElement) -> LinComb:
        units: dict[tuple[int, int], Fraction] = {}
        for (a, b), cx in self._units[x].items():
            for (c, d), cy in self._units[y].items():
                if b == c:
                    units[a, d] = units.get((a, d), 0) + cx * cy
                if d == a:
                    units[c, b] = units.get((c, b), 0) - cx * cy
        # The traceless diagonal expands over the h_k with partial sums.
        diagonal = [units.get((k, k), 0) for k in range(self.n)]
        assert sum(diagonal) == 0, "commutator of traceless matrices must be traceless"
        terms = [(BaseElement.cartan(k), sum(diagonal[: k + 1])) for k in range(self.n - 1)]
        terms += [(self._elements[u], c) for u, c in units.items() if u[0] != u[1]]
        return LinComb(terms)

    def pairing(self, alpha: Root) -> Fraction:
        self.check_positive_root(alpha)
        return Fraction(1)

    def coroot(self, alpha: Root) -> CartanVector:
        self.check_positive_root(alpha)
        # E_ii - E_jj expands over the h_k with the root's own coordinates.
        return tuple(Fraction(c) for c in alpha.coords)


class _RankOne(Algebra):
    """Root catalog of the rank-1 built-ins: one simple generator, and every
    nonzero multiple m * alpha1 is a root."""

    simple_generator_count = 1
    finite_roots = False

    def positive_roots(self, max_height: int | None = None) -> list[Root]:
        if max_height is None:
            raise ValueError(f"{self.name} has infinitely many positive roots; give a height bound")
        return [Root((m,)) for m in range(1, max_height + 1)]

    def is_root(self, root: Root) -> bool:
        return len(root.coords) == 1 and root.coords[0] != 0


class VirasoroAlgebra(_RankOne):
    """The Virasoro algebra: L_m (m integer) plus a central charge element."""

    name = "virasoro"
    cartan_rank = 2
    cartan_names = ("L0", "c")

    def simple_root_action(self, s: int) -> CartanVector:
        # [L0, L_m] = -m L_m, [c, L_m] = 0.
        return (Fraction(-1), Fraction(0))

    @staticmethod
    def _mode(x: BaseElement) -> int | None:
        """m for L_m (L0 is Cartan vector 0), None for the central c."""
        if x.root is not None:
            return x.root.coords[0]
        return 0 if x.index == 0 else None

    def _structure(self, x: BaseElement, y: BaseElement) -> LinComb:
        m, n = self._mode(x), self._mode(y)
        if m is None or n is None:
            return LinComb()
        if m != -n:
            return LinComb.term(BaseElement.of_root(Root((m + n,))), m - n)
        return LinComb([(BaseElement.cartan(0), m - n), (BaseElement.cartan(1), Fraction(m**3 - m, 12))])

    def pairing(self, alpha: Root) -> Fraction:
        self.check_positive_root(alpha)
        return Fraction(1)

    def coroot(self, alpha: Root) -> CartanVector:
        self.check_positive_root(alpha)
        m = alpha.coords[0]
        return (Fraction(2 * m), Fraction(m**3 - m, 12))

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
    Cartan action has nontrivial eigenvalues."""

    name = "oscillator"
    cartan_rank = 2
    cartan_names = ("d", "hbar")

    def simple_root_action(self, s: int) -> CartanVector:
        # [d, a_m] = m a_m, [hbar, a_m] = 0.
        return (Fraction(1), Fraction(0))

    def _structure(self, x: BaseElement, y: BaseElement) -> LinComb:
        # d is Cartan vector 0 and hbar (index 1) is central.
        d = BaseElement.cartan(0)
        if x.root is not None and y.root is not None:
            m, n = x.root.coords[0], y.root.coords[0]
            return LinComb.term(BaseElement.cartan(1), m) if m == -n else LinComb()
        if x == d and y.root is not None:
            return LinComb.term(y, y.root.coords[0])
        if y == d and x.root is not None:
            return LinComb.term(x, -x.root.coords[0])
        return LinComb()

    def pairing(self, alpha: Root) -> Fraction:
        self.check_positive_root(alpha)
        return Fraction(alpha.coords[0])

    def coroot(self, alpha: Root) -> CartanVector:
        self.check_positive_root(alpha)
        return (Fraction(0), Fraction(1))

    def coroot_zeros(self, top: CartanVector, max_height: int) -> tuple[list[Root], int | None]:
        # Every coroot is hbar: all positive roots qualify, or none does.
        if top[1] == 0:
            return self.positive_roots(max_height), max_height
        return [], None


class RescaledLowering(Algebra):
    """The same algebra with each lowering vector y_alpha replaced by
    scale(alpha) * y_alpha.

    Used to probe that determinant zero sets do not depend on the choice of
    lowering basis.  Raising and Cartan vectors, and so the coroots, are
    untouched.
    """

    def __init__(self, base: Algebra, scale: Callable[[Root], Fraction]) -> None:
        self.base = base
        self._scale = scale
        self.name = f"{base.name}[rescaled]"
        self.cartan_rank = base.cartan_rank
        self.cartan_names = base.cartan_names
        self.simple_generator_count = base.simple_generator_count
        self.finite_roots = base.finite_roots

    def _factor(self, x: BaseElement) -> Fraction:
        if x.root is not None and not x.root.is_positive:
            s = Fraction(self._scale(-x.root))
            if not s:
                raise InvalidAlgebraError("lowering rescale factors must be nonzero")
            return s
        return Fraction(1)

    def positive_roots(self, max_height: int | None = None) -> list[Root]:
        return self.base.positive_roots(max_height)

    def is_root(self, root: Root) -> bool:
        return self.base.is_root(root)

    def simple_root_action(self, s: int) -> CartanVector:
        return self.base.simple_root_action(s)

    def _structure(self, x: BaseElement, y: BaseElement) -> LinComb:
        raw = self.base.bracket(x, y)
        s = self._factor(x) * self._factor(y)
        return LinComb((z, s * c / self._factor(z)) for z, c in raw.items())

    def pairing(self, alpha: Root) -> Fraction:
        return self.base.pairing(alpha) * Fraction(self._scale(alpha))

    def coroot(self, alpha: Root) -> CartanVector:
        return self.base.coroot(alpha)

    def coroot_zeros(self, top: CartanVector, max_height: int) -> tuple[list[Root], int | None]:
        return self.base.coroot_zeros(top, max_height)


BUILTIN_ALGEBRAS = ("sl2", "sl3", "sl4", "virasoro", "oscillator")


def algebra(name: str) -> Algebra:
    """Look up a built-in algebra by its catalog name."""
    if name == "sl2":
        return SpecialLinear(2)
    if name == "sl3":
        return SpecialLinear(3)
    if name == "sl4":
        return SpecialLinear(4)
    if name == "virasoro":
        return VirasoroAlgebra()
    if name == "oscillator":
        return OscillatorAlgebra()
    raise UnknownAlgebraError(f"unknown algebra {name!r}; available: {', '.join(BUILTIN_ALGEBRAS)}")
