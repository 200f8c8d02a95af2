"""Base Lie algebras with triangular decomposition and root-space pairing.

Every algebra is presented through the same data: a Cartan basis acting
diagonally, a catalog of positive roots written over a finite set of simple
generators, structure constants for the bracket of basis elements, and for
each positive root alpha a pairing matrix between g^alpha and g^-alpha
together with a coroot h_alpha satisfying [x, y] = <x, y> h_alpha.

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

Roots are stored as signed integer coordinate vectors over the simple
generators; positive roots have all coordinates >= 0.  The canonical
order on positive roots is (height ascending, coordinates lexicographic
descending), which for sl3 lists alpha1, alpha2, alpha1+alpha2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Iterator

from . import linalg
from .errors import (
    InvalidAlgebraError,
    NotARootError,
    UnknownAlgebraError,
    UnknownElementError,
)

CartanVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class Root:
    """Element of the root lattice, as coordinates over the simple generators."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

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


@dataclass(frozen=True)
class BaseElement:
    """Basis element of g: a Cartan vector (root None) or a root-space vector."""

    root: Root | None
    index: int = 0

    @staticmethod
    def cartan(index: int) -> "BaseElement":
        return BaseElement(None, index)

    @staticmethod
    def of_root(root: Root, index: int = 0) -> "BaseElement":
        return BaseElement(root, index)

    @property
    def is_cartan(self) -> bool:
        return self.root is None

    def __str__(self) -> str:
        if self.root is None:
            return f"h[{self.index}]"
        return f"x{self.root}[{self.index}]"


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
            c = acc.get(key, Fraction(0)) + Fraction(coeff)
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]
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
            c = out.get(key, Fraction(0)) + coeff
            if c:
                out[key] = c
            elif key in out:
                del out[key]
        return LinComb.wrap(out)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return LinComb.wrap({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar) -> "LinComb":
        s = Fraction(scalar)
        if not s:
            return LinComb()
        return LinComb.wrap({k: s * c for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def map_keys(self, fn: Callable) -> "LinComb":
        """Apply fn to every key; keys mapped to None are dropped."""
        out: dict = {}
        for key, coeff in self._terms.items():
            new = fn(key)
            if new is None:
                continue
            c = out.get(new, Fraction(0)) + coeff
            if c:
                out[new] = c
            elif new in out:
                del out[new]
        return LinComb.wrap(out)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*{k}" for k, c in sorted(self._terms.items(), key=lambda t: str(t[0])))


class Algebra:
    """Common surface of the built-in algebras.

    Subclasses fill in the root catalog, the bracket of basis elements,
    and the pairing data; everything else (validation, dual raising
    vectors, root functionals) is generic.
    """

    name: str
    cartan_rank: int
    cartan_names: tuple[str, ...]
    simple_generator_count: int
    finite_roots: bool

    # -- subclass surface ---------------------------------------------------

    def positive_roots(self, max_height: int | None = None) -> list[tuple[Root, int]]:
        """Positive roots with their root-space dimensions, canonically ordered.

        ``max_height=None`` asks for the full catalog and is only legal for
        finite root systems.
        """
        raise NotImplementedError

    def root_space_dim(self, root: Root) -> int:
        """dim g^root for a signed root; 0 when root is not a root at all."""
        raise NotImplementedError

    def bracket(self, x: BaseElement, y: BaseElement) -> LinComb:
        """[x, y] of two basis elements, as a LinComb of basis elements.

        Bilinear extension is the caller's duty.
        """
        raise NotImplementedError

    def pairing(self, alpha: Root) -> list[list[Fraction]]:
        """Matrix <x_a, y_b> over the chosen bases of g^alpha and g^-alpha."""
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
        if not alpha.is_positive or self.root_space_dim(alpha) == 0:
            raise NotARootError(f"{self.name}: {alpha} is not a positive root")

    def check_element(self, x: BaseElement) -> None:
        if x.root is None:
            if not 0 <= x.index < self.cartan_rank:
                raise UnknownElementError(f"{self.name}: Cartan index {x.index} out of range")
            return
        dim = self.root_space_dim(x.root) if len(x.root.coords) == self.simple_generator_count else 0
        if dim == 0:
            raise UnknownElementError(f"{self.name}: {x.root} is not a root")
        if not 0 <= x.index < dim:
            raise UnknownElementError(f"{self.name}: root-space index {x.index} out of range for {x.root}")

    def cartan_element(self, index: int) -> BaseElement:
        x = BaseElement.cartan(index)
        self.check_element(x)
        return x

    def root_element(self, root: Root, index: int = 0) -> BaseElement:
        x = BaseElement.of_root(root, index)
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

    def dual_raising(self, alpha: Root, space_index: int) -> LinComb:
        """The x in g^alpha with <x, y_b> = delta_{b, space_index}.

        Cached per instance (only valid arguments are ever stored): the
        Shapovalov builder asks for the same few vectors once per raising
        action.  The cache is created on first use because subclasses do
        not call a common ``__init__``.
        """
        cache = self.__dict__.setdefault("_dual_raising", {})
        hit = cache.get((alpha, space_index))
        if hit is not None:
            return hit
        self.check_positive_root(alpha)
        dim = self.root_space_dim(alpha)
        if not 0 <= space_index < dim:
            raise UnknownElementError(f"{self.name}: root-space index {space_index} out of range for {alpha}")
        p = self.pairing(alpha)
        try:
            p_inv = linalg.invert(p)
        except ValueError as exc:
            raise InvalidAlgebraError(f"{self.name}: singular pairing at {alpha} violates non-degeneracy") from exc
        dual = cache[(alpha, space_index)] = LinComb(
            (BaseElement.of_root(alpha, a), p_inv[space_index][a])
            for a in range(dim)
            if p_inv[space_index][a]
        )
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
            for root, _dim in self.positive_roots(bound)
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
        self._roots = sorted(
            (self._run_root(i, j) for i in range(n) for j in range(i + 1, n)),
            key=root_order_key,
        )

    def _run_root(self, i: int, j: int) -> Root:
        # alpha_ij = alpha_i + ... + alpha_{j-1}
        return Root(tuple(1 if i <= k < j else 0 for k in range(self.n - 1)))

    def _root_to_pair(self, root: Root) -> tuple[int, int] | None:
        """(i, j) with the root-space vector E[i][j]; None if not a root."""
        coords = root.coords
        if len(coords) != self.n - 1:
            return None
        sign = 1 if any(c > 0 for c in coords) else -1
        ones = [k for k, c in enumerate(coords) if c == sign]
        if not ones or any(c not in (0, sign) for c in coords):
            return None
        lo, hi = ones[0], ones[-1]
        if ones != list(range(lo, hi + 1)):
            return None
        return (lo, hi + 1) if sign > 0 else (hi + 1, lo)

    def positive_roots(self, max_height: int | None = None) -> list[tuple[Root, int]]:
        roots = self._roots if max_height is None else [r for r in self._roots if r.height <= max_height]
        return [(r, 1) for r in roots]

    def root_space_dim(self, root: Root) -> int:
        return 1 if self._root_to_pair(root) is not None else 0

    def simple_root_action(self, s: int) -> CartanVector:
        # Cartan matrix of type A: alpha_s(h_k).
        return tuple(
            Fraction(2 if k == s else -1 if abs(k - s) == 1 else 0)
            for k in range(self.cartan_rank)
        )

    def _units_of(self, x: BaseElement) -> dict[tuple[int, int], Fraction]:
        if x.root is None:
            k = x.index
            return {(k, k): Fraction(1), (k + 1, k + 1): Fraction(-1)}
        pair = self._root_to_pair(x.root)
        assert pair is not None
        return {pair: Fraction(1)}

    def _from_units(self, units: dict[tuple[int, int], Fraction]) -> LinComb:
        terms: list[tuple[BaseElement, Fraction]] = []
        diag = [units.get((i, i), Fraction(0)) for i in range(self.n)]
        assert sum(diag) == 0, "commutator of traceless matrices must be traceless"
        partial = Fraction(0)
        for k in range(self.n - 1):
            partial += diag[k]
            if partial:
                terms.append((BaseElement.cartan(k), partial))
        for (i, j), c in units.items():
            if i != j and c:
                root = self._run_root(i, j) if i < j else -self._run_root(j, i)
                terms.append((BaseElement.of_root(root, 0), c))
        return LinComb(terms)

    def bracket(self, x: BaseElement, y: BaseElement) -> LinComb:
        self.check_element(x)
        self.check_element(y)
        out: dict[tuple[int, int], Fraction] = {}
        for (a, b), cx in self._units_of(x).items():
            for (c, d), cy in self._units_of(y).items():
                coeff = cx * cy
                if b == c:
                    out[(a, d)] = out.get((a, d), Fraction(0)) + coeff
                if d == a:
                    out[(c, b)] = out.get((c, b), Fraction(0)) - coeff
        return self._from_units(out)

    def pairing(self, alpha: Root) -> list[list[Fraction]]:
        self.check_positive_root(alpha)
        return [[Fraction(1)]]

    def coroot(self, alpha: Root) -> CartanVector:
        self.check_positive_root(alpha)
        # E_ii - E_jj expands over the h_k with the root's own coordinates.
        return tuple(Fraction(c) for c in alpha.coords)


class VirasoroAlgebra(Algebra):
    """The Virasoro algebra: L_m (m integer) plus a central charge element."""

    name = "virasoro"
    cartan_rank = 2
    cartan_names = ("L0", "c")
    simple_generator_count = 1
    finite_roots = False

    def positive_roots(self, max_height: int | None = None) -> list[tuple[Root, int]]:
        if max_height is None:
            raise ValueError("virasoro has infinitely many positive roots; give a height bound")
        return [(Root((m,)), 1) for m in range(1, max_height + 1)]

    def root_space_dim(self, root: Root) -> int:
        return 1 if len(root.coords) == 1 and root.coords[0] != 0 else 0

    def simple_root_action(self, s: int) -> CartanVector:
        # [L0, L_m] = -m L_m, [c, L_m] = 0.
        return (Fraction(-1), Fraction(0))

    def _mode(self, x: BaseElement) -> tuple[str, int]:
        if x.root is not None:
            return ("L", x.root.coords[0])
        return ("L", 0) if x.index == 0 else ("c", 0)

    def _encode(self, m: int) -> BaseElement:
        return BaseElement.cartan(0) if m == 0 else BaseElement.of_root(Root((m,)), 0)

    def bracket(self, x: BaseElement, y: BaseElement) -> LinComb:
        self.check_element(x)
        self.check_element(y)
        kx, m = self._mode(x)
        ky, n = self._mode(y)
        if kx == "c" or ky == "c":
            return LinComb()
        terms: list[tuple[BaseElement, Fraction]] = []
        if m != n:
            terms.append((self._encode(m + n), Fraction(m - n)))
        if m == -n:
            central = Fraction(m**3 - m, 12)
            if central:
                terms.append((BaseElement.cartan(1), central))
        return LinComb(terms)

    def pairing(self, alpha: Root) -> list[list[Fraction]]:
        self.check_positive_root(alpha)
        return [[Fraction(1)]]

    def coroot(self, alpha: Root) -> CartanVector:
        self.check_positive_root(alpha)
        m = alpha.coords[0]
        return (Fraction(2 * m), Fraction(m**3 - m, 12))

    def coroot_zeros(self, top: CartanVector, max_height: int) -> tuple[list[Root], int | None]:
        # Solve 2m x + (m^3 - m)/12 y = 0 over integers m >= 1 (the condition is
        # odd in m, so negative solutions mirror positive ones).
        x, y = top
        if x == 0 and y == 0:
            return [Root((m,)) for m in range(1, max_height + 1)], max_height
        if y == 0:
            return [], None
        q = 1 - 24 * x / y  # m^2 for any nonzero root of the cubic
        if q.denominator == 1 and q >= 1:
            m = isqrt(q.numerator)
            if m * m == q.numerator:
                return [Root((m,))], None
        return [], None


class OscillatorAlgebra(Algebra):
    """Oscillator algebra: a_m (m nonzero) with [a_m, a_-m] = m hbar and a
    grading element d.  The Heisenberg core is extended by d so that the
    Cartan action has nontrivial eigenvalues."""

    name = "oscillator"
    cartan_rank = 2
    cartan_names = ("d", "hbar")
    simple_generator_count = 1
    finite_roots = False

    def positive_roots(self, max_height: int | None = None) -> list[tuple[Root, int]]:
        if max_height is None:
            raise ValueError("oscillator has infinitely many positive roots; give a height bound")
        return [(Root((m,)), 1) for m in range(1, max_height + 1)]

    def root_space_dim(self, root: Root) -> int:
        return 1 if len(root.coords) == 1 and root.coords[0] != 0 else 0

    def simple_root_action(self, s: int) -> CartanVector:
        # [d, a_m] = m a_m, [hbar, a_m] = 0.
        return (Fraction(1), Fraction(0))

    def bracket(self, x: BaseElement, y: BaseElement) -> LinComb:
        self.check_element(x)
        self.check_element(y)

        def mode(z: BaseElement) -> tuple[str, int]:
            if z.root is not None:
                return ("a", z.root.coords[0])
            return ("d", 0) if z.index == 0 else ("hbar", 0)

        kx, m = mode(x)
        ky, n = mode(y)
        if kx == "hbar" or ky == "hbar":
            return LinComb()
        if kx == "d" and ky == "d":
            return LinComb()
        if kx == "d":
            return LinComb.term(BaseElement.of_root(Root((n,)), 0), n)
        if ky == "d":
            return LinComb.term(BaseElement.of_root(Root((m,)), 0), -m)
        if m == -n:
            return LinComb.term(BaseElement.cartan(1), m)
        return LinComb()

    def pairing(self, alpha: Root) -> list[list[Fraction]]:
        self.check_positive_root(alpha)
        return [[Fraction(alpha.coords[0])]]

    def coroot(self, alpha: Root) -> CartanVector:
        self.check_positive_root(alpha)
        return (Fraction(0), Fraction(1))

    def coroot_zeros(self, top: CartanVector, max_height: int) -> tuple[list[Root], int | None]:
        # Every coroot is hbar: all positive roots qualify, or none does.
        if top[1] == 0:
            return [Root((m,)) for m in range(1, max_height + 1)], max_height
        return [], None


class RescaledLowering(Algebra):
    """The same algebra with each lowering basis vector y_{alpha,b} replaced
    by scale(alpha, b) * y_{alpha,b}.

    Used to probe that determinant zero sets do not depend on the choice of
    lowering basis.  Raising and Cartan vectors are untouched.
    """

    def __init__(self, base: Algebra, scale: Callable[[Root, int], Fraction]) -> None:
        self.base = base
        self._scale = scale
        self.name = f"{base.name}[rescaled]"
        self.cartan_rank = base.cartan_rank
        self.cartan_names = base.cartan_names
        self.simple_generator_count = base.simple_generator_count
        self.finite_roots = base.finite_roots

    def _factor(self, x: BaseElement) -> Fraction:
        if x.root is not None and not x.root.is_positive:
            s = Fraction(self._scale(-x.root, x.index))
            if not s:
                raise InvalidAlgebraError("lowering rescale factors must be nonzero")
            return s
        return Fraction(1)

    def positive_roots(self, max_height: int | None = None) -> list[tuple[Root, int]]:
        return self.base.positive_roots(max_height)

    def root_space_dim(self, root: Root) -> int:
        return self.base.root_space_dim(root)

    def simple_root_action(self, s: int) -> CartanVector:
        return self.base.simple_root_action(s)

    def bracket(self, x: BaseElement, y: BaseElement) -> LinComb:
        raw = self.base.bracket(x, y)
        s = self._factor(x) * self._factor(y)
        return LinComb((z, s * c / self._factor(z)) for z, c in raw.items())

    def pairing(self, alpha: Root) -> list[list[Fraction]]:
        p = self.base.pairing(alpha)
        dim = len(p)
        return [[p[a][b] * Fraction(self._scale(alpha, b)) for b in range(dim)] for a in range(dim)]

    def coroot(self, alpha: Root) -> CartanVector:
        return self.base.coroot(alpha)


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
