"""Weight functionals, root-lattice walks, and PBW monomial enumeration.

A highest weight for a truncated current algebra is a tuple of functionals
on the Cartan subalgebra, one per t-degree.  PBW monomials are multisets
of lowering generators kept in a frozen canonical order; the monomials of
a fixed total weight drop chi index the corresponding weight space of the
Verma module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Sequence

from .current import CurrentElement, TruncatedAlgebra
from .errors import DegreeError, NotARootError
from .lie_core import Algebra, BaseElement, CartanVector, Root

Monomial = tuple[CurrentElement, ...]


class WeightFunctional:
    """Functional on the Cartan of a truncated current algebra, stored as
    one rational vector over the Cartan basis per t-degree 0..N."""

    __slots__ = ("levels",)

    def __init__(self, levels: Iterable[Sequence]) -> None:
        self.levels: tuple[CartanVector, ...] = tuple(
            tuple(Fraction(v) for v in level) for level in levels
        )
        if not self.levels:
            raise ValueError("a weight functional needs at least one level")
        rank = len(self.levels[0])
        if any(len(level) != rank for level in self.levels):
            raise ValueError("all levels of a weight functional must have equal length")

    @property
    def nilp(self) -> int:
        return len(self.levels) - 1

    @property
    def cartan_rank(self) -> int:
        return len(self.levels[0])

    def level(self, i: int) -> CartanVector:
        if not 0 <= i <= self.nilp:
            raise DegreeError(f"level {i} out of range 0..{self.nilp}")
        return self.levels[i]

    def evaluate(self, h: Sequence[Fraction], degree: int) -> Fraction:
        """Value on h (x) t^degree, h given over the Cartan basis."""
        level = self.level(degree)
        if len(h) != len(level):
            raise ValueError(f"Cartan vector length {len(h)} != rank {len(level)}")
        return sum((Fraction(c) * v for c, v in zip(h, level)), Fraction(0))

    def evaluate_basis(self, cartan_index: int, degree: int) -> Fraction:
        """Value on the cartan_index-th Cartan basis vector at t^degree."""
        return self.level(degree)[cartan_index]

    @classmethod
    def from_named(cls, base: Algebra, nilp: int, level_dicts: Sequence[dict]) -> "WeightFunctional":
        """Build from per-level {cartan_name: rational} dicts; missing names
        default to zero, unknown names are rejected."""
        if len(level_dicts) != nilp + 1:
            raise ValueError(f"expected {nilp + 1} levels, got {len(level_dicts)}")
        levels = []
        for i, d in enumerate(level_dicts):
            unknown = set(d) - set(base.cartan_names)
            if unknown:
                raise ValueError(
                    f"level {i}: unknown Cartan name(s) {sorted(unknown)}; "
                    f"expected among {list(base.cartan_names)}"
                )
            levels.append([Fraction(d.get(name, 0)) for name in base.cartan_names])
        return cls(levels)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightFunctional) and self.levels == other.levels

    def __repr__(self) -> str:
        return f"WeightFunctional({[tuple(map(str, l)) for l in self.levels]})"


def factor_key(x: CurrentElement) -> tuple:
    """Canonical sort key of a lowering generator inside a PBW monomial:
    (root height, root coords lex-descending, t-degree)."""
    root = x.elem.root
    assert root is not None
    return (-root.height, root.coords, x.degree)


def monomial_weight(mono: Monomial, generators: int) -> Root:
    """Total weight drop chi of a monomial: sum of the positive counterparts
    of its factors' roots.  The empty monomial has weight zero."""
    total = Root.zero(generators)
    for x in mono:
        assert x.elem.root is not None
        total = total + (-x.elem.root)
    return total


def format_monomial(mono: Monomial) -> str:
    """Stable text encoding: "f(root)[0]@deg * ...", or "1" when empty.

    The "[0]" is a fixed field of the format, kept so that exported
    monomial text never changes."""
    if not mono:
        return "1"
    parts = []
    for x in mono:
        pos = -x.elem.root
        coords = ",".join(str(c) for c in pos.coords)
        parts.append(f"f({coords})[0]@{x.degree}")
    return " * ".join(parts)


def lowering_generators(chi: Root, alg: TruncatedAlgebra) -> list[CurrentElement]:
    """All lowering generators whose weight drop fits inside chi, in
    canonical order."""
    gens = [
        CurrentElement(BaseElement.of_root(-root), d)
        for root in alg.base.positive_roots(chi.height)
        if root.fits_within(chi)
        for d in range(alg.nilp + 1)
    ]
    gens.sort(key=factor_key)
    return gens


def _check_chi(chi: Root, alg: TruncatedAlgebra) -> None:
    if len(chi.coords) != alg.base.simple_generator_count:
        raise NotARootError(
            f"chi arity {len(chi.coords)} != {alg.base.simple_generator_count}"
        )
    if any(c < 0 for c in chi.coords):
        raise NotARootError(f"chi must lie in the positive cone, got {chi}")


def weight_space_dimension(chi: Root, alg: TruncatedAlgebra) -> int:
    """``len(enumerate_monomials(chi, alg))`` without enumerating.

    A monomial is a multiset of lowering generators, so this is a coin-change
    count: the ways to make chi from the generators' drops, tallied over the
    box of points between 0 and chi.
    """
    _check_chi(chi, alg)
    points = list(product(*(range(c + 1) for c in chi.coords)))
    strides = [prod(c + 1 for c in chi.coords[k + 1:]) for k in range(len(chi.coords))]
    ways = [1] + [0] * (len(points) - 1)
    for gen in lowering_generators(chi, alg):
        drop = (-gen.elem.root).coords
        offset = sum(d * s for d, s in zip(drop, strides))
        for k, point in enumerate(points):
            if all(p >= d for p, d in zip(point, drop)):
                ways[k] += ways[k - offset]
    return ways[-1]


def enumerate_monomials(chi: Root, alg: TruncatedAlgebra) -> list[Monomial]:
    """All PBW monomials of weight chi, in canonical order.

    The list's length is the dimension of the Verma-module weight space at
    (highest weight - chi).
    """
    _check_chi(chi, alg)
    gens = lowering_generators(chi, alg)
    drops = [-g.elem.root for g in gens]
    out: list[Monomial] = []
    stack: list[CurrentElement] = []

    def extend(start: int, remaining: Root) -> None:
        if remaining.is_zero:
            out.append(tuple(stack))
            return
        for i in range(start, len(gens)):
            if drops[i].fits_within(remaining):
                stack.append(gens[i])
                extend(i, remaining - drops[i])
                stack.pop()

    extend(0, chi)
    return out


def positive_lattice_points(generators: int, max_height: int) -> list[Root]:
    """All nonzero chi in the positive cone with height <= max_height, in
    canonical order (height ascending, coords lex-descending)."""
    points: list[Root] = []

    def compose(prefix: list[int], left: int, slots: int) -> None:
        if slots == 1:
            points.append(Root(tuple(prefix + [left])))
            return
        for c in range(left, -1, -1):
            compose(prefix + [c], left - c, slots - 1)

    for h in range(1, max_height + 1):
        compose([], h, generators)
    return points
