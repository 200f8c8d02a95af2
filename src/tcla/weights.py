"""Weight functionals, root-lattice walks, and PBW monomial enumeration.

A highest weight for a truncated current algebra is a tuple of functionals
on the Cartan subalgebra, one per t-degree.  PBW monomials are multisets
of lowering generators kept in a frozen canonical order; the monomials of
a fixed total weight drop chi index the corresponding weight space of the
Verma module.  They do not depend on the highest weight, so each
``TruncatedAlgebra`` lists them once per chi, for every module built on it.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterable, Sequence

from .current import CurrentElement, TruncatedAlgebra
from .errors import InputError
from .lie_core import Algebra, BaseElement, CartanVector, Root, root_order_key
from .rationals import parse_rational

Monomial = tuple[CurrentElement, ...]


class WeightFunctional:
    """Functional on the Cartan of a truncated current algebra: one vector
    per t-degree 0..N over the Cartan basis, each value an int, Fraction or
    "p/q" text read by ``parse_rational`` (a float, bool or Decimal raises)."""

    __slots__ = ("levels",)

    def __init__(self, levels: Iterable[Sequence]) -> None:
        self.levels: tuple[CartanVector, ...] = tuple(
            tuple(parse_rational(v) for v in level) for level in levels
        )
        if not self.levels:
            raise InputError("a weight functional needs at least one level")
        rank = len(self.levels[0])
        if any(len(level) != rank for level in self.levels):
            raise InputError("all levels of a weight functional must have equal length")

    @property
    def nilp(self) -> int:
        return len(self.levels) - 1

    @property
    def cartan_rank(self) -> int:
        return len(self.levels[0])

    def level(self, i: int) -> CartanVector:
        if not 0 <= i <= self.nilp:
            raise InputError(f"level {i} out of range 0..{self.nilp}")
        return self.levels[i]

    @classmethod
    def from_named(cls, base: Algebra, nilp: int, level_dicts: Sequence[dict]) -> "WeightFunctional":
        """Build from per-level {cartan_name: rational} dicts; missing names
        default to zero, unknown names are rejected before any value is read."""
        if len(level_dicts) != nilp + 1:
            raise InputError(f"expected {nilp + 1} levels, got {len(level_dicts)}")
        levels = []
        for i, d in enumerate(level_dicts):
            unknown = set(d) - set(base.cartan_names)
            if unknown:
                raise InputError(
                    f"level {i}: unknown Cartan name(s) {sorted(unknown)}; "
                    f"expected among {list(base.cartan_names)}"
                )
            try:
                levels.append([parse_rational(d.get(name := n, 0)) for n in base.cartan_names])
            except InputError as exc:
                raise InputError(f"level {i}, {name}: {exc}") from exc
        return cls(levels)

    def __repr__(self) -> str:
        return f"WeightFunctional({[tuple(map(str, l)) for l in self.levels]})"


def factor_key(x: CurrentElement) -> tuple:
    """Canonical sort key of a lowering generator inside a PBW monomial:
    (root height, root coords lex-descending, t-degree)."""
    root = x.elem.root
    assert root is not None
    return (-root.height, root.coords, x.degree)


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


def check_chi(chi: Root, base: Algebra) -> None:
    """Reject a weight drop that is not a point of the positive cone of
    ``base``'s root lattice (zero included)."""
    count = base.simple_generator_count
    if len(chi.coords) != count:
        raise InputError(
            f"chi has {len(chi.coords)} coordinates but {base.name} has {count} simple generator(s)"
        )
    if any(c < 0 for c in chi.coords):
        raise InputError(f"chi coordinates must be nonnegative, got {chi}")


def check_weight(weight: WeightFunctional, alg: TruncatedAlgebra) -> None:
    """Reject a weight without one level per t-degree over the Cartan basis."""
    if weight.nilp != alg.nilp:
        raise InputError(f"weight has {weight.nilp + 1} levels but the algebra needs {alg.nilp + 1}")
    if weight.cartan_rank != alg.base.cartan_rank:
        rank = alg.base.cartan_rank
        raise InputError(f"weight levels have length {weight.cartan_rank} but the Cartan rank is {rank}")


def weight_space_dimension(chi: Root, alg: TruncatedAlgebra) -> int:
    """``len(enumerate_monomials(chi, alg))`` without enumerating.

    A monomial is a multiset of lowering generators, so this is a coin-change
    count: the ways to make chi from the generators' drops, tallied over the
    box of points between 0 and chi.
    """
    check_chi(chi, alg.base)
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
    """All PBW monomials of weight chi, in canonical order, as a fresh
    list that the caller owns.

    The list's length is the dimension of the Verma-module weight space at
    (highest weight - chi).  It is read from the algebra's table, keyed by
    chi: a miss validates chi, walks and stores the monomials, so an
    invalid chi raises on every call and is never stored.  The walk fixes
    one exponent per generator, in canonical generator order and largest
    exponent first, so it recurses once per generator rather than once per
    factor; descending-lex exponent vectors are the lex order on the sorted
    factor sequences.
    """
    hit = alg._monomials.get(chi)
    if hit is not None:
        return list(hit)
    check_chi(chi, alg.base)
    gens = lowering_generators(chi, alg)
    drops = [(-g.elem.root).coords for g in gens]
    out: list[Monomial] = []
    stack: list[CurrentElement] = []

    def extend(i: int, remaining: tuple[int, ...]) -> None:
        # An empty remainder has one completion: every later exponent 0.
        if not any(remaining):
            out.append(tuple(stack))
            return
        if i == len(gens):
            return
        drop = drops[i]
        top = min(r // d for r, d in zip(remaining, drop) if d)
        # The last generator only tries the exponent that could empty the remainder.
        lowest = top if i == len(gens) - 1 else 0
        for k in range(top, lowest - 1, -1):
            stack.extend([gens[i]] * k)
            extend(i + 1, tuple(r - k * d for r, d in zip(remaining, drop)))
            del stack[len(stack) - k:]

    extend(0, chi.coords)
    alg._monomials[chi] = tuple(out)
    return out


def positive_lattice_points(generators: int, max_height: int) -> list[Root]:
    """All nonzero chi in the positive cone with height <= max_height, in
    canonical order (``root_order_key``)."""
    box = product(range(max_height + 1), repeat=generators)
    return sorted((Root(p) for p in box if 0 < sum(p) <= max_height), key=root_order_key)
