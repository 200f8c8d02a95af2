"""Truncated current algebras g (x) k[t]/t^(N+1).

Basis elements are pairs (base element, t-degree); the bracket adds
degrees and truncates to zero past the nilpotency order N.  Like the base
algebra's, ``TruncatedAlgebra.bracket`` answers from a per-instance table
keyed by the pair: a miss validates both elements, reads [a, b] from the
base table and stores the result, so only valid pairs are ever stored.
Every caller shares a stored result, so it is a read-only
``MappingProxyType`` view.

A ``TruncatedAlgebra`` also holds the other work that does not depend on
a highest weight, for every Verma module built on it: the PBW monomials
of each weight drop (``weights.enumerate_monomials``) and the
straightening memo of each lowering generator (``verma.VermaModule``),
whose entries only reorder lowering factors and so never read a weight.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import InputError
from .lie_core import Algebra, BaseElement, Root


class CurrentElement(NamedTuple):
    """Basis element x (x) t^degree of a truncated current algebra."""

    elem: BaseElement
    degree: int

    def __str__(self) -> str:
        return f"{self.elem}@{self.degree}"


class TruncatedAlgebra:
    """g (x) k[t]/t^(N+1) for a base algebra g and nilpotency order N >= 1.

    N = 0 would be the base algebra itself; the reducibility machinery in
    this library is about the genuinely truncated case, so construction
    rejects it rather than silently producing classical answers it does
    not model.
    """

    def __init__(self, base: Algebra, nilp: int) -> None:
        if nilp < 1:
            raise InputError(
                "nilpotency order must be >= 1: order 0 is the plain base algebra, "
                "which this library's reducibility criterion does not cover"
            )
        self.base = base
        self.nilp = nilp
        self._checked: set[CurrentElement] = set()
        self._brackets: dict[tuple[CurrentElement, CurrentElement], Mapping[CurrentElement, Fraction]] = {}
        # Weight-free tables that the weights and verma modules fill: chi ->
        # its monomials, and lowering generator -> monomial -> straightened
        # product.
        self._monomials: dict[Root, tuple] = {}
        self._lowering: dict[CurrentElement, dict] = {}

    def check(self, x: CurrentElement) -> None:
        """Reject an element outside the algebra.  Elements that pass are
        remembered, so each is validated once; a failing one raises again
        on every call."""
        if x in self._checked:
            return
        self.base.check_element(x.elem)
        if not 0 <= x.degree <= self.nilp:
            raise InputError(
                f"t-degree {x.degree} out of range 0..{self.nilp} for {self.base.name}"
            )
        self._checked.add(x)

    def bracket(self, x: CurrentElement, y: CurrentElement) -> Mapping[CurrentElement, Fraction]:
        """[a (x) t^i, b (x) t^j] = [a, b] (x) t^(i+j), zero when i+j > N,
        as a read-only view from basis element to nonzero Fraction.

        Read from the instance's table, keyed by the pair.  A miss checks
        both elements (a truncated pair never reaches the base algebra's
        bracket, which would check them too), reads [a, b] from the base
        table and stores the result; a truncated pair stores an empty view.
        So only valid pairs are ever stored, and an invalid pair raises on
        every call.
        """
        hit = self._brackets.get((x, y))
        if hit is not None:
            return hit
        self.check(x)
        self.check(y)
        degree = x.degree + y.degree
        terms = {}
        if degree <= self.nilp:
            terms = {CurrentElement(z, degree): c for z, c in self.base.bracket(x.elem, y.elem).items()}
        out = self._brackets[x, y] = MappingProxyType(terms)
        return out

    def __repr__(self) -> str:
        return f"<{self.base.name} (x) k[t]/t^{self.nilp + 1}>"
