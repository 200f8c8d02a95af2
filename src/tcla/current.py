"""Truncated current algebras g (x) k[t]/t^(N+1).

Basis elements are pairs (base element, t-degree); the bracket adds
degrees and truncates to zero past the nilpotency order N.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidAlgebraError, UnknownElementError
from .lie_core import Algebra, BaseElement


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
            raise InvalidAlgebraError(
                "nilpotency order must be >= 1: order 0 is the plain base algebra, "
                "which this library's reducibility criterion does not cover"
            )
        self.base = base
        self.nilp = nilp
        self._checked: set[CurrentElement] = set()

    def check(self, x: CurrentElement) -> None:
        """Reject an element outside the algebra.  Elements that pass are
        remembered, so each is validated once; a failing one raises again
        on every call."""
        if x in self._checked:
            return
        self.base.check_element(x.elem)
        if not 0 <= x.degree <= self.nilp:
            raise UnknownElementError(
                f"t-degree {x.degree} out of range 0..{self.nilp} for {self.base.name}"
            )
        self._checked.add(x)

    def bracket(self, x: CurrentElement, y: CurrentElement) -> dict[CurrentElement, Fraction]:
        """[a (x) t^i, b (x) t^j] = [a, b] (x) t^(i+j), zero when i+j > N,
        as a fresh dict from basis element to nonzero Fraction.

        [a, b] comes from the base algebra's bracket table.  Both elements
        are checked here too, because a truncated pair never reaches it.
        """
        self.check(x)
        self.check(y)
        degree = x.degree + y.degree
        if degree > self.nilp:
            return {}
        base = self.base.bracket(x.elem, y.elem)
        return {CurrentElement(z, degree): c for z, c in base.items()}

    def __repr__(self) -> str:
        return f"<{self.base.name} (x) k[t]/t^{self.nilp + 1}>"
