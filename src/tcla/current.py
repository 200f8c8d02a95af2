"""Truncated current algebras g (x) k[t]/t^(N+1).

Basis elements are pairs (base element, t-degree); the bracket adds
degrees and truncates to zero past the nilpotency order N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAlgebraError, NotARootError, UnknownElementError
from .lie_core import Algebra, BaseElement, LinComb, Root


@dataclass(frozen=True)
class CurrentElement:
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

    def check(self, x: CurrentElement) -> None:
        self.base.check_element(x.elem)
        if not 0 <= x.degree <= self.nilp:
            raise UnknownElementError(
                f"t-degree {x.degree} out of range 0..{self.nilp} for {self.base.name}"
            )

    def bracket(self, x: CurrentElement, y: CurrentElement) -> LinComb:
        """[a (x) t^i, b (x) t^j] = [a, b] (x) t^(i+j), zero when i+j > N."""
        self.check(x)
        self.check(y)
        degree = x.degree + y.degree
        if degree > self.nilp:
            return LinComb()
        base = self.base.bracket(x.elem, y.elem)
        return base.map_keys(lambda be: CurrentElement(be, degree))

    def subspace_basis(self, root: Root | None) -> list[CurrentElement]:
        """Basis of g^root (x) k[t]/t^(N+1); root None means the Cartan part.

        Ordered by (space index, degree).
        """
        if root is None:
            return [
                CurrentElement(BaseElement.cartan(k), i)
                for k in range(self.base.cartan_rank)
                for i in range(self.nilp + 1)
            ]
        dim = self.base.root_space_dim(root)
        if dim == 0:
            raise NotARootError(f"{self.base.name}: {root} is not a root")
        return [
            CurrentElement(BaseElement.of_root(root, s), i)
            for s in range(dim)
            for i in range(self.nilp + 1)
        ]

    def __repr__(self) -> str:
        return f"<{self.base.name} (x) k[t]/t^{self.nilp + 1}>"
