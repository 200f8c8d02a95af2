"""The Verma-module engine.

Vectors are ``LinComb``s keyed by PBW monomials, each monomial standing
for its product applied to the highest-weight vector.  The action of an
arbitrary generator is computed by straightening: x . (f0 f1 ... fk) v is
rewritten through x f0 = f0 x + [x, f0] until every product is a
canonically ordered monomial, Cartan generators evaluate through the
weight functional on v, and raising generators annihilate v.

Single-monomial actions are memoised per module instance (the results
depend on the highest weight), which makes the repeated sweeps performed
by the Shapovalov-matrix builder cheap; the module also holds that
builder's cache of canonical matrices, so both die with it.
"""

from __future__ import annotations

from fractions import Fraction

from .current import CurrentElement, TruncatedAlgebra
from .lie_core import LinComb, Root, add_term
from .weights import Monomial, WeightFunctional, factor_key

_ONE = Fraction(1)

Terms = dict[Monomial, Fraction]


class VermaModule:
    """Verma module of a truncated current algebra at a fixed highest weight."""

    def __init__(self, alg: TruncatedAlgebra, weight: WeightFunctional) -> None:
        if weight.nilp != alg.nilp:
            raise ValueError(
                f"weight has {weight.nilp + 1} levels but the algebra needs {alg.nilp + 1}"
            )
        if weight.cartan_rank != alg.base.cartan_rank:
            raise ValueError(
                f"weight levels have length {weight.cartan_rank} but the Cartan rank is "
                f"{alg.base.cartan_rank}"
            )
        self.alg = alg
        self.weight = weight
        self._memo: dict[tuple[CurrentElement, Monomial], Terms] = {}
        # Canonical Shapovalov matrices by chi as sparse rows (column -> nonzero
        # entry), filled by shapovalov._canonical.
        self._matrices: dict[Root, tuple] = {}

    def highest_weight_vector(self) -> LinComb:
        return LinComb.wrap({(): _ONE})

    # -- public action -------------------------------------------------------

    def act(self, x: CurrentElement, v: LinComb) -> LinComb:
        """x . v for any generator x, straightened to the PBW basis."""
        self.alg.check(x)
        out: Terms = {}
        for mono, coeff in v.items():
            for m2, c2 in self._act_mono(x, mono).items():
                add_term(out, m2, coeff * c2)
        return LinComb.wrap(out)

    def descend(self, mono: Monomial) -> LinComb:
        """The basis vector mono . v_highest (a single canonical monomial),
        built by acting with its factors, rightmost first."""
        v = self.highest_weight_vector()
        for x in reversed(mono):
            v = self.act(x, v)
        return v

    # -- straightening core ----------------------------------------------------

    def _act_mono(self, x: CurrentElement, mono: Monomial) -> Terms:
        key = (x, mono)
        hit = self._memo.get(key)
        if hit is not None:
            return hit

        root = x.elem.root
        if not mono:
            if root is None:
                lam = self.weight.evaluate_basis(x.elem.index, x.degree)
                out = {(): lam} if lam else {}
            elif root.is_positive:
                out = {}
            else:
                out = {(x,): _ONE}
        elif root is not None and not root.is_positive and factor_key(x) <= factor_key(mono[0]):
            out = {(x,) + mono: _ONE}
        else:
            # x f0 rest = f0 (x rest) + [x, f0] rest
            f0, rest = mono[0], mono[1:]
            acc: Terms = {}
            for m2, c2 in self._act_mono(x, rest).items():
                for m3, c3 in self._act_mono(f0, m2).items():
                    add_term(acc, m3, c2 * c3)
            for z, cz in self.alg.bracket(x, f0).items():
                for m3, c3 in self._act_mono(z, rest).items():
                    add_term(acc, m3, cz * c3)
            out = acc

        self._memo[key] = out
        return out
