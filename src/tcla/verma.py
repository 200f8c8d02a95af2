"""The Verma-module engine.

Vectors are dicts from PBW monomial to nonzero Fraction (``Terms``), each
monomial standing for its product applied to the highest-weight vector.
The action of an arbitrary generator is computed by straightening:
x . (f0 f1 ... fk) v is rewritten through x f0 = f0 x + [x, f0] until every
product is a canonically ordered monomial.  A lowering x that sorts no
later than f0, or meets v itself, is prepended; Cartan generators evaluate
through the weight functional on v, and raising generators annihilate v.

Single-monomial actions are memoised, one table per generator, which
makes the repeated sweeps performed by the Shapovalov-matrix builder
cheap.  A lowering generator acting on a monomial only reorders lowering
factors: no Cartan generator is ever evaluated, so the result does not
depend on the highest weight, and its table lives on the
``TruncatedAlgebra`` (``_lowering``), shared by every module built on it.
The tables of Cartan and raising generators read the weight and stay with
the module, as do the Shapovalov-matrix builder's caches of canonical
matrices and of raising elements, so all of them die with it.
"""

from __future__ import annotations

from fractions import Fraction

from .current import CurrentElement, TruncatedAlgebra
from .errors import InvalidAlgebraError
from .lie_core import Root, add_scaled
from .weights import Monomial, WeightFunctional, check_weight, factor_key

_ONE = Fraction(1)

Terms = dict[Monomial, Fraction]


class VermaModule:
    """Verma module of a truncated current algebra at a fixed highest weight."""

    def __init__(self, alg: TruncatedAlgebra, weight: WeightFunctional) -> None:
        check_weight(weight, alg)
        self.alg = alg
        self.weight = weight
        # Generator -> monomial -> x . mono; a lowering generator's table is
        # the algebra's (see the module docstring).
        self._memo: dict[CurrentElement, dict[Monomial, Terms]] = {}
        # Canonical Shapovalov matrices by (chi, blocks) as sparse rows
        # (column -> nonzero entry), filled by shapovalov._canonical, and the
        # raising element of each lowering factor, filled by shapovalov.ascend.
        self._matrices: dict[tuple[Root, bool], tuple] = {}
        self._raising: dict[CurrentElement, CurrentElement] = {}

    def highest_weight_vector(self) -> Terms:
        return {(): _ONE}

    # -- public action -------------------------------------------------------

    def act(self, x: CurrentElement, v: Terms) -> Terms:
        """x . v for any generator x, straightened to the PBW basis, as a
        fresh dict that the caller owns.

        A coefficient 1 in ``v`` takes no product, and on ``{mono: 1}`` the
        result is a plain copy of the memoised action."""
        self.alg.check(x)
        if len(v) == 1:
            ((mono, coeff),) = v.items()
            if coeff == 1:
                return dict(self._act_mono(x, mono))
        out: Terms = {}
        for mono, coeff in v.items():
            add_scaled(out, self._act_mono(x, mono), coeff)
        return out

    def descend(self, mono: Monomial) -> Terms:
        """The basis vector mono . v_highest (a single canonical monomial),
        built by acting with its factors, rightmost first."""
        v = self.highest_weight_vector()
        for x in reversed(mono):
            v = self.act(x, v)
        return v

    # -- straightening core ----------------------------------------------------

    def _act_mono(self, x: CurrentElement, mono: Monomial) -> Terms:
        table = self._memo.get(x)
        if table is None:
            table = self._memo[x] = self._new_table(x)
        hit = table.get(mono)
        if hit is not None:
            return hit

        root = x.elem.root
        lowers = root is not None and not root.is_positive
        if lowers and (not mono or factor_key(x) <= factor_key(mono[0])):
            out = {(x,) + mono: _ONE}
        elif not mono:
            if root is None:
                lam = self.weight.level(x.degree)[x.elem.index]
                out = {(): lam} if lam else {}
            else:
                out = {}
        else:
            # x f0 rest = f0 (x rest) + [x, f0] rest
            f0, rest = mono[0], mono[1:]
            acc: Terms = {}
            for m2, c2 in self._act_mono(x, rest).items():
                add_scaled(acc, self._act_mono(f0, m2), c2)
            for z, cz in self.alg.bracket(x, f0).items():
                if lowers and (z.elem.root is None or z.elem.root.is_positive):
                    raise InvalidAlgebraError(
                        f"{self.alg.base.name}: [{x.elem}, {f0.elem}] of two lowering "
                        f"generators has the term {z.elem}, which is not lowering"
                    )
                add_scaled(acc, self._act_mono(z, rest), cz)
            out = acc

        table[mono] = out
        return out

    def _new_table(self, x: CurrentElement) -> dict[Monomial, Terms]:
        """x's memo table: the algebra's shared one for a lowering x, so its
        entries must never read the weight, and a fresh one otherwise."""
        root = x.elem.root
        if root is not None and not root.is_positive:
            return self.alg._lowering.setdefault(x, {})
        return {}
