"""The Verma-module engine.

Vectors are sparse rational combinations of PBW monomials applied to the
highest-weight vector.  The action of an arbitrary generator is computed
by straightening: x . (f0 f1 ... fk) v is rewritten through
x f0 = f0 x + [x, f0] until every product is a canonically ordered
monomial, Cartan generators evaluate through the weight functional on v,
and raising generators annihilate v.

Single-monomial actions are memoised per module instance (the results
depend on the highest weight), which makes the repeated sweeps performed
by the Shapovalov-matrix builder cheap; the module also holds that
builder's cache of canonical matrices, so both die with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .current import CurrentElement, TruncatedAlgebra
from .lie_core import Root
from .weights import Monomial, WeightFunctional, factor_key, format_monomial, monomial_weight

_ONE = Fraction(1)

Terms = dict[Monomial, Fraction]


class VermaVector:
    """Exact linear combination of PBW monomials (times the highest-weight
    vector).  Never stores zero coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Terms | Iterable = ()) -> None:
        acc: Terms = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for mono, coeff in items:
            c = acc.get(mono, Fraction(0)) + Fraction(coeff)
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]
        self._terms = acc

    def items(self):
        return iter(self._terms.items())

    def monomials(self) -> list[Monomial]:
        return list(self._terms.keys())

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "VermaVector") -> "VermaVector":
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = out.get(mono, Fraction(0)) + coeff
            if c:
                out[mono] = c
            elif mono in out:
                del out[mono]
        return VermaVector(out)

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + (-other)

    def __neg__(self) -> "VermaVector":
        return VermaVector({m: -c for m, c in self._terms.items()})

    def __mul__(self, scalar) -> "VermaVector":
        s = Fraction(scalar)
        if not s:
            return VermaVector()
        return VermaVector({m: s * c for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, VermaVector) and self._terms == other._terms

    def weights(self, generators: int) -> set[Root]:
        return {monomial_weight(m, generators) for m in self._terms}

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = [
            f"{c} * {format_monomial(m)}"
            for m, c in sorted(self._terms.items(), key=lambda t: tuple(map(factor_key, t[0])))
        ]
        return " + ".join(bits)


def _part(x: CurrentElement) -> str:
    root = x.elem.root
    if root is None:
        return "cartan"
    return "raising" if root.is_positive else "lowering"


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
        # Canonical Shapovalov matrices by chi, filled by shapovalov._canonical.
        self._matrices: dict[Root, tuple] = {}

    def highest_weight_vector(self) -> VermaVector:
        return VermaVector({(): _ONE})

    # -- public action -------------------------------------------------------

    def act(self, x: CurrentElement, v: VermaVector) -> VermaVector:
        """x . v for any generator x, straightened to the PBW basis."""
        self.alg.check(x)
        out: Terms = {}
        for mono, coeff in v.items():
            for m2, c2 in self._act_mono(x, mono).items():
                c = out.get(m2, Fraction(0)) + coeff * c2
                if c:
                    out[m2] = c
                elif m2 in out:
                    del out[m2]
        return VermaVector(out)

    def apply_lowering(self, f: CurrentElement, v: VermaVector) -> VermaVector:
        if _part(f) != "lowering":
            raise ValueError(f"{f} is not a lowering generator")
        return self.act(f, v)

    def apply_cartan(self, h: CurrentElement, v: VermaVector) -> VermaVector:
        if _part(h) != "cartan":
            raise ValueError(f"{h} is not a Cartan generator")
        return self.act(h, v)

    def apply_raising(self, e: CurrentElement, v: VermaVector) -> VermaVector:
        if _part(e) != "raising":
            raise ValueError(f"{e} is not a raising generator")
        return self.act(e, v)

    def act_word(self, word: Iterable[CurrentElement], v: VermaVector) -> VermaVector:
        """Apply a product of generators, rightmost factor first."""
        for x in reversed(list(word)):
            v = self.act(x, v)
        return v

    def descend(self, mono: Monomial) -> VermaVector:
        """The basis vector mono . v_highest (a single canonical monomial)."""
        return self.act_word(mono, self.highest_weight_vector())

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
                    c = acc.get(m3, Fraction(0)) + c2 * c3
                    if c:
                        acc[m3] = c
                    elif m3 in acc:
                        del acc[m3]
            for z, cz in self.alg.bracket(x, f0).items():
                for m3, c3 in self._act_mono(z, rest).items():
                    c = acc.get(m3, Fraction(0)) + cz * c3
                    if c:
                        acc[m3] = c
                    elif m3 in acc:
                        del acc[m3]
            out = acc

        self._memo[key] = out
        return out
