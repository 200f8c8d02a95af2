"""Shared construction helpers and test-side algebras for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from tcla import (
    Algebra,
    BaseElement,
    CurrentElement,
    Monomial,
    Root,
    ShapovalovMatrix,
    TruncatedAlgebra,
    VermaModule,
    WeightFunctional,
    algebra,
    enumerate_monomials,
    linalg,
    shapovalov_matrix,
)
from tcla.errors import InvalidAlgebraError
from tcla.lie_core import CartanVector, MatrixAlgebra, add_term, commutator
from tcla.weights import factor_key, lowering_generators


class Sp4(MatrixAlgebra):
    """sp4 (type C2) as matrix data only: no bracket, pairing or coroot of
    its own.

    h1 = diag(1,-1,-1,1), h2 = diag(0,1,0,-1); each lowering vector is its
    raising vector's transpose, so the coroots read from the bracket,
    h_{a1+a2} = h1 + 2 h2 and h_{2a1+a2} = h1 + h2, differ from the roots'
    own coordinates.
    """

    RAISING = {
        Root((1, 0)): {(0, 1): 1, (3, 2): -1},
        Root((0, 1)): {(1, 3): 1},
        Root((1, 1)): {(0, 3): 1, (1, 2): 1},
        Root((2, 1)): {(0, 2): 1},
    }

    def __init__(self) -> None:
        units = {
            BaseElement.cartan(0): {(0, 0): 1, (1, 1): -1, (2, 2): -1, (3, 3): 1},
            BaseElement.cartan(1): {(1, 1): 1, (3, 3): -1},
        }
        for root, matrix in self.RAISING.items():
            units[BaseElement.of_root(root)] = matrix
            units[BaseElement.of_root(-root)] = {(j, i): e for (i, j), e in matrix.items()}
        super().__init__("sp4", units)


class G2(MatrixAlgebra):
    """G2 as matrix data only, on its 7-dimensional representation.

    E1, F1 belong to the short simple root alpha1 and E2, F2 to the long
    simple root alpha2, with h1 = [E1, F1] and h2 = [E2, F2].  The other
    raising vectors are iterated commutators: [E1, E2], then [E1, .] twice,
    then [E2, .].  The lowering vectors mirror them ([F2, F1], then
    [., F1] twice, then [., F2]), divided by ``SCALE`` so that every
    bracket [x_alpha, y_alpha] is the standard coroot 2 alpha / (alpha, alpha).
    """

    E1 = {(0, 1): 1, (2, 3): 1, (3, 4): 1, (5, 6): 1}
    F1 = {(1, 0): 1, (3, 2): 2, (4, 3): 2, (6, 5): 1}
    E2 = {(1, 2): 1, (4, 5): 1}
    F2 = {(2, 1): 1, (5, 4): 1}
    SCALE = {Root((2, 1)): 4, Root((3, 1)): 36, Root((3, 2)): 36}

    def __init__(self) -> None:
        a1, a2 = Root((1, 0)), Root((0, 1))
        raising, lowering = {a1: self.E1, a2: self.E2}, {a1: self.F1, a2: self.F2}
        for simple, previous in [(a1, a2), (a1, a1 + a2), (a1, 2 * a1 + a2), (a2, 3 * a1 + a2)]:
            root = simple + previous
            raising[root] = commutator(raising[simple], raising[previous])
            lowering[root] = commutator(lowering[previous], lowering[simple])
        units = {
            BaseElement.cartan(0): commutator(self.E1, self.F1),
            BaseElement.cartan(1): commutator(self.E2, self.F2),
        }
        for root, matrix in raising.items():
            units[BaseElement.of_root(root)] = matrix
            scale = self.SCALE.get(root, 1)
            units[BaseElement.of_root(-root)] = {u: Fraction(e) / scale for u, e in lowering[root].items()}
        super().__init__("g2", units)


TEST_ALGEBRAS = {"sp4": Sp4, "g2": G2}


def any_algebra(name: str) -> Algebra:
    """A built-in algebra by catalog name, or a test-side one: "sp4", "g2"."""
    return TEST_ALGEBRAS[name]() if name in TEST_ALGEBRAS else algebra(name)


# alpha_s(h_k) as row s, column k: the Cartan action written down by hand, an
# oracle independent of the brackets that the library reads coroots from.
CARTAN_MATRICES = {
    **{
        f"sl{n}": tuple(tuple(2 if k == s else -1 if abs(k - s) == 1 else 0 for k in range(n - 1)) for s in range(n - 1))
        for n in (2, 3, 4)  # type A
    },
    "sp4": ((2, -1), (-2, 2)),
    "g2": ((2, -1), (-3, 2)),
    "virasoro": ((-1, 0),),  # [L0, L_m] = -m L_m, [c, L_m] = 0
    "oscillator": ((1, 0),),  # [d, a_m] = m a_m, [hbar, a_m] = 0
}


def root_functional(base: Algebra, root: Root) -> CartanVector:
    """root(h_k) for each Cartan basis vector, from ``CARTAN_MATRICES``; a
    ``RescaledLowering`` reads its base algebra's table."""
    rows = CARTAN_MATRICES[(base.base if isinstance(base, RescaledLowering) else base).name]
    return tuple(sum(Fraction(c * row[k]) for c, row in zip(root.coords, rows)) for k in range(base.cartan_rank))


class RescaledLowering(Algebra):
    """The same algebra with each lowering vector y_alpha replaced by
    scale(alpha) * y_alpha and each raising vector x_alpha by
    x_alpha / scale(alpha).

    Used to probe that determinant zero sets do not depend on the choice of
    lowering basis.  Cartan vectors are untouched and [x_alpha, y_alpha]
    keeps its value, so the coroots read from the bracket are the base
    algebra's, and the Shapovalov ascent raises along x_alpha / scale(alpha).
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
        if x.root is None:
            return Fraction(1)
        positive = x.root.is_positive
        s = Fraction(self._scale(x.root if positive else -x.root))
        if not s:
            raise InvalidAlgebraError("rescale factors must be nonzero")
        return 1 / s if positive else s

    def positive_roots(self, max_height: int | None = None) -> list[Root]:
        return self.base.positive_roots(max_height)

    def is_root(self, root: Root) -> bool:
        return self.base.is_root(root)

    def _structure(self, x: BaseElement, y: BaseElement) -> dict[BaseElement, Fraction]:
        # The factors are nonzero, so no coefficient becomes zero.
        raw = self.base.bracket(x, y)
        s = self._factor(x) * self._factor(y)
        return {z: s * c / self._factor(z) for z, c in raw.items()}

    def coroot_zeros(self, top: CartanVector, max_height: int) -> tuple[list[Root], int | None]:
        return self.base.coroot_zeros(top, max_height)


# Closed forms of the coroots, the oracle for the ones read from the bracket.
SP4_COROOTS = {Root((1, 0)): (1, 0), Root((0, 1)): (0, 1), Root((1, 1)): (1, 2), Root((2, 1)): (1, 1)}
# 2 alpha / (alpha, alpha) over the simple coroots, alpha1 short.
G2_COROOTS = {
    Root((1, 0)): (1, 0), Root((0, 1)): (0, 1), Root((1, 1)): (1, 3),
    Root((2, 1)): (2, 3), Root((3, 1)): (1, 1), Root((3, 2)): (1, 2),
}


def closed_form_coroots(base: Algebra) -> dict[Root, tuple]:
    """Every positive root of ``base`` (to height 12) with its coroot's
    closed form; a ``RescaledLowering`` has its base algebra's."""
    if isinstance(base, RescaledLowering):
        return closed_form_coroots(base.base)
    if base.name == "virasoro":
        return {Root((m,)): (2 * m, Fraction(m**3 - m, 12)) for m in range(1, 13)}
    if base.name == "oscillator":
        return {Root((m,)): (0, 1) for m in range(1, 13)}
    if base.name == "sp4":
        return SP4_COROOTS
    if base.name == "g2":
        return G2_COROOTS
    return {root: root.coords for root in base.positive_roots()}  # sl(n)


def coroot_element(h) -> dict:
    """The coroot with Cartan coordinates ``h`` as a sparse sum over the Cartan basis."""
    return {BaseElement.cartan(k): Fraction(c) for k, c in enumerate(h) if c}


def enumerate_monomials_per_factor(chi: Root, alg: TruncatedAlgebra) -> list:
    """The monomials of weight chi by a walk that appends one factor per
    step, never smaller than the last: the order oracle for
    ``enumerate_monomials``."""
    gens = lowering_generators(chi, alg)
    drops = [-g.elem.root for g in gens]
    out: list = []
    stack: list = []

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


def lin_sum(*parts) -> dict:
    """The sparse sum of s * v over the (scalar s, combination v) pairs,
    built with ``add_term``, so it holds no zero coefficient."""
    out: dict = {}
    for s, v in parts:
        for key, c in v.items():
            add_term(out, key, Fraction(s) * c)
    return out


def is_sparse(v) -> bool:
    """Whether every coefficient of ``v`` is a nonzero Fraction."""
    return all(type(c) is Fraction and c for c in v.values())


def rat(rng: random.Random, lo: int = -9, hi: int = 9, maxden: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, maxden))


def rand_levels(rng: random.Random, rank: int, nilp: int, **kw) -> list[list[Fraction]]:
    return [[rat(rng, **kw) for _ in range(rank)] for _ in range(nilp + 1)]


def rand_weight(rng: random.Random, base: Algebra, nilp: int, **kw) -> WeightFunctional:
    return WeightFunctional(rand_levels(rng, base.cartan_rank, nilp, **kw))


def lowering(alpha: Root, deg: int = 0) -> CurrentElement:
    """Lowering generator for the positive root alpha at t-degree deg."""
    return CurrentElement(BaseElement.of_root(-alpha), deg)


def raising(alpha: Root, deg: int = 0) -> CurrentElement:
    return CurrentElement(BaseElement.of_root(alpha), deg)


def cartan(k: int, deg: int = 0) -> CurrentElement:
    return CurrentElement(BaseElement.cartan(k), deg)


def rand_generator(rng: random.Random, alg: TruncatedAlgebra, max_root_height: int = 3) -> CurrentElement:
    base = alg.base
    deg = rng.randint(0, alg.nilp)
    kind = rng.choice(["lowering", "cartan", "raising"])
    if kind == "cartan":
        return cartan(rng.randrange(base.cartan_rank), deg)
    alpha = rng.choice(base.positive_roots(max_root_height))
    return lowering(alpha, deg) if kind == "lowering" else raising(alpha, deg)


def rand_vector(
    rng: random.Random,
    module: VermaModule,
    max_factors: int = 3,
    max_root_height: int = 2,
) -> dict:
    """Random small vector built by lowering words from the highest-weight vector."""
    base = module.alg.base
    roots = base.positive_roots(max_root_height)
    parts = []
    for _ in range(rng.randint(1, 2)):
        w = module.highest_weight_vector()
        for _ in range(rng.randint(0, max_factors)):
            w = module.act(
                lowering(rng.choice(roots), rng.randint(0, module.alg.nilp)), w
            )
        parts.append((rat(rng), w))
    return lin_sum(*parts)


def monomial_weight(mono: Monomial, generators: int) -> Root:
    """Total weight drop chi of a monomial: sum of the positive counterparts
    of its factors' roots.  The empty monomial has weight zero."""
    total = Root((0,) * generators)
    for x in mono:
        assert x.elem.root is not None
        total = total + (-x.elem.root)
    return total


def vector_weights(v: dict, generators: int) -> set[Root]:
    """The weight drops of the monomials a Verma-module vector involves."""
    return {monomial_weight(mono, generators) for mono in v.keys()}


def determinant_at(module: VermaModule, chi: Root) -> Fraction:
    """Exact determinant of the Shapovalov matrix at weight drop chi."""
    return linalg.determinant(shapovalov_matrix(module, chi).entries)


def reorder(matrix: ShapovalovMatrix, monomials: list) -> ShapovalovMatrix:
    """``matrix`` with rows and columns permuted into the order of
    ``monomials``, a reordering of its own monomials."""
    index = {m: k for k, m in enumerate(matrix.monomials)}
    order = [index[m] for m in monomials]
    assert sorted(order) == list(range(matrix.size))
    position = {b: k for k, b in enumerate(order)}
    rows = [{position[b]: s for b, s in matrix.rows[a].items()} for a in order]
    return ShapovalovMatrix(chi=matrix.chi, monomials=list(monomials), rows=rows)


def evaluate(weight: WeightFunctional, h, degree: int) -> Fraction:
    """The weight's value on h (x) t^degree, h given over the Cartan basis."""
    return sum((Fraction(c) * v for c, v in zip(h, weight.level(degree), strict=True)), Fraction(0))


def determinant_law(alg: TruncatedAlgebra, weight: WeightFunctional, chi: Root) -> Fraction:
    """The exact Shapovalov determinant at chi, from the product law

        det S_chi = (-1)^s * prod_{alpha > 0} prod_{r >= 1} (r * lambda_N(h_alpha))^((N+1) * P(chi - r alpha))

    with P(eta) the number of PBW monomials of weight eta (0 off the
    positive cone) and s the number of monomials whose degree reversal
    d -> N - d, re-sorted, sorts after them.
    """
    nilp, base = alg.nilp, alg.base
    monos = enumerate_monomials(chi, alg)

    def key(mono):
        return [factor_key(f) for f in mono]

    def reversal(mono):
        return sorted((CurrentElement(f.elem, nilp - f.degree) for f in mono), key=factor_key)

    det = Fraction(-1 if sum(key(reversal(m)) > key(m) for m in monos) % 2 else 1)
    for alpha in base.positive_roots(chi.height):
        value = evaluate(weight, base.coroot(alpha), nilp)
        r = 1
        while (r * alpha).fits_within(chi):
            det *= (r * value) ** ((nilp + 1) * len(enumerate_monomials(chi - r * alpha, alg)))
            r += 1
    return det


def bracket_ext(base: Algebra, x: dict, y: dict) -> dict:
    """Bilinear extension of the basis bracket to linear combinations."""
    return lin_sum(*((cx * cy, base.bracket(bx, by)) for bx, cx in x.items() for by, cy in y.items()))


def basis_sample(base: Algebra, mode_bound: int = 3) -> list[BaseElement]:
    """Every Cartan basis vector plus root vectors up to the height bound
    (the full basis for the finite built-ins when the bound covers them)."""
    out = [BaseElement.cartan(k) for k in range(base.cartan_rank)]
    for root in base.positive_roots(mode_bound):
        out.append(BaseElement.of_root(root))
        out.append(BaseElement.of_root(-root))
    return out
