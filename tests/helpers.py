"""Shared construction helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from tcla import (
    Algebra,
    BaseElement,
    CurrentElement,
    LinComb,
    Root,
    TruncatedAlgebra,
    VermaModule,
    WeightFunctional,
    enumerate_monomials,
    linalg,
    monomial_weight,
    shapovalov_matrix,
)
from tcla.weights import factor_key


def rat(rng: random.Random, lo: int = -9, hi: int = 9, maxden: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, maxden))


def rand_levels(rng: random.Random, rank: int, nilp: int, **kw) -> list[list[Fraction]]:
    return [[rat(rng, **kw) for _ in range(rank)] for _ in range(nilp + 1)]


def rand_weight(rng: random.Random, base: Algebra, nilp: int, **kw) -> WeightFunctional:
    return WeightFunctional(rand_levels(rng, base.cartan_rank, nilp, **kw))


def lowering(base: Algebra, alpha: Root, deg: int = 0) -> CurrentElement:
    """Lowering generator for the positive root alpha at t-degree deg."""
    return CurrentElement(base.root_element(-alpha), deg)


def raising(base: Algebra, alpha: Root, deg: int = 0) -> CurrentElement:
    return CurrentElement(base.root_element(alpha), deg)


def cartan(base: Algebra, k: int, deg: int = 0) -> CurrentElement:
    return CurrentElement(base.cartan_element(k), deg)


def rand_generator(rng: random.Random, alg: TruncatedAlgebra, max_root_height: int = 3) -> CurrentElement:
    base = alg.base
    deg = rng.randint(0, alg.nilp)
    kind = rng.choice(["lowering", "cartan", "raising"])
    if kind == "cartan":
        return cartan(base, rng.randrange(base.cartan_rank), deg)
    alpha = rng.choice(base.positive_roots(max_root_height))
    return lowering(base, alpha, deg) if kind == "lowering" else raising(base, alpha, deg)


def rand_vector(
    rng: random.Random,
    module: VermaModule,
    max_factors: int = 3,
    max_root_height: int = 2,
) -> LinComb:
    """Random small vector built by lowering words from the highest-weight vector."""
    base = module.alg.base
    roots = base.positive_roots(max_root_height)
    v = LinComb()
    for _ in range(rng.randint(1, 2)):
        w = module.highest_weight_vector()
        for _ in range(rng.randint(0, max_factors)):
            w = module.act(
                lowering(base, rng.choice(roots), rng.randint(0, module.alg.nilp)), w
            )
        v = v + rat(rng) * w
    return v


def vector_weights(v: LinComb, generators: int) -> set[Root]:
    """The weight drops of the monomials a Verma-module vector involves."""
    return {monomial_weight(mono, generators) for mono in v.keys()}


def determinant_at(module: VermaModule, chi: Root) -> Fraction:
    """Exact determinant of the Shapovalov matrix at weight drop chi."""
    return linalg.determinant(shapovalov_matrix(module, chi).entries)


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
        value = weight.evaluate(base.coroot(alpha), nilp)
        r = 1
        while (r * alpha).fits_within(chi):
            det *= (r * value) ** ((nilp + 1) * len(enumerate_monomials(chi - r * alpha, alg)))
            r += 1
    return det


def bracket_ext(base: Algebra, x: LinComb, y: LinComb) -> LinComb:
    """Bilinear extension of the basis bracket to linear combinations."""
    out = LinComb()
    for bx, cx in x.items():
        for by, cy in y.items():
            out = out + (cx * cy) * base.bracket(bx, by)
    return out


def basis_sample(base: Algebra, mode_bound: int = 3) -> list[BaseElement]:
    """Every Cartan basis vector plus root vectors up to the height bound
    (the full basis for the finite built-ins when the bound covers them)."""
    out = [BaseElement.cartan(k) for k in range(base.cartan_rank)]
    for root in base.positive_roots(mode_bound):
        out.append(BaseElement.of_root(root))
        out.append(BaseElement.of_root(-root))
    return out
