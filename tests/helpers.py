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
    monomial_weight,
)


def rat(rng: random.Random, lo: int = -9, hi: int = 9, maxden: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, maxden))


def rand_levels(rng: random.Random, rank: int, nilp: int, **kw) -> list[list[Fraction]]:
    return [[rat(rng, **kw) for _ in range(rank)] for _ in range(nilp + 1)]


def rand_weight(rng: random.Random, base: Algebra, nilp: int, **kw) -> WeightFunctional:
    return WeightFunctional(rand_levels(rng, base.cartan_rank, nilp, **kw))


def lowering(base: Algebra, alpha: Root, deg: int = 0, index: int = 0) -> CurrentElement:
    """Lowering generator for the positive root alpha at t-degree deg."""
    return CurrentElement(base.root_element(-alpha, index), deg)


def raising(base: Algebra, alpha: Root, deg: int = 0, index: int = 0) -> CurrentElement:
    return CurrentElement(base.root_element(alpha, index), deg)


def cartan(base: Algebra, k: int, deg: int = 0) -> CurrentElement:
    return CurrentElement(base.cartan_element(k), deg)


def rand_generator(rng: random.Random, alg: TruncatedAlgebra, max_root_height: int = 3) -> CurrentElement:
    base = alg.base
    deg = rng.randint(0, alg.nilp)
    kind = rng.choice(["lowering", "cartan", "raising"])
    if kind == "cartan":
        return cartan(base, rng.randrange(base.cartan_rank), deg)
    roots = [r for r, _ in base.positive_roots(max_root_height)]
    alpha = rng.choice(roots)
    return lowering(base, alpha, deg) if kind == "lowering" else raising(base, alpha, deg)


def rand_vector(
    rng: random.Random,
    module: VermaModule,
    max_factors: int = 3,
    max_root_height: int = 2,
) -> LinComb:
    """Random small vector built by lowering words from the highest-weight vector."""
    base = module.alg.base
    roots = [r for r, _ in base.positive_roots(max_root_height)]
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
    for root, dim in base.positive_roots(mode_bound):
        for s in range(dim):
            out.append(BaseElement.of_root(root, s))
            out.append(BaseElement.of_root(-root, s))
    return out
