"""Seeded random polynomial generators shared by the property tests."""

from __future__ import annotations

import random
from fractions import Fraction

from qhv.polyring import Polynomial, VariableContext


def random_polynomial(
    rng: random.Random,
    ring: VariableContext,
    max_degree: int = 3,
    max_terms: int = 5,
    allow_laurent: bool = False,
) -> Polynomial:
    n = len(ring.names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(n)] += 1
        if allow_laurent:
            for i, name in enumerate(ring.names):
                if name in ring.invertible and rng.random() < 0.3:
                    exp[i] -= rng.randint(1, 2)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff:
            terms[tuple(exp)] = coeff
    poly = Polynomial(ring, terms)
    return poly if not poly.is_zero() else ring.one()


def random_ring(rng: random.Random, max_vars: int = 4) -> VariableContext:
    names = ("x", "y", "z", "w")[: rng.randint(2, max_vars)]
    return VariableContext(names)


def random_block_ring(rng: random.Random, max_vars: int = 4) -> VariableContext:
    """A ring under an elimination order (elim >= 1) with one invertible variable."""
    names = ("x", "y", "z", "w")[: rng.randint(2, max_vars)]
    return VariableContext(names, {rng.choice(names)}, rng.randint(1, len(names) - 1))
