"""Property checks the tests compare the engine against; no ``qhv`` suite
calls them."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from qhv import ideals
from qhv.group_actions import Derivation, Sl2Triple, TorusAction, _scale, apply
from qhv.ideals import _Counter, _reduce_terms, _spoly_terms
from qhv.polyring import NotHomogeneous, Polynomial, VariableContext


def is_groebner_basis(basis: Sequence[Polynomial]) -> bool:
    """Buchberger postcondition: every S-polynomial reduces to zero."""
    if not basis:
        return True
    ring = basis[0].ring
    prepared = [(g.monic().leading_term()[0], dict(g.monic().terms)) for g in basis]
    counter = _Counter()
    for i in range(len(prepared)):
        for j in range(i + 1, len(prepared)):
            s = _spoly_terms(prepared[i], prepared[j])
            if _reduce_terms(s, prepared, ring, counter):
                return False
    return True


def monomials_up_to_degree(ring: VariableContext, degree: int) -> list[Polynomial]:
    """All monomials of total degree <= degree with nonnegative exponents."""
    n = len(ring.names)
    out = []
    for total in range(degree + 1):
        for cuts in itertools.combinations_with_replacement(range(n), total):
            exp = [0] * n
            for i in cuts:
                exp[i] += 1
            out.append(Polynomial(ring, {tuple(exp): Fraction(1)}))
    return out


def brackets_hold_on_monomials(T: Sl2Triple, degree: int = 4) -> bool:
    """Check the three bracket relations termwise on all monomials up to ``degree``."""
    ring = T.E.ring
    pairs = (
        (T.H, T.E, _scale(T.E, 2)),
        (T.H, T.F, _scale(T.F, -2)),
        (T.E, T.F, T.H),
    )
    for m in monomials_up_to_degree(ring, degree):
        for A, B, want in pairs:
            lhs = apply(A, apply(B, m)) - apply(B, apply(A, m))
            if lhs != apply(want, m):
                return False
    return True


def leibniz_holds(D: Derivation, p: Polynomial, q: Polynomial) -> bool:
    return apply(D, p * q) == apply(D, p) * q + p * apply(D, q)


def scaling_identity_holds(p: Polynomial, A: TorusAction, xi: str = "xi") -> bool:
    """Literal identity: substituting the scaling yields xi^d times p."""
    try:
        d = A.weight(p)
    except NotHomogeneous:
        return False
    scale = A.scaling_map(p.ring, xi)
    lifted = ideals.convert_context(p, scale.source)
    return scale.apply(lifted) == scale.source.monomial(1, {xi: d}) * lifted
