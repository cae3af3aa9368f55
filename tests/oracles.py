"""Property checks the tests compare the engine against; no ``qhv`` suite
calls them."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import le
from typing import Sequence

from qhv import ideals
from qhv.group_actions import Derivation, Sl2Triple, TorusAction, apply
from qhv.polyring import Polynomial, VariableContext
from qhv.singular import CyclicQuotient


def _remainder(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Multivariate division of p by basis, written with the public
    ``Polynomial`` API only, so it shares no code with the engine's reducer."""
    ring = p.ring
    rem = ring.zero()
    while p:
        exp, coeff = p.leading_term()
        for g in basis:
            gexp, gcoeff = g.leading_term()
            if all(a <= b for a, b in zip(gexp, exp)):
                shift = tuple(b - a for a, b in zip(gexp, exp))
                p = p - ring.from_terms({shift: coeff / gcoeff}) * g
                break
        else:
            lead = ring.from_terms({exp: coeff})
            rem = rem + lead
            p = p - lead
    return rem


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(L/lt(f))·f/lc(f) − (L/lt(g))·g/lc(g), with L the lcm of the leading monomials."""
    (fexp, fcoeff), (gexp, gcoeff) = f.leading_term(), g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(fexp, gexp))
    fmul = f.ring.from_terms({tuple(a - b for a, b in zip(lcm, fexp)): 1 / fcoeff})
    gmul = g.ring.from_terms({tuple(a - b for a, b in zip(lcm, gexp)): 1 / gcoeff})
    return fmul * f - gmul * g


def is_groebner_basis(basis: Sequence[Polynomial]) -> bool:
    """Buchberger postcondition: every S-polynomial reduces to zero."""
    for i, f in enumerate(basis):
        for g in basis[i + 1 :]:
            if _remainder(_s_polynomial(f, g), basis):
                return False
    return True


def textbook_groebner_basis(generators: Sequence[Polynomial]) -> list[Polynomial]:
    """The reduced Groebner basis by Buchberger's algorithm with no criterion,
    sorted by leading monomial.

    The S-polynomial of every pair is divided by the basis with
    ``_remainder``; a nonzero remainder joins the basis and pairs with every
    element.  Then an element whose leading monomial a kept one divides is
    dropped, and each kept element is replaced by its remainder modulo the
    others, made monic (Cox, Little and O'Shea, section 2.7).
    """
    ring = generators[0].ring
    basis = [g for g in generators if g]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        r = _remainder(_s_polynomial(basis[i], basis[j]), basis)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    minimal: list[Polynomial] = []
    for g in sorted(basis, key=lambda g: ring.monomial_key(g.leading_term()[0])):
        lead = g.leading_term()[0]
        if not any(all(map(le, h.leading_term()[0], lead)) for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        r = _remainder(g, [h for h in minimal if h is not g])
        reduced.append(ring.from_terms({e: c / r.leading_term()[1] for e, c in r.terms.items()}))
    return reduced


def age(q: CyclicQuotient, j: int) -> Fraction:
    """Reid-Tai age of the j-th group element: (sum of (j * wi mod n)) / n."""
    return Fraction(sum((j * w) % q.n for w in q.weights), q.n)


def matches_terminal_form_by_unit_scan(q: CyclicQuotient) -> bool:
    """Brute-force equivalence with the pattern (1, a, -a) mod n.

    Scans every unit u mod n; the scaled multiset {u wi mod n} matches the
    pattern iff it contains 1 and the remaining two entries sum to 0 mod n.
    """
    n = q.n
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        scaled = [(u * w) % n for w in q.weights]
        for i in range(3):
            if scaled[i] == 1:
                rest = [scaled[m] for m in range(3) if m != i]
                if (rest[0] + rest[1]) % n == 0:
                    return True
    return False


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
    pairs = ((T.H, T.E, 2, T.E), (T.H, T.F, -2, T.F), (T.E, T.F, 1, T.H))
    for m in monomials_up_to_degree(ring, degree):
        for A, B, scale, want in pairs:
            lhs = apply(A, apply(B, m)) - apply(B, apply(A, m))
            if lhs != apply(want, m) * scale:
                return False
    return True


def leibniz_holds(D: Derivation, p: Polynomial, q: Polynomial) -> bool:
    return apply(D, p * q) == apply(D, p) * q + p * apply(D, q)


def scaling_identity_holds(p: Polynomial, A: TorusAction) -> bool:
    """Literal identity: substituting the scaling yields xi^d times p."""
    d = A.weight(p)
    if d is None:
        return False
    scale = A.scaling_map(p.ring)
    lifted = ideals.convert_context(p, scale.source)
    return scale.apply(lifted) == scale.source.monomial(1, {"xi": d}) * lifted
