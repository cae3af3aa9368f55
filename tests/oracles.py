"""Property checks the tests compare the engine against; no ``qhv`` suite
calls them."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import le
from typing import Sequence

from qhv import ideals
from qhv.degenerations import derive_f4_ideal, quadric_generator
from qhv.group_actions import (
    EMBEDDING_COMPONENTS,
    F4_CHART_RING,
    QUADRIC_CHART_RING,
    QUADRIC_INVARIANT,
    Derivation,
    Sl2Triple,
    TorusAction,
    apply,
)
from qhv.polyring import Polynomial, SubstitutionMap, VariableContext, convert_context
from qhv.ruled import FIBERS, HIRZEBRUCH, DivisorClass, Lattice
from qhv.singular import CyclicQuotient


def ascending_grevlex(exp: tuple[int, ...]) -> tuple:
    """Grevlex as an ascending sort key, the larger monomial the larger key:
    total degree first, then the smaller exponent of the last variable where
    the two differ.  Written out here, so no oracle borrows the order of the
    code it checks."""
    return (sum(exp), [-e for e in reversed(exp)])


def _leading_term(p: Polynomial, key=None) -> tuple[tuple[int, ...], Fraction]:
    """The largest term of p under the sort key ``key``, by default grevlex."""
    exp = max(p.terms, key=key or ascending_grevlex)
    return exp, p.terms[exp]


def _remainder(p: Polynomial, basis: Sequence[Polynomial], key=None) -> Polynomial:
    """Multivariate division of p by basis under the monomial sort key
    ``key`` (by default grevlex), written with the public
    ``Polynomial`` API only, so it shares no code with the engine's reducer."""
    ring = p.ring
    rem = ring.zero()
    while p:
        exp, coeff = _leading_term(p, key)
        for g in basis:
            gexp, gcoeff = _leading_term(g, key)
            if all(a <= b for a, b in zip(gexp, exp)):
                shift = tuple(b - a for a, b in zip(gexp, exp))
                p = p - ring.from_terms({shift: Fraction(coeff) / gcoeff}) * g
                break
        else:
            lead = ring.from_terms({exp: coeff})
            rem = rem + lead
            p = p - lead
    return rem


def _s_polynomial(f: Polynomial, g: Polynomial, key=None) -> Polynomial:
    """(L/lt(f))·f/lc(f) − (L/lt(g))·g/lc(g), with L the lcm of the leading monomials."""
    (fexp, fcoeff), (gexp, gcoeff) = _leading_term(f, key), _leading_term(g, key)
    lcm = tuple(max(a, b) for a, b in zip(fexp, gexp))
    fmul = f.ring.from_terms({tuple(a - b for a, b in zip(lcm, fexp)): Fraction(1) / fcoeff})
    gmul = g.ring.from_terms({tuple(a - b for a, b in zip(lcm, gexp)): Fraction(1) / gcoeff})
    return fmul * f - gmul * g


def is_groebner_basis(basis: Sequence[Polynomial]) -> bool:
    """Buchberger postcondition: every S-polynomial reduces to zero."""
    for i, f in enumerate(basis):
        for g in basis[i + 1 :]:
            if _remainder(_s_polynomial(f, g), basis):
                return False
    return True


def textbook_groebner_basis(generators: Sequence[Polynomial], key=None) -> list[Polynomial]:
    """The reduced Groebner basis by Buchberger's algorithm with no criterion,
    under the monomial sort key ``key`` (by default grevlex), sorted
    by leading monomial.

    The S-polynomial of every pair is divided by the basis with
    ``_remainder``; a nonzero remainder joins the basis and pairs with every
    element.  Then an element whose leading monomial a kept one divides is
    dropped, and each kept element is replaced by its remainder modulo the
    others, made monic (Cox, Little and O'Shea, section 2.7).
    """
    ring = generators[0].ring
    key = key or ascending_grevlex
    basis = [g for g in generators if g]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        r = _remainder(_s_polynomial(basis[i], basis[j], key), basis, key)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    minimal: list[Polynomial] = []
    for g in sorted(basis, key=lambda g: key(_leading_term(g, key)[0])):
        lead = _leading_term(g, key)[0]
        if not any(all(map(le, _leading_term(h, key)[0], lead)) for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        r = _remainder(g, [h for h in minimal if h is not g], key)
        lc = _leading_term(r, key)[1]
        reduced.append(ring.from_terms({e: Fraction(c) / lc for e, c in r.terms.items()}))
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


class LatticeMismatch(ValueError):
    """Operands live in different intersection lattices."""


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Value of the lattice intersection form on two classes of one lattice.

    The package reads the form on coordinate tuples (``Lattice.form``); this
    is the same form on whole classes, for stating facts about them.
    """
    if d1.lattice != d2.lattice:
        raise LatticeMismatch("classes live in different lattices")
    return d1.lattice.form(d1.coords, d2.coords)


def _box(lat: Lattice, bound: int):
    """Every class with 0 <= p, q <= bound (a, b on F_n) and |mi| <= bound."""
    span = range(bound + 1)
    return itertools.product(span, span, *[range(-bound, bound + 1)] * (lat.rank - 2))


def irreducible_curve_classes_by_box(lat: Lattice, bound: int) -> list[DivisorClass]:
    """Irreducible curve classes by one pass over the whole box.

    Hirzebruch: C0, F and the classes a C0 + b F with a >= 1, b >= n a that
    move.  Quadric blow-ups: the (-1)-classes of the box and the moving
    classes meeting each of them nonnegatively.  A class moves when its
    square is positive, or 0 with coprime coordinates.
    """
    form = lat.form

    def moves(d, square):
        return square > 0 or square == 0 and gcd(*d) == 1

    if lat.kind == HIRZEBRUCH:
        n = lat.param
        return [
            DivisorClass(lat, d)
            for d in _box(lat, bound)
            if d in ((1, 0), (0, 1)) or d[0] >= 1 and d[1] >= n * d[0] and moves(d, form(d, d))
        ]
    box = list(_box(lat, bound))
    exceptional = [d for d in box if form(d, d) == -1 and form(d, lat.minus_k) == 1]
    nef = [
        d for d in box
        if moves(d, form(d, d)) and all(form(d, e) >= 0 for e in exceptional)
    ]
    return [DivisorClass(lat, d) for d in sorted(exceptional + nef)]


def homology_cases_by_intersect(fiber: str, bound: int) -> dict:
    """The homology-lemma report, each product taken by ``intersect``.

    Per trace, the witness is the box curve class whose product with the
    trace is <= 0, preferring product 0, then small coordinates.
    """
    lat = FIBERS[fiber]
    candidates = irreducible_curve_classes_by_box(lat, bound)
    if fiber == "blowup1":
        e1, c1, c3 = (DivisorClass(lat, c) for c in ((0, 0, -1), (1, 0, 1), (0, 1, 1)))
        traces = [(c1, e1), (e1, c3), (e1,)]
    else:
        traces = [(d,) for d in candidates if intersect(d, d) == -1]
    cases = []
    for trace in traces:
        best = None
        for cand in candidates:
            value = sum(intersect(t, cand) for t in trace)
            if value <= 0 and (best is None or (-value, cand.coords) < (-best[1], best[0].coords)):
                best = (cand, value)
        cases.append(
            {
                "trace": [str(t) for t in trace],
                "witness": None if best is None else str(best[0]),
                "product": None if best is None else best[1],
                "found": best is not None,
            }
        )
    passed = all(case["found"] for case in cases)
    return {"fiber": fiber, "bound": bound, "passed": passed, "cases": cases}


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
    lifted = convert_context(p, scale.source)
    return scale.apply(lifted) == scale.source.monomial(1, {"xi": d}) * lifted


# -- the F4 checks twist by twist ------------------------------------------------


def _embedding_map(g_image: Polynomial) -> SubstitutionMap:
    """a -> x^2, .., f -> z^2 into the quadric chart ring, l fixed, g -> g_image."""
    ring = QUADRIC_CHART_RING
    images = {n: convert_context(p, ring) for n, p in EMBEDDING_COMPONENTS.items()}
    images.update(g=g_image, l=ring.var("l"))
    return SubstitutionMap(F4_CHART_RING, ring, images)


def embedding_substitution(k: int) -> SubstitutionMap:
    """a -> x^2, .., f -> z^2, g -> l^-k (4xz - y^2): the chart parametrization."""
    ring = QUADRIC_CHART_RING
    return _embedding_map(
        ring.monomial(1, {"l": -k}) * convert_context(QUADRIC_INVARIANT, ring)
    )


def quotient_substitution() -> SubstitutionMap:
    """The double-cover pullback a -> x^2, .., f -> z^2, g -> w^2."""
    return _embedding_map(QUADRIC_CHART_RING.monomial(1, {"w": 2}))


def hand_recorded_f4_rows(k: int, variant: bool = False) -> list[Polynomial]:
    """The hand-recorded rows at twist k, written in the chart ring with
    t = l^k g; the variant has -6ac in place of -6ae in the row at index 4."""
    a, b, c, e, f = (F4_CHART_RING.var(n) for n in "abcef")
    t = F4_CHART_RING.monomial(1, {"l": k, "g": 1})
    return [
        3 * e * e - 8 * c * f + 4 * f * t,
        c * e - 6 * b * f + e * t,
        3 * b * e - 48 * a * f + 2 * c * t + 2 * t * t,
        c * c - 36 * a * f + 2 * c * t + t * t,
        b * c - 6 * a * (c if variant else e) + b * t,
        3 * b * b - 8 * a * c + 4 * a * t,
    ]


def adjudicate_f4_per_twist(k: int) -> tuple[bool, list[dict]]:
    """The adjudication's report, each verdict decided by the engine at twist k."""
    derived = derive_f4_ideal(k)
    reference = hand_recorded_f4_rows(k)

    def rows_for(source: str, polys: Sequence[Polynomial], ideal: ideals.Ideal) -> list[dict]:
        return [
            {"source": source, "index": i, "generator": str(p), "member": ideals.contains(ideal, p)}
            for i, p in enumerate(polys)
        ]

    rows = rows_for("reference", reference, derived)
    if k == 1:
        rows += rows_for("variant", hand_recorded_f4_rows(1, variant=True), derived)
    rows += rows_for("derived", derived.generators, ideals.Ideal(reference))
    matched = all(r["member"] for r in rows if r["source"] in ("reference", "derived"))
    return matched, rows


def verify_embedding_per_twist(k: int) -> tuple[bool, list[dict]]:
    """The embedding check's report, each generator substituted at twist k."""
    phi = embedding_substitution(k)
    witnesses = []
    for gen in derive_f4_ideal(k).generators:
        value = phi.apply(gen)
        witnesses.append({"generator": str(gen), "image": str(value), "zero": value.is_zero()})
    return all(w["zero"] for w in witnesses), witnesses


def verify_quotient_per_twist(k: int) -> tuple[bool, list[dict]]:
    """The quotient check's report, each pullback formed and decided at twist k."""
    i = QUADRIC_CHART_RING.index("w")
    quad = ideals.Ideal([quadric_generator(k)])
    sigma = quotient_substitution()
    witnesses = []
    for gen in derive_f4_ideal(k).generators:
        pullback = sigma.apply(gen)
        witnesses.append(
            {
                "generator": str(gen),
                "pullback": str(pullback),
                "in_quadric_ideal": ideals.contains(quad, pullback),
                "sign_invariant": all(e[i] % 2 == 0 for e in pullback.terms),
            }
        )
    passed = all(w["in_quadric_ideal"] and w["sign_invariant"] for w in witnesses)
    return passed, witnesses
