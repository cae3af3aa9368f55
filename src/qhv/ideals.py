"""Ideal arithmetic: Groebner bases, normal forms, membership, elimination.

The engine is a plain Buchberger implementation with the product and chain
criteria, full interreduction and monic normalization, so every basis it
returns is the reduced Groebner basis under the context's monomial order.
Inside the engine every polynomial is a primitive integer term map (coprime
coefficients, positive leading coefficient): reductions cross-multiply
instead of dividing, so no ``Fraction`` arithmetic runs in the reduction
loop.  ``Fraction`` appears only at the boundary, when the reduced basis is
made monic over Q and when :func:`normal_form` divides its integer remainder
by the accumulated multiplier.
Generators carrying Laurent monomial content on invertible variables are
unit-normalized before the computation; "equality up to units" of ideals is
decided by comparing the two reduced bases, which the same normalization
makes those of the unit-stripped generators.

Each engine call (one basis computation or one normal form) counts its
reduction steps against the fixed limit :data:`STEP_BUDGET` and raises
:class:`ResourceLimitExceeded` instead of truncating silently.  The limit is
a constant, so a call's step count alone decides whether it succeeds: a
cached basis always comes from a call that succeeded under the same limit,
and no result depends on what ran earlier in the process.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, sub
from typing import Iterable, Sequence

from .polyring import (
    Exponent,
    Polynomial,
    PolyError,
    ContextMismatch,
    VariableContext,
    derivative,
    map_exponents,
    strip_unit_content,
)

#: Reduction steps one engine call may take.  The largest call of ``qhv all``
#: takes about 2,400, so reaching the limit means a runaway computation.
STEP_BUDGET = 2_000_000


class ResourceLimitExceeded(RuntimeError):
    """A Groebner computation exceeded its step budget."""


class _Counter:
    __slots__ = ("steps", "limit", "ring")

    def __init__(self, ring: VariableContext):
        self.steps = 0
        self.limit = STEP_BUDGET
        self.ring = ring

    def tick(self, n: int = 1):
        self.steps += n
        if self.steps > self.limit:
            raise ResourceLimitExceeded(
                f"step budget of {self.limit} exceeded after {self.steps} steps "
                f"over the variables {', '.join(self.ring.names)}"
            )


class Ideal:
    """Finite generator list with a write-once cached reduced Groebner basis.

    ``_basis`` is the reduced basis as monic polynomials over Q, ``None``
    until computed; ``_reducers`` holds the same elements as primitive
    integer reducers, in the same order, for :func:`normal_form`.
    """

    __slots__ = ("ring", "generators", "_basis", "_reducers")

    def __init__(self, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise PolyError("an ideal needs at least one generator (possibly zero)")
        if len({g.ring for g in gens}) != 1:
            raise ContextMismatch("ideal generators live in different contexts")
        self.ring = gens[0].ring
        self.generators = gens
        self._basis: tuple[Polynomial, ...] | None = None
        self._reducers: list[_Reducer] = []

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._reducers = _buchberger(self.generators, self.ring, _Counter(self.ring))
            self._basis = tuple(
                Polynomial(self.ring, {e: Fraction(c, lc) for e, c in terms.items()})
                for _, lc, terms in self._reducers
            )
        return self._basis

    def __repr__(self):
        return f"Ideal([{', '.join(str(g) for g in self.generators)}])"


# -- division ---------------------------------------------------------------

#: A basis element as the engine holds it: leading monomial, leading
#: coefficient and term map, with coprime integer coefficients and lc > 0.
_Reducer = tuple[Exponent, int, dict[Exponent, int]]


def _divides(d: Exponent, m: Exponent) -> bool:
    return all(map(le, d, m))


def _integer_terms(terms: dict[Exponent, Fraction]) -> tuple[dict[Exponent, int], int]:
    """The term map times the lcm of its denominators, and that lcm."""
    denom = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (denom // c.denominator) for e, c in terms.items()}, denom


def _primitive(lead: Exponent, terms: dict[Exponent, int]) -> _Reducer:
    """The reducer of a nonzero integer term map with leading monomial ``lead``."""
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    if content != 1:
        terms = {e: c // content for e, c in terms.items()}
    return lead, terms[lead], terms


def _reduce_terms(
    terms: dict[Exponent, int],
    basis: Sequence[_Reducer],
    ring: VariableContext,
    counter: _Counter,
) -> tuple[dict[Exponent, int], int]:
    """Canonical remainder of an integer term map modulo integer reducers.

    Returns ``(remainder, scale)``: the remainder of ``scale * terms``, with
    integer coefficients, so the remainder over Q is ``remainder / scale``.
    The largest pending monomial is reduced first, by the first reducer whose
    leading monomial divides it.  To remove ``c*m`` with a reducer of leading
    coefficient ``lc``, the pending terms are multiplied by ``lc/d``, where
    ``d = gcd(c, lc)``, and ``(c/d)`` times the shifted reducer is
    subtracted; ``scale`` accumulates these factors.  A remainder term keeps
    the scale at which it was emitted and is brought to the final scale at
    the end.  Pending monomials sit in a min-heap under
    ``ring.descending_key``, each pushed when it enters ``work``; an entry
    whose monomial has cancelled is skipped when popped.  A reduction only
    adds monomials below the one it removes, so the remainder's terms come
    out in descending order.
    """
    dkey = ring.descending_key
    work = dict(terms)
    heap = [(dkey(e), e) for e in work]
    heapify(heap)
    scale = 1
    emitted: list[tuple[Exponent, int, int]] = []
    while heap:
        lead = heappop(heap)[1]
        coeff = work.pop(lead, None)
        if coeff is None:
            continue
        for lt, lc, gterms in basis:
            if _divides(lt, lead):
                shift = tuple(map(sub, lead, lt))
                counter.tick(len(gterms))
                d = gcd(coeff, lc)
                if d != lc:
                    factor = lc // d
                    work = {e: c * factor for e, c in work.items()}
                    scale *= factor
                coeff //= d
                for gexp, gc in gterms.items():
                    if gexp == lt:
                        continue
                    target = tuple(map(add, shift, gexp))
                    v = work.get(target)
                    if v is None:
                        work[target] = -coeff * gc
                        heappush(heap, (dkey(target), target))
                    else:
                        v -= coeff * gc
                        if v == 0:
                            del work[target]
                        else:
                            work[target] = v
                break
        else:
            emitted.append((lead, coeff, scale))
    return {e: c * (scale // s) for e, c, s in emitted}, scale


def _prepare(polys: Iterable[Polynomial]) -> list[_Reducer]:
    out = []
    for p in polys:
        if p.is_zero():
            continue
        q = strip_unit_content(p)
        lt, _ = q.leading_term()
        out.append(_primitive(lt, _integer_terms(q.terms)[0]))
    return out


def _spoly_terms(f: _Reducer, g: _Reducer, lcm: Exponent) -> dict[Exponent, int]:
    """Integer S-polynomial of two reducers whose leading monomials have ``lcm``.

    With ``d = gcd(lc_f, lc_g)`` it is ``(lc_g/d)·(lcm/lt_f)·f −
    (lc_f/d)·(lcm/lt_g)·g``, a positive multiple of the monic S-polynomial.
    """
    lf, cf, ft = f
    lg, cg, gt = g
    d = gcd(cf, cg)
    mf, mg = cg // d, cf // d
    sf = tuple(map(sub, lcm, lf))
    sg = tuple(map(sub, lcm, lg))
    out = {tuple(map(add, exp, sf)): mf * c for exp, c in ft.items()}
    for exp, c in gt.items():
        target = tuple(map(add, exp, sg))
        v = out.get(target, 0) - mg * c
        if v == 0:
            out.pop(target, None)
        else:
            out[target] = v
    return out


def _buchberger(
    generators: Sequence[Polynomial], ring: VariableContext, counter: _Counter
) -> list[_Reducer]:
    """Reducers of the reduced Groebner basis, sorted by leading monomial."""
    key = ring.monomial_key
    basis = _prepare(generators)
    if not basis:
        return []

    # Gebauer-Moeller style pair update: drop pairs by the product and chain
    # criteria as each new element enters the basis.  Live pairs map to their
    # lcm; the queue holds (key(lcm), pair) once per pair, and an entry whose
    # pair was dropped since is skipped when popped.
    pairs: dict[tuple[int, int], Exponent] = {}
    queue: list[tuple[tuple, tuple[int, int]]] = []

    def update(new_index: int):
        lm_new = basis[new_index][0]
        new_lcms = [tuple(map(max, basis[i][0], lm_new)) for i in range(new_index)]
        for (i, j), l_ij in list(pairs.items()):
            if _divides(lm_new, l_ij) and new_lcms[i] != l_ij and new_lcms[j] != l_ij:
                del pairs[i, j]
        fresh: dict[Exponent, list[int]] = {}
        for i, l in enumerate(new_lcms):
            fresh.setdefault(l, []).append(i)
        minimal: list[Exponent] = []
        for l in sorted(fresh, key=key):
            if all(not _divides(m, l) for m in minimal):
                minimal.append(l)
        for l in minimal:
            if any(l == tuple(map(add, basis[i][0], lm_new)) for i in fresh[l]):
                continue  # product criterion
            pair = (min(fresh[l]), new_index)
            pairs[pair] = l
            heappush(queue, (key(l), pair))

    for idx in range(len(basis)):
        update(idx)

    while queue:
        pair = heappop(queue)[1]
        lcm = pairs.pop(pair, None)
        if lcm is None:
            continue
        counter.tick()
        i, j = pair
        s = _spoly_terms(basis[i], basis[j], lcm)
        rem = _reduce_terms(s, basis, ring, counter)[0]
        if rem:
            basis.append(_primitive(next(iter(rem)), rem))
            update(len(basis) - 1)

    # minimalize: keep elements whose leading monomial no other kept one divides
    basis.sort(key=lambda item: key(item[0]))
    minimal_basis: list[_Reducer] = []
    for item in basis:
        if all(not _divides(k[0], item[0]) for k in minimal_basis):
            minimal_basis.append(item)

    # interreduce tails for the unique reduced basis
    reduced: list[_Reducer] = []
    for idx, (lt, _, terms) in enumerate(minimal_basis):
        others = minimal_basis[:idx] + minimal_basis[idx + 1 :]
        reduced.append(_primitive(lt, _reduce_terms(terms, others, ring, counter)[0]))
    reduced.sort(key=lambda item: key(item[0]))
    return reduced


# -- public operations --------------------------------------------------------


def normal_form(p: Polynomial, I: Ideal) -> Polynomial:
    """Unique remainder of p modulo the reduced basis of I."""
    if p.ring != I.ring:
        raise ContextMismatch("polynomial and ideal contexts differ")
    I.groebner_basis()
    terms, denom = _integer_terms(p.terms)
    rem, scale = _reduce_terms(terms, I._reducers, I.ring, _Counter(I.ring))
    scale *= denom
    return Polynomial(I.ring, {e: Fraction(c, scale) for e, c in rem.items()})


def primitive_integer_form(p: Polynomial) -> Polynomial:
    """Rescale to integer coefficients with content 1 and positive leading sign."""
    if p.is_zero():
        return p
    _, _, terms = _primitive(p.leading_term()[0], _integer_terms(p.terms)[0])
    return Polynomial(p.ring, terms)


def contains(I: Ideal, p: Polynomial) -> bool:
    return normal_form(p, I).is_zero()


def equal_up_to_units(I: Ideal, J: Ideal) -> bool:
    """Ideal equality after clearing unit monomials from the generators.

    The engine divides each generator by its Laurent monomial content in the
    invertible variables before computing, and the reduced Groebner basis of
    an ideal is unique, so the two ideals are equal exactly when their
    reduced bases are.
    """
    if I.ring != J.ring:
        raise ContextMismatch("ideals live in different contexts")
    return I.groebner_basis() == J.groebner_basis()


def convert_context(p: Polynomial, target: VariableContext) -> Polynomial:
    """Rewrite p in a context that contains all variables in its support.

    The renaming is the monomial map sending each variable to its namesake,
    applied on exponents.
    """
    images = [
        (i, None, ((target.index(name), 1),))  # index raises for a missing variable
        for i, name in enumerate(p.ring.names)
        if name in target.names or any(exp[i] for exp in p.terms)
    ]
    return Polynomial(target, map_exponents(p.terms, images, len(target.names)))


def eliminate(I: Ideal, drop: Iterable[str]) -> Ideal:
    """Generators of the contraction of I to the subring without ``drop``.

    Computes a Groebner basis under a block order with the dropped variables
    in the leading block and keeps the elements free of them.  The result
    lives in the smaller context, ordered grevlex.
    """
    drop_set = set(drop)
    unknown = drop_set - set(I.ring.names)
    if unknown:
        raise PolyError(f"cannot eliminate unknown variables {sorted(unknown)}")
    if not drop_set:
        return I
    block = [n for n in I.ring.names if n in drop_set]
    rest = [n for n in I.ring.names if n not in drop_set]
    elim_ctx = VariableContext(tuple(block + rest), I.ring.invertible, len(block))
    lifted = Ideal([convert_context(g, elim_ctx) for g in I.generators])
    basis = lifted.groebner_basis()
    nb = len(block)
    target = VariableContext(tuple(rest), I.ring.invertible & set(rest))
    kept = [
        convert_context(g, target)
        for g in basis
        if all(all(e == 0 for e in exp[:nb]) for exp in g.terms)
    ]
    if not kept:
        kept = [target.zero()]
    return Ideal(kept)


def jacobian_ideal(f: Polynomial, variables: Sequence[str]) -> Ideal:
    """Singular-locus ideal of a hypersurface V(f) on an affine chart.

    The ideal is generated by the equation f and its partials in ``variables``.
    """
    return Ideal([f] + [derivative(f, v) for v in variables])


def gauss_jordan(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form of an exact matrix, pivots taken column by column.

    The result is unique, so it is a canonical form of the row space; zero
    rows come last.
    """
    rows = [row[:] for row in rows]
    pivot_row = 0
    for j in range(len(rows[0]) if rows else 0):
        src = next((r for r in range(pivot_row, len(rows)) if rows[r][j] != 0), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        inv = Fraction(1) / rows[pivot_row][j]
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][j] != 0:
                factor = rows[r][j]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return rows


def contains_one(I: Ideal) -> bool:
    """True when I is the unit ideal (the chart is smooth for Jacobian ideals)."""
    return contains(I, I.ring.one())


def minimal_generators(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Greedy minimal generating subset, scanning by ascending total degree.

    A candidate already contained in the ideal of the kept ones is dropped.
    Deterministic: ties are broken by the context's monomial order on
    leading terms.
    """
    ring = polys[0].ring
    ordered = sorted(
        (p for p in polys if not p.is_zero()),
        key=lambda p: (p.total_degree(), ring.monomial_key(p.leading_term()[0])),
    )
    kept: list[Polynomial] = []
    for p in ordered:
        if kept and contains(Ideal(kept), p):
            continue
        kept.append(p)
    return kept
