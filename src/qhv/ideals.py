"""Ideal arithmetic: Groebner bases, normal forms, membership, elimination.

The engine is a signature-based Buchberger loop (Gao, Volny and Wang, "A new
framework for computing Groebner bases", Math. Comp. 85, 2016; Roune and
Stillman, "Practical Groebner basis computation", ISSAC 2012): its syzygy
and rewriter criteria skip the S-pairs that would reduce to zero.  Full
interreduction and monic normalization follow, so every basis it returns is
the reduced Groebner basis under the engine's order (:class:`_Packing`).
Inside the engine every polynomial is a primitive integer term map (coprime
coefficients, positive leading coefficient): reductions cross-multiply
instead of dividing, so no ``Fraction`` arithmetic runs in the reduction
loop.  ``Fraction`` appears only at the boundary, when the reduced basis is
made monic over Q and when :func:`normal_form` divides its integer remainder
by the accumulated multiplier, and there only for a quotient that is not an
integer: an integral coefficient stays an ``int``.
The engine computes in the polynomial ring: an invertible variable counts
as an ordinary one, and a negative exponent in a generator or a
:func:`normal_form` input raises :class:`PolyError`.  Over a ring with an
invertible ``l``, an answer about the polynomial ideal I is the answer about
the Laurent ideal I·Q[l^±1] exactly when ``I : l^∞ = I`` (Cox, Little and
O'Shea, section 4.4).  The chart ideals of :mod:`qhv.degenerations` are so
saturated: a quadric chart ideal is principal and ``l`` does not divide its
generator, and ``tests/test_degenerations.py`` checks both families at the
twists of the benchmark's charts workload.

Inside the engine a monomial is one integer, its code (:class:`_Packing`):
the exponents sit in fixed fields of ``FIELD_BITS`` bits, so a monomial
product is an integer sum, comparing codes compares monomials under the
engine's order, and a divisor test is one subtraction and one mask (Monagan
and Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  A signature is an integer in the same way
(:func:`_buchberger`).  Exponent tuples appear only at the boundary: each
input term is encoded once, and the monic basis decodes each distinct code
of the basis once, as :func:`normal_form` decodes its remainder.  The S-pair
loop forms the lcm of two leading monomials, which is not linear in the
exponents, as the fieldwise maximum of their divisor-test bits.
Within one Buchberger run the reduction remembers, for each monomial it has
reduced, the index below which no basis element divides it; the basis only
grows by appending, so the scan for a reducer resumes there and picks the
same reducer as a scan from the start.

Each engine run counts its reduction steps in its own :class:`_Packing`,
against the fixed limit :data:`STEP_BUDGET`, and raises
:class:`ResourceLimitExceeded` instead of truncating silently; a normal
form computes its ideal's basis and then reduces, in one run each.  The
limit is a constant and an :class:`Ideal` keeps nothing between calls, so
a run's step count alone decides whether it succeeds, and no result
depends on what ran earlier in the process.  An exponent of ``2**31`` or
more, given or reached in a monomial or a signature, raises the same error,
naming the field width, instead of wrapping into the next field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter, lshift
from typing import Iterable, Sequence

from .polyring import (
    Coefficient,
    Exponent,
    Polynomial,
    PolyError,
    ContextMismatch,
    VariableContext,
    convert_context,
    derivative,
    grevlex,
)

#: Reduction steps one engine call may take.  The largest call of ``qhv all``
#: takes 384, so reaching the limit means a runaway computation.
STEP_BUDGET = 2_000_000


class ResourceLimitExceeded(RuntimeError):
    """A Groebner computation exceeded its step budget or the exponent field width."""


# -- monomial codes -----------------------------------------------------------

#: Bits of one exponent field in a monomial code.  The top bit of each field
#: is the guard of the divisor test, so every exponent stays below
#: ``2**(FIELD_BITS - 1)``.
FIELD_BITS = 32
_EXP_LIMIT = 1 << (FIELD_BITS - 1)


class _Packing:
    """The monomial codes of one ring (each exponent vector as one integer),
    and the step count of the one engine call that builds it.

    ``nb = 0`` orders codes grevlex: a larger code is a larger monomial, so
    it has the smaller :func:`~qhv.polyring.grevlex` key.  Only
    :func:`eliminate` passes nb > 0, the elimination order of the first nb
    variables: the degree in them decides first, then grevlex, so a monomial
    involving one of them beats every monomial that avoids them (Cox, Little
    and O'Shea, *Ideals, Varieties, and Algorithms*, section 3.1).

    With B = FIELD_BITS and P(e) = sum of e_i·2^(B·i), the code of e on n
    variables is w(e)·2^S + deg(e)·2^(B·n) − P(e), where w(e) is the degree
    of e in the first nb variables.  The grevlex part deg(e)·2^(B·n) − P(e)
    of a sum of two admissible monomials lies in [0, n·2^(B·(n+1))), so with
    S = B·(n+1) + bitlen(n) the weight w decides first; a grevlex code
    (nb = 0) is the grevlex part alone.  A code is linear in e, so a
    monomial product is an integer sum; it is injective, and integer order
    is the order above.  ``bits(code)`` is ``-code & mask``, which is P(e);
    ``code(bits)`` inverts it, and ``encode`` range-checks e and calls it.
    A monomial d divides m exactly when ``(bits(m) − bits(d)) & guard`` is 0,
    ``guard`` holding the top bit of each field: a field of m below that of
    d borrows into its own guard bit.
    """

    __slots__ = ("names", "nb", "pos", "shift", "mask", "guard", "steps")

    def __init__(self, ring: VariableContext, nb: int = 0):
        n = len(ring.names)
        self.names = ring.names
        self.nb = nb
        self.pos = [FIELD_BITS * i for i in range(n)]
        self.shift = FIELD_BITS * (n + 1) + n.bit_length()
        self.mask = (1 << FIELD_BITS * n) - 1
        self.guard = sum(1 << (p + FIELD_BITS - 1) for p in self.pos)
        self.steps = 0

    def tick(self, n: int = 1):
        self.steps += n
        if self.steps > STEP_BUDGET:
            raise ResourceLimitExceeded(
                f"step budget of {STEP_BUDGET} exceeded after {self.steps} steps "
                f"over the variables {', '.join(self.names)}"
            )

    def _too_wide(self, name: str, e: int) -> ResourceLimitExceeded:
        return ResourceLimitExceeded(
            f"exponent {e} of {name} does not fit the {FIELD_BITS}-bit exponent field "
            f"(at most {_EXP_LIMIT - 1})"
        )

    def encode(self, exp: Exponent) -> int:
        if max(exp, default=0) >= _EXP_LIMIT:
            raise self._too_wide(*max(zip(self.names, exp), key=itemgetter(1)))
        return self.code(sum(map(lshift, exp, self.pos)))

    def code(self, bits: int) -> int:
        """The code of the monomial e with P(e) = ``bits``; no field is range-checked."""
        exp = [(bits >> pos) & (_EXP_LIMIT - 1) for pos in self.pos]
        return (sum(exp[: self.nb]) << self.shift) + (sum(exp) << FIELD_BITS * len(exp)) - bits

    def bits(self, code: int) -> int:
        """P of the monomial with this code, the fields of the divisor test."""
        return -code & self.mask

    def check(self, bits: int):
        """Raise when a field of ``bits`` holds an exponent that does not fit."""
        if bits & self.guard:
            field = (bits & self.guard).bit_length() - FIELD_BITS
            name = self.names[self.pos.index(field)]
            raise self._too_wide(name, (bits >> field) & ((1 << FIELD_BITS) - 1))

    def decode(self, code: int) -> Exponent:
        bits = self.bits(code)
        self.check(bits)
        return tuple((bits >> pos) & (_EXP_LIMIT - 1) for pos in self.pos)

    def monic(
        self, reducers: Sequence[_Reducer], start: int = 0
    ) -> list[dict[Exponent, Coefficient]]:
        """The reducers' monic term maps over Q, on the variables from ``start`` on.

        A basis shares most of its monomials among its elements, so each
        code is decoded once for the whole basis; a coefficient c/lc stays an
        ``int`` when lc divides c.
        """
        exps: dict[int, Exponent] = {}
        maps = []
        for lead, _, lc, tail in reducers:
            terms = {}
            for m, c in ((lead, lc), *tail):
                exp = exps.get(m)
                if exp is None:
                    exp = exps[m] = self.decode(m)[start:]
                terms[exp] = _quotient(c, lc)
            maps.append(terms)
        return maps


class Ideal:
    """Finite generator list, and nothing else: :meth:`groebner_basis` and
    :func:`normal_form` run the engine on the generators at each call."""

    __slots__ = ("ring", "generators")

    def __init__(self, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise PolyError("an ideal needs at least one generator (possibly zero)")
        if len({g.ring for g in gens}) != 1:
            raise ContextMismatch("ideal generators live in different contexts")
        self.ring = gens[0].ring
        self.generators = gens

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis as monic polynomials over Q."""
        pk = _Packing(self.ring)
        return tuple(Polynomial(self.ring, t) for t in pk.monic(_buchberger(self.generators, pk)))

    def __repr__(self):
        return f"Ideal([{', '.join(str(g) for g in self.generators)}])"


# -- division ---------------------------------------------------------------

#: A basis element as the engine holds it: the code of its leading monomial,
#: that monomial's divisor-test bits, its leading coefficient and its other
#: terms as (code, coefficient) pairs, with coprime integer coefficients and
#: a positive leading coefficient.
_Reducer = tuple[int, int, int, tuple[tuple[int, int], ...]]


def _quotient(c: int, d: int) -> Coefficient:
    """c/d over Q: an ``int`` when d divides c, else a ``Fraction``."""
    q, r = divmod(c, d)
    return Fraction(c, d) if r else q


def _integer_terms(terms: dict[Exponent, Fraction]) -> tuple[dict[Exponent, int], int]:
    """The term map times the lcm of its denominators, and that lcm."""
    denom = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (denom // c.denominator) for e, c in terms.items()}, denom


def _primitive(lead, terms: dict) -> dict:
    """A nonzero integer term map divided by its content, signed so that the
    coefficient of ``lead`` is positive."""
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    if content != 1:
        terms = {e: c // content for e, c in terms.items()}
    return terms


def _reducer(lead: int, terms: dict[int, int], pk: _Packing) -> _Reducer:
    """The reducer of a nonzero integer term map on codes led by ``lead``."""
    terms = _primitive(lead, terms)
    return lead, pk.bits(lead), terms[lead], tuple(t for t in terms.items() if t[0] != lead)


def _reduce_terms(
    terms: dict[int, int],
    basis: Sequence[_Reducer],
    pk: _Packing,
    memo: dict[int, int],
    bound: tuple[int, int, Sequence[int]] | None = None,
) -> tuple[dict[int, int], int]:
    """Canonical remainder of an integer term map on codes modulo reducers.

    Returns ``(remainder, scale)``: the remainder of ``scale * terms``, with
    integer coefficients, so the remainder over Q is ``remainder / scale``.
    The largest pending monomial m is reduced first, by the first reducer
    whose leading monomial divides it.  A signature bound ``bound = (T, n,
    offsets)`` makes the reduction regular: ``basis[i]`` shifted to lead m
    has the signature ``offsets[i] + code(m)·n`` (see :func:`_buchberger`),
    and is used only when that is below T.  The scan for the reducer starts
    at ``memo[m]``, an index below which no reducer divides m, and records
    the first index whose reducer divides m, whatever its signature.
    To remove ``c*m`` with a reducer of leading coefficient ``lc``, the
    pending terms are multiplied by ``lc/d``, where ``d = gcd(c, lc)``, and
    ``(c/d)`` times the shifted reducer is subtracted; ``scale`` accumulates
    these factors.  A remainder term keeps the scale at which it was emitted
    and is brought to the final scale at the end.  Pending codes sit negated
    in a min-heap, each pushed when it enters ``work``; an entry whose
    monomial has cancelled is skipped when popped.  A reduction only adds
    monomials below the one it removes, so the remainder's terms come out in
    descending order.
    """
    mask, guard = pk.mask, pk.guard
    limit, n, offsets = bound or (None, 0, ())
    work = dict(terms)
    heap = [-m for m in work]
    heapify(heap)
    scale = 1
    emitted: list[tuple[int, int, int]] = []
    while heap:
        lead = -heappop(heap)
        coeff = work.pop(lead, None)
        if coeff is None:
            continue
        lead_bits = -lead & mask  # pk.bits(lead)
        if lead_bits & guard:
            pk.check(lead_bits)
        if limit is not None:
            room = limit - lead * n
        first = None
        for i in range(memo.get(lead, 0), len(basis)):
            lt, lt_bits, lc, tail = basis[i]
            if (lead_bits - lt_bits) & guard:
                continue
            if first is None:
                first = memo[lead] = i
            if limit is None or offsets[i] < room:
                break
        else:
            if first is None:
                memo[lead] = len(basis)
            emitted.append((lead, coeff, scale))
            continue
        shift = lead - lt
        pk.tick(len(tail) + 1)
        d = gcd(coeff, lc)
        if d != lc:
            factor = lc // d
            work = {m: c * factor for m, c in work.items()}
            scale *= factor
        coeff //= d
        for m, gc in tail:
            target = shift + m
            v = work.get(target)
            if v is None:
                work[target] = -coeff * gc
                heappush(heap, -target)
            else:
                v -= coeff * gc
                if v == 0:
                    del work[target]
                else:
                    work[target] = v
    return {m: c * (scale // s) for m, c, s in emitted}, scale


def _engine_codes(p: Polynomial, pk: _Packing) -> tuple[dict[int, int], int]:
    """``_integer_terms`` of p keyed by monomial code, and their denominator.

    The engine computes in the polynomial ring, so a negative exponent
    raises ``PolyError``.
    """
    if any(min(e, default=0) < 0 for e in p.terms):
        raise PolyError(f"the Groebner engine takes no negative exponent, got {p}")
    terms, denom = _integer_terms(p.terms)
    return {pk.encode(e): c for e, c in terms.items()}, denom


def _divisible(bits: int, divisors: list[int], guard: int) -> bool:
    """Whether a divisor-test bit pattern in ``divisors`` divides ``bits``."""
    for d in divisors:
        if not (bits - d) & guard:
            return True
    return False


def _buchberger(generators: Sequence[Polynomial], pk: _Packing) -> list[_Reducer]:
    """Reducers of the reduced Groebner basis, sorted by leading monomial.

    A signature-based loop (Gao, Volny and Wang, Math. Comp. 85, 2016; Roune
    and Stillman, ISSAC 2012).  With f_0 .. f_(n-1) the nonzero generators,
    the signature m·e_i of an element is held as the integer
    ``code(m·lt(f_i))·n + i``, so integer order is the Schreyer order and a
    multiple t·(m·e_i) is the sum plus ``code(t)·n``.  Signatures are taken
    in increasing order; the queue holds each generator's e_i and the larger
    side of each S-pair whose two sides differ.  A signature T is skipped,
    when its S-pair is formed and again when it is popped, if a known
    syzygy signature of its index divides it: the Koszul signature of every
    two elements, and every T whose reduction reached zero.  A pair of
    coprime leading monomials has its Koszul signature, so it is never
    queued.  Otherwise the rewriter, the element g whose signature
    divides T and whose multiple (T/sig(g))·g has the smallest leading
    monomial (the later one on a tie), is shifted to T and reduced by
    reducers of smaller signature.  The result joins the basis unless it is
    zero or its leading monomial was not reduced: then the rewriter already
    covers T.  A result whose leading monomial was reduced is never singular
    top-reducible, since an s·g of signature T led by that monomial would
    have been a rewriter with a smaller multiple.
    """
    term_maps = [_engine_codes(p, pk)[0] for p in generators if not p.is_zero()]
    inputs = [_reducer(max(terms), terms, pk) for terms in term_maps]
    n = len(inputs)
    mask, guard, code = pk.mask, pk.guard, pk.code
    basis: list[_Reducer] = []
    # sig(g) - code(lt(g))·n: g shifted to lead the monomial of code m has
    # the signature offset + m·n, and (T - offset)/n is the lead of (T/sig(g))·g
    offsets: list[int] = []
    # per signature index: (bits of the signature's monomial, basis position)
    # of its elements, and the bits of its known syzygy signatures.  The
    # signature m·e_i has the monomial m·lt(f_i), of code T // n, and index
    # T % n; its bits are -(T // n) & mask, as pk.bits gives them.
    elements: list[list[tuple[int, int]]] = [[] for _ in inputs]
    syzygies: list[list[int]] = [[] for _ in inputs]

    # memo[m] = i: no element of basis[:i] divides the monomial of code m.
    # The loop only appends to basis, so a recorded index stays exact.
    memo: dict[int, int] = {}
    queue = [f[0] * n + i for i, f in enumerate(inputs)]
    heapify(queue)
    last = None
    while queue:
        sig = heappop(queue)
        if sig == last:
            continue
        last = sig
        # a queued signature's monomial fits: a generator's lead was encoded,
        # and an S-pair's divides its Koszul signature's, checked below
        q, index = divmod(sig, n)
        sig_bits = -q & mask
        zs = syzygies[index]
        if _divisible(sig_bits, zs, guard):
            continue
        best = None  # the rewriter's basis position, None for T = e_index
        for g_bits, k in elements[index]:
            if not (sig_bits - g_bits) & guard:
                lead = (sig - offsets[k]) // n
                if best is None or lead <= best_lead:
                    best, best_lead = k, lead
        if best is None:
            lead, _, lc, tail = inputs[index]
            shift = 0
        else:
            lt, _, lc, tail = basis[best]
            lead, shift = best_lead, best_lead - lt
        pk.tick()
        terms = {lead: lc}
        terms.update((m + shift, c) for m, c in tail)
        rem = _reduce_terms(terms, basis, pk, memo, (sig, n, offsets))[0]
        if not rem:
            zs.append(sig_bits)  # no known syzygy divides it, as tested above
            continue
        top = next(iter(rem))
        if best is not None and top == lead:
            continue
        offset, top_bits = sig - top * n, -top & mask
        for k, (lt, lt_bits, _, _) in enumerate(basis):
            if offset == offsets[k]:
                continue  # the two sides of the S-pair, and of the Koszul syzygy, tie
            # both sides shifted to one lead: the larger signature is the larger
            # offset, q·n + i; the Koszul signature is that plus (top + lt)·n and
            # the pair's that plus lcm·n, both of index i, so their bits are
            # those of the leads' product and lcm, less q
            q, i = divmod(max(offset, offsets[k]), n)
            zs = syzygies[i]
            koszul = (top_bits + lt_bits - q) & mask
            # its fields are sums of two that fit, so a field that does not fit
            # shows in its guard bit and has not spilled into the next field
            if koszul & guard:
                pk.check(koszul)
            if not _divisible(koszul, zs, guard):
                zs.append(koszul)
            # the lcm's bits are the fieldwise max of the leads' bits: the guard
            # bits of (top_bits | guard) - lt_bits mark the fields where top's
            # exponent is not below lt's, and ge widens each to a field mask
            ge = ((top_bits | guard) - lt_bits) & guard
            ge -= ge >> (FIELD_BITS - 1)
            lcm = (top_bits & ge) | (lt_bits & ~ge)
            # this test only keeps subsumed pairs out of the heap, since the
            # test at pop time drops each of them too; the lcm of two leads
            # that fit fits, so code needs no range check
            if not _divisible((lcm - q) & mask, zs, guard):
                heappush(queue, (q + code(lcm)) * n + i)
        elements[index].append((sig_bits, len(basis)))
        basis.append(_reducer(top, rem, pk))
        offsets.append(offset)

    # minimalize: keep elements whose leading monomial no other kept one divides
    basis.sort(key=itemgetter(0))
    minimal_basis: list[_Reducer] = []
    for item in basis:
        if all((item[1] - k[1]) & pk.guard for k in minimal_basis):
            minimal_basis.append(item)

    # interreduce tails for the unique reduced basis: every monomial a tail
    # meets lies below its element's own leading monomial, so the element
    # never reduces itself and one memo serves the whole pass
    memo = {}
    reduced: list[_Reducer] = []
    for lt, _, lc, tail in minimal_basis:
        rem, scale = _reduce_terms(dict(tail), minimal_basis, pk, memo)
        reduced.append(_reducer(lt, {lt: lc * scale, **rem}, pk))
    return reduced


# -- public operations --------------------------------------------------------


def normal_form(p: Polynomial, I: Ideal) -> Polynomial:
    """Unique remainder of p modulo the reduced basis of I.

    The engine computes that basis as reducers and reduces p by them, each
    run in its own ``_Packing``; no monic basis is built.  The remainder is
    taken in the polynomial ring: a p with a negative exponent (a Laurent
    polynomial) raises ``PolyError``.
    """
    if p.ring != I.ring:
        raise ContextMismatch("polynomial and ideal contexts differ")
    pk = _Packing(I.ring)
    codes, denom = _engine_codes(p, pk)
    reducers = _buchberger(I.generators, _Packing(I.ring))
    rem, scale = _reduce_terms(codes, reducers, pk, {})
    scale *= denom
    return Polynomial(I.ring, {pk.decode(m): _quotient(c, scale) for m, c in rem.items()})


def primitive_integer_form(p: Polynomial) -> Polynomial:
    """Rescale to integer coefficients with content 1 and positive leading sign."""
    if p.is_zero():
        return p
    return Polynomial(p.ring, _primitive(p.leading_term()[0], _integer_terms(p.terms)[0]))


def contains(I: Ideal, p: Polynomial) -> bool:
    return normal_form(p, I).is_zero()


def eliminate(I: Ideal, drop: Iterable[str]) -> Ideal:
    """Generators of the contraction of I to the subring without ``drop``.

    Runs the engine with ``drop`` first, under its elimination order
    (:class:`_Packing`).  The block degree decides first, so a reducer whose
    lead code has no block weight is free of the block in every term; only
    those are kept and decoded.  They are the reduced grevlex basis of the
    contraction, which is unique, so every elimination order gives them.
    """
    drop_set = set(drop)
    unknown = drop_set - set(I.ring.names)
    if unknown:
        raise PolyError(f"cannot eliminate unknown variables {sorted(unknown)}")
    block = [n for n in I.ring.names if n in drop_set]
    rest = [n for n in I.ring.names if n not in drop_set]
    ring = VariableContext(tuple(block + rest), I.ring.invertible)
    pk = _Packing(ring, len(block))
    reducers = _buchberger([convert_context(g, ring) for g in I.generators], pk)
    target = VariableContext(tuple(rest), I.ring.invertible & set(rest))
    free = [r for r in reducers if r[0] >> pk.shift == 0]
    kept = [Polynomial(target, terms) for terms in pk.monic(free, pk.nb)]
    return Ideal(kept or [target.zero()])


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


def span_coordinates(targets: Sequence[Polynomial], basis: Sequence[Polynomial]) -> list:
    """Each target's coordinates in ``basis``, or None off its Q-span, from one reduction
    of the [basis | targets] matrix; a dependent basis raises ``PolyError``.  Among forms
    of one degree d, None means "not in the ideal", which meets degree d in the span of
    its generators (Cox, Little and O'Shea, ch. 8); a None among mixed degrees raises."""
    n, columns = len(basis), [*basis, *targets]
    monoms = {m for p in columns for m in p.terms}
    reduced = gauss_jordan([[p.terms.get(m, 0) for p in columns] for m in monoms])
    if [row[:n] for row in reduced[:n]] != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise PolyError("singular re-expression system")
    tails = ([row[j] for row in reduced] for j in range(n, len(columns)))
    coordinates = [None if any(col[n:]) else col[:n] for col in tails]
    if None in coordinates and len({sum(m) for m in monoms}) > 1:
        raise PolyError("a target leaves the span, and the forms differ in degree")
    return coordinates


def minimal_generators(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Greedy minimal generating subset, scanning by ascending leading
    monomial; grevlex compares total degree first.

    A candidate already contained in the ideal of the kept ones is dropped.
    Deterministic: the sort is stable, so equal leading monomials keep their
    order.
    """
    nonzero = [p for p in polys if p]
    ordered = sorted(nonzero, key=lambda p: grevlex(p.leading_term()[0]), reverse=True)
    kept: list[Polynomial] = []
    for p in ordered:
        if kept and contains(Ideal(kept), p):
            continue
        kept.append(p)
    return kept
