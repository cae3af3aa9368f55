"""Groebner engine: bases, normal forms, elimination, Jacobian ideals."""

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from operator import le
from pathlib import Path

import pytest

from qhv import ideals
from qhv.ideals import (
    Ideal,
    ResourceLimitExceeded,
    contains,
    eliminate,
    gauss_jordan,
    jacobian_ideal,
    minimal_generators,
    normal_form,
    span_coordinates,
)
from qhv.polyring import PolyError, Polynomial, VariableContext, convert_context
from linalg_oracle import is_member_bounded, is_member_up_to
from oracles import _remainder, is_groebner_basis, textbook_groebner_basis
from polytext import parse
from randpoly import random_polynomial, random_ring

R = VariableContext(("x", "y", "z", "w", "l"), invertible={"l"})


def P(text):
    return parse(R, text)


def katsura(n):
    """Katsura-n in u0..un: u0 + 2(u1 + .. + un) = 1 and, for m < n,
    the sum of u_|l| u_|m-l| over l in -n..n with |m-l| <= n equals u_m."""
    ring = VariableContext(tuple(f"u{i}" for i in range(n + 1)))
    u = [ring.var(name) for name in ring.names]
    gens = [u[0] + 2 * sum(u[1:], ring.zero()) - 1]
    for m in range(n):
        products = [u[abs(l)] * u[abs(m - l)] for l in range(-n, n + 1) if abs(m - l) <= n]
        gens.append(sum(products, ring.zero()) - u[m])
    return gens


def cyclic(n):
    """Cyclic-n in x0..x(n-1): the cyclic sums of the products of d
    consecutive variables, d = 1..n-1, and x0 x1 .. x(n-1) - 1."""
    ring = VariableContext(tuple(f"x{i}" for i in range(n)))
    x = [ring.var(name) for name in ring.names]

    def consecutive(i, d):
        out = ring.one()
        for j in range(d):
            out = out * x[(i + j) % n]
        return out

    gens = [sum((consecutive(i, d) for i in range(n)), ring.zero()) for d in range(1, n)]
    return gens + [consecutive(0, n) - 1]


def term_maps(polys):
    return {frozenset(p.terms.items()) for p in polys}


def order_key(nb, exp):
    """The elimination order of the first nb variables, written out: the
    degree in them, then the total degree, then the smaller exponent of the
    last variable where the two differ."""
    return (sum(exp[:nb]), sum(exp), [-e for e in reversed(exp)])


def random_elimination(rng, max_vars=4):
    """A ring with one invertible variable and a proper nonempty subset of its
    variables to eliminate."""
    names = random_ring(rng, max_vars).names
    drop = rng.sample(names, rng.randint(1, len(names) - 1))
    return VariableContext(names, {rng.choice(names)}), drop


def oracle_elimination(gens, drop):
    """The textbook basis under the elimination order of ``drop``, placed
    first, kept where free of it and renamed into the ring of the rest."""
    ring = gens[0].ring
    block = [n for n in ring.names if n in drop]
    rest = [n for n in ring.names if n not in drop]
    lifted = VariableContext(tuple(block + rest), ring.invertible)
    target = VariableContext(tuple(rest), ring.invertible & set(rest))
    basis = textbook_groebner_basis(
        [convert_context(g, lifted) for g in gens], partial(order_key, len(block))
    )
    kept = [
        convert_context(g, target)
        for g in basis
        if not any(any(exp[: len(block)]) for exp in g.terms)
    ]
    return kept or [target.zero()]


class TestGroebner:
    def test_already_a_basis(self):
        S = VariableContext(("x", "y"))
        basis = Ideal([parse(S, "x"), parse(S, "y")]).groebner_basis()
        assert list(basis) == [parse(S, "y"), parse(S, "x")] or list(basis) == [
            parse(S, "x"),
            parse(S, "y"),
        ]

    def test_one_reduction_recovers_quadric(self):
        I = Ideal([P("4*x*z - y^2 - l*w^2"), P("w")])
        basis = I.groebner_basis()
        # the S-polynomial reduction exposes 4xz - y^2 (monic lead is y^2)
        assert contains(I, P("4*x*z - y^2"))
        assert any(g == P("y^2 - 4*x*z") for g in basis)

    def test_basis_is_reduced_and_monic(self):
        I = Ideal([P("2*x^2 + y"), P("3*y^2 + x")])
        for g in I.groebner_basis():
            assert g.leading_term()[1] == 1
        assert is_groebner_basis(I.groebner_basis())

    def test_monic_basis_decodes_each_code_once(self, monkeypatch):
        # katsura-4's 16 basis elements share 29 monomials; the S-pair loop
        # decodes none, and the hand-off from the engine's reducers decodes
        # each of their codes once
        decoded = Counter()
        decode = ideals._Packing.decode

        def counting_decode(pk, code):
            decoded[code] += 1
            return decode(pk, code)

        monkeypatch.setattr(ideals._Packing, "decode", counting_decode)
        basis = Ideal(katsura(4)).groebner_basis()
        assert len(decoded) == len({e for g in basis for e in g.terms}) == 29
        assert set(decoded.values()) == {1}

    def test_resource_limit(self, monkeypatch):
        monkeypatch.setattr(ideals, "STEP_BUDGET", 5)
        I = Ideal([P("x^3*y - z^2 + w"), P("y^3*z - x + l"), P("z^3*x - y")])
        with pytest.raises(ResourceLimitExceeded):
            I.groebner_basis()


class TestNormalForm:
    def test_generator_reduces_to_zero(self):
        I = Ideal([P("4*x*z - y^2 - l*w^2"), P("w")])
        assert normal_form(I.generators[0], I).is_zero()

    def test_combination_reduces_to_zero(self):
        I = Ideal([P("4*x*z - y^2 - l*w^2"), P("w")])
        assert normal_form(P("4*x*z - y^2"), I).is_zero()

    def test_no_reduction_applies(self):
        S = VariableContext(("x", "y"))
        I = Ideal([parse(S, "y")])
        assert normal_form(parse(S, "x"), I) == parse(S, "x")

    def test_builds_no_monic_basis(self, monkeypatch):
        # the remainder comes from the engine's integer reducers alone
        def monic(*args):
            raise AssertionError("normal_form built a monic basis")

        monkeypatch.setattr(ideals._Packing, "monic", monic)
        assert normal_form(P("1/3*x^2 + z"), Ideal([P("2*x - 3*y")])) == P("3/4*y^2 + z")

    def test_contains_matches_normal_form(self):
        I = Ideal([P("4*x*z - y^2 - l*w^2"), P("w")])
        assert contains(I, P("4*x*z - y^2"))
        assert not contains(I, P("x"))

    # The engine reduces with primitive integer reducers; these pin the exact
    # rational remainder against reducers whose leading coefficient is not 1.
    def test_rational_input_non_unit_leading_coefficient(self):
        I = Ideal([P("2*x - 3*y")])
        assert normal_form(P("1/3*x^2"), I) == P("3/4*y^2")
        # a pending term sits beside the one being reduced when the pending
        # terms are rescaled
        assert normal_form(P("1/3*x^2 + z"), I) == P("3/4*y^2 + z")
        assert normal_form(P("1/3*x^2 - 5/7*x*z + w"), I) == P("3/4*y^2 - 15/14*y*z + w")

    def test_two_non_unit_reducers_in_sequence(self):
        # x^2/3 -> 3/4 y^2 by 2x - 3y, then y^2 -> 5/3 z by 3y^2 - 5z
        I = Ideal([P("2*x - 3*y"), P("3*y^2 - 5*z")])
        assert normal_form(P("1/3*x^2"), I) == P("5/4*z")
        assert normal_form(P("1/3*x^2 + 1/2*w^3"), I) == P("5/4*z + 1/2*w^3")

    def test_laurent_generator_and_input(self):
        # both raise: the engine computes in the polynomial ring, invertible
        # l included
        f = P("2*x - 3*y")
        with pytest.raises(PolyError, match="negative exponent"):
            Ideal([P("l^-2") * f]).groebner_basis()
        with pytest.raises(PolyError, match="negative exponent"):
            Ideal([f, P("x*l^-1 + y")]).groebner_basis()
        with pytest.raises(PolyError, match="negative exponent"):
            normal_form(P("1/3*x^2*l + 1/5*x*l^-1"), Ideal([f]))

    def test_matches_oracle_division_on_random_ideals(self):
        # the remainder modulo a Groebner basis is unique, so any correct
        # division by the reduced basis gives the same polynomial
        rng = random.Random(8080)
        for _ in range(40):
            ring = random_ring(rng)
            I = Ideal(
                [
                    random_polynomial(rng, ring, max_degree=3, max_terms=3)
                    for _ in range(rng.randint(1, 3))
                ]
            )
            for _ in range(3):
                p = random_polynomial(rng, ring, max_degree=4, max_terms=6)
                assert normal_form(p, I) == _remainder(p, I.groebner_basis())

    def test_matches_oracle_division_on_block_order_rings(self):
        # eliminate runs the engine under the block order of the dropped
        # variables; the ring's invertible variable counts as an ordinary one
        rng = random.Random(9090)
        for _ in range(40):
            ring, drop = random_elimination(rng)
            gens = [
                random_polynomial(rng, ring, max_degree=3, max_terms=3)
                for _ in range(rng.randint(1, 3))
            ]
            E = eliminate(Ideal(gens), drop)
            assert list(E.generators) == oracle_elimination(gens, drop)
            for _ in range(3):
                p = random_polynomial(rng, E.ring, max_degree=4, max_terms=6)
                assert normal_form(p, E) == _remainder(p, E.groebner_basis())


class TestMonomialCodes:
    """The engine's packed codes against exponent vectors and the ring order."""

    TOP = 2 ** (ideals.FIELD_BITS - 1) - 1  # the largest exponent a field holds

    @staticmethod
    def rings():
        for n in range(1, 8):
            for nb in range(n + 1):
                yield VariableContext(tuple(f"v{i}" for i in range(n))), nb

    def draw(self, rng, n):
        # small exponents tie degrees and divide often; large ones fill the field
        top = rng.choice((3, self.TOP))
        return tuple(rng.choice((0, top, rng.randint(0, top))) for _ in range(n))

    def test_codes_against_exponent_vectors(self):
        rng = random.Random(3232)
        for ring, nb in self.rings():
            pk = ideals._Packing(ring, nb)
            n, key = len(ring.names), partial(order_key, nb)
            for _ in range(200):
                a, b = self.draw(rng, n), self.draw(rng, n)
                ca, cb = pk.encode(a), pk.encode(b)
                assert pk.decode(ca) == a and pk.code(pk.bits(ca)) == ca
                assert (ca < cb) == (key(a) < key(b)) and (ca == cb) == (a == b)
                # a sum that still fits, and b as a divisor candidate of a
                c = tuple(rng.randint(0, self.TOP - e) for e in a)
                s = tuple(map(sum, zip(a, c)))
                assert pk.encode(s) == ca + pk.encode(c)
                for d, m in ((a, s), (b, a)):
                    divides = not (pk.bits(pk.encode(m)) - pk.bits(pk.encode(d))) & pk.guard
                    assert divides == all(map(le, d, m))

    def test_exponent_beyond_the_field_raises(self):
        S = VariableContext(("x", "y"))
        x, y = S.var("x"), S.var("y")
        big = S.monomial(1, {"x": 2**32})
        width = f"{ideals.FIELD_BITS}-bit"
        with pytest.raises(ResourceLimitExceeded, match=width):
            Ideal([big - y]).groebner_basis()
        with pytest.raises(ResourceLimitExceeded, match=width):
            normal_form(big, Ideal([x - y]))

    def test_reduction_past_the_field_raises(self):
        # x*y^(TOP-1) - z^TOP fits and is led by x*y^(TOP-1), but reducing
        # x*y^(TOP-1)*z reaches z^(TOP + 1)
        S = VariableContext(("x", "y", "z"))
        lead = S.monomial(1, {"x": 1, "y": self.TOP - 1})
        I = Ideal([lead - S.monomial(1, {"z": self.TOP})])
        assert normal_form(lead, I) == S.monomial(1, {"z": self.TOP})
        with pytest.raises(ResourceLimitExceeded, match=f"{ideals.FIELD_BITS}-bit"):
            normal_form(lead * S.var("z"), I)

    def test_signature_past_the_field_raises(self):
        # f_1 - f_0 = y has the signature e_1, held as lt(f_1) = x^(2^30); its
        # Koszul signature with f_0 is x^(2^30)·e_1, held as x^(2^31), which
        # does not fit although every polynomial does
        S = VariableContext(("x", "y"))
        half = S.monomial(1, {"x": 2**30})
        with pytest.raises(ResourceLimitExceeded, match=f"{ideals.FIELD_BITS}-bit"):
            Ideal([half - S.var("y"), half]).groebner_basis()

    def test_large_exponent_within_the_field(self):
        S = VariableContext(("x", "y"))
        f = S.monomial(1, {"x": 2**30}) - S.var("y")
        I = Ideal([f])
        assert I.groebner_basis() == (f,)
        assert normal_form(S.monomial(1, {"x": 2**30 + 1}), I) == S.var("x") * S.var("y")


class TestEqualUpToUnits:
    """Ideals are equal exactly when their reduced bases are; the engine
    clears no unit, and a Laurent generator raises."""

    def test_unit_multiple(self):
        # l^2*f and f generate different polynomial ideals
        f = P("4*x*z - y^2 - l*w^2")
        I = Ideal([P("l^2") * f])
        assert I.groebner_basis() == (P("w^2*l^3 + y^2*l^2 - 4*x*z*l^2"),)
        assert I.groebner_basis() != Ideal([f]).groebner_basis()
        assert not contains(I, f)

    def test_distinct_principal_ideals(self):
        assert Ideal([P("x")]).groebner_basis() != Ideal([P("y")]).groebner_basis()

    def test_laurent_content(self):
        f, g = P("4*x*z - y^2 - l*w^2"), P("w*x - y")
        for gens in ([P("l^-3") * f], [P("l^-3") * f, P("l^2") * g]):
            with pytest.raises(PolyError, match="negative exponent"):
                Ideal(gens).groebner_basis()
        # w is not invertible either, so its content stays
        assert Ideal([P("w") * f, g]).groebner_basis() != Ideal([f, g]).groebner_basis()

    def test_strict_containment_either_order(self):
        small = Ideal([P("x^2"), P("y")])
        large = Ideal([P("x"), P("y")])
        assert small.groebner_basis() != large.groebner_basis()

    def test_different_generators_of_one_ideal(self):
        f, g = P("4*x*z - y^2 - l*w^2"), P("w*x - y")
        assert Ideal([f, g]).groebner_basis() == Ideal([2 * f - P("x") * g, 3 * g]).groebner_basis()


class TestKnownAnswers:
    """Standard systems against the reduced bases recorded in the benchmark's
    known answers; the file is only read."""

    EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "gb-fixed.json"

    @staticmethod
    def expected_term_maps(basis):
        return {frozenset((tuple(e), Fraction(c)) for e, c in g) for g in basis}

    @pytest.mark.parametrize("system, n", [(katsura, 4), (katsura, 5), (cyclic, 5)])
    def test_reduced_basis(self, system, n):
        expected = json.loads(self.EXPECTED.read_text())[f"{system.__name__}-{n}"]["basis"]
        assert term_maps(Ideal(system(n)).groebner_basis()) == self.expected_term_maps(expected)

    def test_katsura4_elimination(self):
        expected = json.loads(self.EXPECTED.read_text())["katsura-4-elim-u0"]
        E = eliminate(Ideal(katsura(4)), ["u0"])
        assert list(E.ring.names) == expected["names"]
        assert term_maps(E.generators) == self.expected_term_maps(expected["basis"])

    # The engine's step counts for these bases, pinned so that any change to
    # the work the engine does, or to the reducer it picks, shows here.
    # Each of the three reduces some signature to zero; cyclic-5, unlike the
    # katsura systems, also drops rewritten multiples whose leading monomial
    # no reducer of smaller signature divides.
    @staticmethod
    def assert_steps(monkeypatch, compute, steps):
        monkeypatch.setattr(ideals, "STEP_BUDGET", steps)
        compute()
        monkeypatch.setattr(ideals, "STEP_BUDGET", steps - 1)
        with pytest.raises(ResourceLimitExceeded):
            compute()

    @pytest.mark.parametrize(
        "system, n, steps", [(katsura, 4, 1970), (cyclic, 5, 11242), (katsura, 5, 11538)]
    )
    def test_step_count_pinned(self, monkeypatch, system, n, steps):
        gens = system(n)
        self.assert_steps(monkeypatch, lambda: Ideal(gens).groebner_basis(), steps)

    def test_elimination_step_count_pinned(self, monkeypatch):
        # under the block order of u0, which orders by the degree in u0 first
        gens = katsura(4)
        self.assert_steps(monkeypatch, lambda: eliminate(Ideal(gens), ["u0"]), 1753)

    def test_graph_elimination_step_count_pinned(self, monkeypatch):
        # the F4 graph relations of the degenerations module: a block of three
        R = VariableContext(("x", "y", "z", "a", "b", "c", "e", "f", "t"))
        relations = ["a - x^2", "b - 2*x*y", "c - 2*x*z - y^2", "e - 2*y*z", "f - z^2",
                     "t - 4*x*z + y^2"]
        gens = [parse(R, r) for r in relations]
        self.assert_steps(monkeypatch, lambda: eliminate(Ideal(gens), {"x", "y", "z"}), 384)


class TestCyclic6:
    """Cyclic-6 (Bjoerck and Froeberg, 1991): 156 solutions with multiplicity."""

    # sha256 of the sorted ``str`` of the reduced basis, as the Buchberger
    # engine with the Gebauer-Moeller criteria computed it
    DIGEST = "e4420bbaa22acad8b0d568328d1f24fdc30701f17495c6a29e0348b21220812a"

    @staticmethod
    def standard_monomials(leads, n):
        """The exponents no leading monomial divides, grown from 1 by
        multiplying with variables; finite when the ideal is zero-dimensional."""
        seen, frontier = set(), [(0,) * n]
        while frontier:
            exp = frontier.pop()
            if exp in seen or any(all(map(le, lead, exp)) for lead in leads):
                continue
            seen.add(exp)
            frontier.extend(exp[:i] + (exp[i] + 1,) + exp[i + 1 :] for i in range(n))
        return seen

    def test_reduced_basis(self):
        gens = cyclic(6)
        I = Ideal(gens)
        basis = I.groebner_basis()
        assert len(basis) == 45
        leads = [g.leading_term()[0] for g in basis]
        assert len(self.standard_monomials(leads, 6)) == 156
        assert all(_remainder(g, basis).is_zero() for g in gens)
        text = "\n".join(sorted(str(g) for g in basis))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


class TestEliminate:
    def test_cusp_implicitization(self):
        C = VariableContext(("t", "a", "b"))
        E = eliminate(Ideal([parse(C, "a - t^2"), parse(C, "b - t^3")]), {"t"})
        target = VariableContext(("a", "b"))
        assert [str(g) for g in E.generators] == ["a^3 - b^2"]
        # soundness: the generator vanishes under the parametrization
        assert E.generators[0].ring == target

    def test_twisted_cubic_implicitization(self):
        # two eliminated variables
        C = VariableContext(("s", "t", "a", "b", "c", "d"))
        gens = [parse(C, r) for r in ("a - s^3", "b - s^2*t", "c - s*t^2", "d - t^3")]
        E = eliminate(Ideal(gens), {"s", "t"})
        assert [str(g) for g in E.generators] == ["c^2 - b*d", "b*c - a*d", "b^2 - a*c"]

    def test_no_variable_dropped_gives_the_reduced_basis(self):
        S = VariableContext(("x", "y"))
        E = eliminate(Ideal([parse(S, "x^2 + y"), parse(S, "x^2")]), [])
        assert [str(g) for g in E.generators] == ["y", "x^2"]

    def test_free_variable_gives_zero_ideal(self):
        C = VariableContext(("t", "a"))
        E = eliminate(Ideal([parse(C, "a - t")]), {"t"})
        assert len(E.generators) == 1 and E.generators[0].is_zero()

    def test_eliminated_generators_are_members(self):
        C = VariableContext(("t", "u", "a", "b", "c"))
        I = Ideal([parse(C, "a - t*u"), parse(C, "b - t^2"), parse(C, "c - u^2")])
        E = eliminate(I, {"t", "u"})
        assert E.generators
        for g in E.generators:
            lifted = parse(C, str(g))
            assert contains(I, lifted)

    def test_unknown_variable(self):
        C = VariableContext(("t", "a"))
        with pytest.raises(Exception):
            eliminate(Ideal([parse(C, "a - t")]), {"q"})


class TestConvertContext:
    def test_renaming_round_trip(self):
        # reordered, with an extra variable; variables absent from p may be dropped
        wide = VariableContext(("l", "v", "w", "z", "y", "x"), invertible={"l"})
        p = P("3*x^2*l^-2 - 1/2*y*z + w")
        q = convert_context(p, wide)
        assert q == parse(wide, "3*x^2*l^-2 - 1/2*y*z + w")
        assert convert_context(q, R) == p
        narrow = VariableContext(("z", "x"))
        assert convert_context(P("x*z - 2"), narrow) == parse(narrow, "x*z - 2")

    def test_missing_support_variable_raises(self):
        with pytest.raises(PolyError, match="unknown variable 'y'"):
            convert_context(P("x + y"), VariableContext(("x", "z")))

    def test_laurent_exponent_needs_an_invertible_target(self):
        with pytest.raises(PolyError, match="non-invertible"):
            convert_context(P("x*l^-1"), VariableContext(("x", "l")))


class TestJacobian:
    def test_smooth_chart_contains_one(self):
        # twist-1 chart equation on the w = 1 chart: the l-partial is a unit
        C = VariableContext(("x", "y", "z", "l"))
        J = jacobian_ideal(parse(C, "4*x*z - y^2 - l"), C.names)
        assert J.groebner_basis() == (C.one(),)

    def test_twist3_chart_singular_at_origin(self):
        C = VariableContext(("x", "y", "z", "l"))
        J = jacobian_ideal(parse(C, "4*x*z - y^2 - l^3"), C.names)
        assert J.groebner_basis() != (C.one(),)
        for v, power in (("x", 1), ("y", 1), ("z", 1), ("l", 2)):
            assert contains(J, C.monomial(1, {v: power}))

    def test_nonreduced_input(self):
        C = VariableContext(("x",))
        J = jacobian_ideal(parse(C, "x^2"), C.names)
        assert [str(g) for g in J.groebner_basis()] == ["x"]


class TestGaussJordan:
    def test_reduced_row_echelon_form(self):
        F = Fraction
        rows = [[F(0), F(2), F(4)], [F(1), F(1), F(1)], [F(2), F(4), F(6)]]
        assert gauss_jordan(rows) == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
        assert rows[0] == [0, 2, 4]  # the input is left as it was


class TestSpanCoordinates:
    @staticmethod
    def forms(rng, ring, degree, count, monoms=None):
        """``count`` linearly independent random forms of one degree, on
        ``monoms`` (every monomial of that degree by default); a ring of n
        variables has at least n monomials of each positive degree."""
        if monoms is None:
            monoms = [m for m in itertools.product(range(degree + 1), repeat=len(ring.names))
                      if sum(m) == degree]
        while True:
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else 0
                     for _ in monoms] for _ in range(count)]
            if all(any(row) for row in gauss_jordan(rows)):  # rank == count
                return [Polynomial(ring, dict(zip(monoms, row))) for row in rows]

    @staticmethod
    def combination(coeffs, basis):
        return sum((c * b for c, b in zip(coeffs, basis)), basis[0].ring.zero())

    def test_coordinates_multiply_back(self):
        rng = random.Random(4101)
        for _ in range(40):
            ring, degree = random_ring(rng, 3), rng.randint(1, 3)
            basis = self.forms(rng, ring, degree, rng.randint(1, len(ring.names)))
            weights = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis]
            target = self.combination(weights, basis)
            (coords,) = span_coordinates([target], basis)
            assert coords == weights
            assert self.combination(coords, basis) == target

    def test_target_outside_the_span(self):
        rng = random.Random(4102)
        for _ in range(20):
            ring = random_ring(rng, 3)
            monoms = [m for m in itertools.product(range(3), repeat=len(ring.names)) if sum(m) == 2]
            missing = monoms.pop(rng.randrange(len(monoms)))
            basis = self.forms(rng, ring, 2, rng.randint(1, len(ring.names)), monoms)
            inside = self.combination([1] * len(basis), basis)
            outside = inside + Polynomial(ring, {missing: 1})
            assert span_coordinates([outside, inside], basis) == [None, [1] * len(basis)]

    def test_dependent_basis_raises(self):
        f, g = P("x^2 + y*z"), P("3*x*z - y^2")
        with pytest.raises(PolyError, match="singular re-expression system"):
            span_coordinates([f], [f, g, 2 * f - Fraction(1, 3) * g])
        with pytest.raises(PolyError, match="singular re-expression system"):
            span_coordinates([f], [f, R.zero()])

    def test_degree_guard(self):
        # a non-member verdict needs one degree; a member verdict does not
        with pytest.raises(PolyError, match="differ in degree"):
            span_coordinates([P("x^2")], [P("x + y^2")])
        assert span_coordinates([P("y")], [P("x")]) == [None]
        assert span_coordinates([P("2*x + 2*y^2"), R.zero()], [P("x + y^2")]) == [[2], [0]]

    def test_agrees_with_the_engine_on_quadric_ideals(self):
        rng = random.Random(4103)
        for _ in range(30):
            ring = random_ring(rng, 4)
            basis = self.forms(rng, ring, 2, rng.randint(1, len(ring.names)))
            weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
            targets = [self.combination(weights, basis), *self.forms(rng, ring, 2, 3)]
            verdicts = [c is not None for c in span_coordinates(targets, basis)]
            assert verdicts == [contains(Ideal(basis), t) for t in targets]


class TestMinimalGenerators:
    def test_drops_redundant(self):
        S = VariableContext(("x", "y"))
        gens = [parse(S, "x"), parse(S, "x^2 + x*y"), parse(S, "y")]
        assert minimal_generators(gens) == [parse(S, "y"), parse(S, "x")]


class TestEngineSoundness:
    def test_buchberger_postcondition_on_random_ideals(self):
        rng = random.Random(424242)
        for _ in range(40):
            ring = random_ring(rng)
            gens = [
                random_polynomial(rng, ring, max_degree=3, max_terms=3)
                for _ in range(rng.randint(1, 3))
            ]
            basis = Ideal(gens).groebner_basis()
            assert is_groebner_basis(basis)
            for g in gens:
                assert contains(Ideal(gens), g)

    def test_reduced_basis_matches_textbook_buchberger(self):
        # grevlex bases and eliminations, each with one of: nothing added, a
        # duplicate generator, a zero generator, the product of two
        # generators, or g + 1 beside g, which makes the unit ideal
        rng = random.Random(2016)
        for trial in range(100):
            if trial % 2:
                ring = random_ring(rng, max_vars=3)
            else:
                ring, drop = random_elimination(rng, max_vars=3)
            gens = [
                random_polynomial(rng, ring, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, 3))
            ]
            variant = trial // 2 % 5
            if variant == 1:
                gens.append(rng.choice(gens))
            elif variant == 2:
                gens.insert(rng.randrange(len(gens) + 1), ring.zero())
            elif variant == 3:
                gens.append(rng.choice(gens) * rng.choice(gens))
            elif variant == 4:
                gens.append(gens[0] + 1)
            if trial % 2:
                basis = list(Ideal(gens).groebner_basis())
                expected = textbook_groebner_basis(gens)
            else:
                basis = list(eliminate(Ideal(gens), drop).generators)
                expected = oracle_elimination(gens, drop)
            assert basis == expected
            if variant == 4:
                assert basis == [basis[0].ring.one()]

    def test_oracle_rejects_a_generating_set_that_is_no_basis(self):
        S = VariableContext(("x", "y"))
        gens = [parse(S, "x*y - 1"), parse(S, "y^2 - x")]
        # S(g1, g2) = y*g1 - x*g2 = x^2 - y; no leading term divides x^2
        assert not is_groebner_basis(gens)
        assert is_groebner_basis(Ideal(gens).groebner_basis())

    def test_spolynomial_of_basis_pairs_reduces(self):
        I = Ideal([P("4*x*z - y^2 - l*w^2"), P("w*x - y"), P("y*z - l")])
        basis = I.groebner_basis()

        def over(lcm, lt):  # the monomial lcm / lt
            return R.from_terms({tuple(a - b for a, b in zip(lcm, lt)): 1})

        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                # the basis is monic, so S = (L / lt_i) g_i - (L / lt_j) g_j, L the lcm
                lt_i, lt_j = basis[i].leading_term()[0], basis[j].leading_term()[0]
                lcm = tuple(map(max, lt_i, lt_j))
                s = over(lcm, lt_i) * basis[i] - over(lcm, lt_j) * basis[j]
                assert lcm not in s.terms
                assert normal_form(s, I).is_zero()

    def test_membership_agrees_with_linear_algebra_oracle(self):
        rng = random.Random(1331)
        agreements = 0
        for _ in range(60):
            ring = random_ring(rng, max_vars=3)
            gens = [
                random_polynomial(rng, ring, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, 3))
            ]
            I = Ideal(gens)
            if rng.random() < 0.5:
                # member by construction: cofactors of degree <= 2
                p = ring.zero()
                for g in gens:
                    p = p + random_polynomial(rng, ring, max_degree=2, max_terms=2) * g
                if p.is_zero():
                    continue
                assert contains(I, p)
                assert is_member_up_to(p, gens, 4)
            else:
                p = random_polynomial(rng, ring, max_degree=3, max_terms=3)
                if contains(I, p):
                    assert is_member_up_to(p, gens, 4)
                else:
                    assert not is_member_bounded(p, gens, 2)
            agreements += 1
        assert agreements >= 50
