"""Exact polynomial kernel: arithmetic, Laurent handling, substitution, text."""

import json
import math
import random
import re
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest

from qhv.group_actions import F4_CHART_RING, QUADRIC_CHART_RING
from qhv.polyring import (
    ContextMismatch,
    PolyError,
    Polynomial,
    SubstitutionMap,
    VariableContext,
    derivative,
    format_polynomial,
    grevlex,
)
from qhv.ideals import primitive_integer_form
from polytext import ParseError, parse
from randpoly import random_polynomial

R = VariableContext(("x", "y", "z", "w", "l"), invertible={"l"})
GOLDENS = Path(__file__).resolve().parent.parent / "goldens"


def P(text: str) -> Polynomial:
    return parse(R, text)


class TestArithmetic:
    def test_add_cancellation(self):
        assert P("4*x*z - y^2") + P("y^2") == P("4*x*z")

    def test_add_identity(self):
        p = P("4*x*z - y^2 - l^3*w^2")
        assert p + R.zero() == p

    def test_add_cancellation_quadratic(self):
        S = VariableContext(("c", "e", "f"))
        assert parse(S, "3*e^2 - 8*c*f") + parse(S, "8*c*f") == parse(S, "3*e^2")

    def test_mul_hand_expansion(self):
        # (2xz + y^2)(4xz - y^2), expanded termwise by hand
        assert P("2*x*z + y^2") * P("4*x*z - y^2") == P("8*x^2*z^2 + 2*x*z*y^2 - y^4")

    def test_mul_identity(self):
        p = P("4*x*z - y^2 - l^3*w^2")
        assert p * R.one() == p

    def test_laurent_unit_cancellation(self):
        assert P("l") * P("l^-1") == R.one()

    def test_negative_exponent_rejected_on_plain_variable(self):
        with pytest.raises(PolyError):
            P("w^-1")

    def test_constructor_checks_exponent_signs(self):
        with pytest.raises(PolyError, match="non-invertible variable 'w'"):
            Polynomial(R, {(0, 0, 0, -1, 0): 1})
        assert Polynomial(R, {(1, 0, 0, 0, -2): 3}) == P("3*x*l^-2")

    def test_constructor_stores_fractions(self):
        # an integral coefficient is stored as int, any other rational as Fraction
        p = Polynomial(R, {(1, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): Fraction(1, 2),
                           (0, 0, 1, 0, 0): 0, (0, 0, 0, 1, 0): Fraction(6, 3),
                           (0, 0, 0, 0, 1): Fraction(0)})
        assert p.terms == {(1, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 1, 0): 2}
        assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
        q = P("1/2*x - 3/4*y") * 4 + P("1/3*z")
        assert [type(c) for c in q.terms.values()] == [int, int, Fraction]

    def test_no_float_coefficient(self):
        # "there is no floating point anywhere": a float is refused, not rounded
        x = P("x")
        for make in (lambda: R.const(0.1), lambda: R.monomial(0.5, {"x": 1}),
                     lambda: x * 0.5, lambda: 0.5 * x, lambda: x + 0.25,
                     lambda: Polynomial(R, {(1, 0, 0, 0, 0): 1.0})):
            with pytest.raises(PolyError, match="not rational"):
                make()

    def test_negative_powers_stay_exact(self):
        l = R.var("l")
        assert (3 * l) ** -2 == P("1/9*l^-2")
        assert ((3 * l) ** -2).terms == {(0, 0, 0, 0, -2): Fraction(1, 9)}
        assert (P("1/3*l") ** -2).terms == {(0, 0, 0, 0, -2): 9}

    def test_context_mismatch(self):
        other = VariableContext(("x", "y"))
        with pytest.raises(ContextMismatch):
            P("x") + parse(other, "x")

    def test_pow_negative_unit(self):
        assert P("2*l^3") ** -2 == P("1/4*l^-6")
        assert P("-l^-2") ** -3 == P("-l^6")
        with pytest.raises(PolyError):
            P("x + y") ** -1
        for plain in ("x", "2*x*l"):
            with pytest.raises(PolyError, match="non-invertible variable 'x'"):
                P(plain) ** -1

    def test_scalar_coercion(self):
        assert P("x") * 2 - P("2*x") == R.zero()
        assert 1 + P("x") == P("x + 1")

    def test_cancellation_leaves_no_term(self):
        assert len((P("x + y") * P("x - y")).terms) == 2
        p = P("4*x*z - y^2 - l^3*w^2")
        assert (p - p).terms == {}

    def test_no_stored_zero_coefficient(self):
        # two variables and low degrees make terms collide and cancel
        S = VariableContext(("x", "y"), invertible={"y"})
        maps = [
            SubstitutionMap(S, S, {"x": parse(S, "-y"), "y": parse(S, "y^-1")}),
            SubstitutionMap(S, S, {"x": parse(S, "x + y"), "y": parse(S, "-y")}),
        ]
        rng = random.Random(15)
        cancelled = 0
        for _ in range(200):
            p = random_polynomial(rng, S, max_degree=2, allow_laurent=True)
            q = random_polynomial(rng, S, max_degree=2, allow_laurent=True)
            results = [p + q, p - q, p * q, derivative(p, "x"), derivative(p, "y")]
            results += [sub.apply(p) for sub in maps]
            assert all(c != 0 for r in results for c in r.terms.values())
            cancelled += any(p.terms.get(e) == -c for e, c in q.terms.items())
        assert cancelled > 0

    def test_never_equal_to_a_number(self):
        # equal objects must hash equal, and a constant polynomial does not
        # hash like the number it carries
        assert R.const(1) != 1 and R.zero() != 0
        assert {R.const(1): "one"}.get(1) is None


class TestRingAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(20260809)
        ring = VariableContext(("x", "y", "z", "w", "v"))
        for _ in range(1000):
            p = random_polynomial(rng, ring, max_degree=4)
            q = random_polynomial(rng, ring, max_degree=4)
            r = random_polynomial(rng, ring, max_degree=4)
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert (p * q) * r == p * (q * r)

    def test_normalization_canonicity(self):
        # the same polynomial assembled along different operation orders
        a = (P("x") + P("y")) * (P("x") - P("y"))
        b = P("x") * P("x") - P("y") * P("y")
        c = P("x^2") + P("-1") * P("y^2")
        assert a == b == c
        assert hash(a) == hash(b)


class TestSubstitution:
    def test_gluing_instance(self):
        # twist-3 chart equation rewritten through the chart transition
        glue = SubstitutionMap(
            R,
            R,
            {
                "x": P("x"),
                "y": P("y"),
                "z": P("z"),
                "w": P("w*l^2"),
                "l": P("l^-1"),
            },
        )
        assert glue.apply(P("4*x*z - y^2 - l^3*w^2")) == P("4*x*z - y^2 - l*w^2")

    def test_identity_substitution(self):
        p = P("4*x*z - y^2 - l^3*w^2")
        assert SubstitutionMap(R, R, {n: R.var(n) for n in R.names}).apply(p) == p

    def test_full_expansion_cancels(self):
        # quadratic parametrization kills 3e^2 - 8cf + 4 f l g at twist 1
        F = VariableContext(("a", "b", "c", "e", "f", "g", "l"), invertible={"l"})
        phi = SubstitutionMap(
            F,
            R,
            {
                "a": P("x^2"),
                "b": P("2*x*y"),
                "c": P("2*x*z + y^2"),
                "e": P("2*y*z"),
                "f": P("z^2"),
                "g": P("l^-1") * P("4*x*z - y^2"),
                "l": P("l"),
            },
        )
        assert phi.apply(parse(F, "3*e^2 - 8*c*f + 4*f*l*g")).is_zero()

    def test_unassigned_variable(self):
        with pytest.raises(PolyError):
            SubstitutionMap(R, R, {"x": P("x")})

    def test_invertible_needs_single_term_image(self):
        images = {n: R.var(n) for n in R.names}
        images["l"] = P("x + 1")
        with pytest.raises(PolyError):
            SubstitutionMap(R, R, images)

    def test_monomial_change_of_variables_round_trip(self):
        rng = random.Random(7)
        fwd = SubstitutionMap(
            R,
            R,
            {
                "x": P("2*y"),
                "y": P("x"),
                "z": P("z*l^2"),
                "w": P("w"),
                "l": P("l^-1"),
            },
        )
        inv = SubstitutionMap(
            R,
            R,
            {
                "x": P("y"),
                "y": P("1/2*x"),
                "z": P("z*l^2"),
                "w": P("w"),
                "l": P("l^-1"),
            },
        )
        for _ in range(50):
            p = random_polynomial(rng, R, max_degree=4, allow_laurent=True)
            assert inv.apply(fwd.apply(p)) == p


class TestMonomialMap:
    """``VariableContext.monomial_map`` against the maps it replaces, built by hand."""

    CHART = VariableContext(("x", "y", "z", "l"))

    def test_namesakes_by_default(self):
        wide = R.extend(("t",))
        namesakes = {n: wide.var(n) for n in R.names}
        assert R.monomial_map(wide, {}) == SubstitutionMap(R, wide, namesakes)
        p = P("4*x*z - y^2 - l^-3*w^2")
        assert R.monomial_map(R, {}).apply(p) == p

    def test_exponent_overrides(self):
        glue = R.monomial_map(R, {"w": {"w": 1, "l": 2}, "l": {"l": -1}})
        images = {"x": P("x"), "y": P("y"), "z": P("z"), "w": P("w*l^2"), "l": P("l^-1")}
        assert glue == SubstitutionMap(R, R, images)
        assert glue.apply(P("4*x*z - y^2 - l^3*w^2")) == P("4*x*z - y^2 - l*w^2")

    def test_empty_powers_send_a_variable_to_one(self):
        affine = R.monomial_map(self.CHART, {"w": {}})
        assert affine("w") == self.CHART.one()
        assert affine.apply(P("4*x*z - y^2 - l^3*w^2")) == parse(self.CHART, "4*x*z - y^2 - l^3")

    @pytest.mark.parametrize(
        "target, powers",
        [(R, {"q": {"x": 1}}), (R, {"x": {"q": 1}}), (VariableContext(("x", "y")), {})],
        ids=["unknown-source", "unknown-target", "no-namesake"],
    )
    def test_unknown_name_raises(self, target, powers):
        with pytest.raises(PolyError):
            R.monomial_map(target, powers)

    def test_non_unit_image_of_an_invertible_variable_is_rejected(self):
        # l is a unit of R; neither x nor the chart's plain l is one of its target
        for sub, image in ((R.monomial_map(R, {"l": {"x": 1}}), P("x^2*y")),
                           (R.monomial_map(self.CHART, {"w": {}}), parse(self.CHART, "l^2*y"))):
            assert sub.apply(P("y*l^2")) == image
            with pytest.raises(PolyError, match="non-invertible"):
                sub.apply(P("y*l^-1"))


#: Target ring of the random monomial maps: two plain and two Laurent variables.
T = VariableContext(("u", "v", "m", "n"), invertible={"m", "n"})

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3), Fraction(5, 2))


def random_monomial_map(rng: random.Random, source: VariableContext, target: VariableContext):
    """Each source variable to a coefficient times a target monomial.

    Laurent exponents go on invertible target variables only, and an
    invertible source variable is sent to invertible target variables only,
    so every source polynomial has an image.
    """
    images = {}
    for name in source.names:
        powers = {}
        for t in target.names:
            if t in target.invertible:
                powers[t] = rng.randint(-2, 2)
            elif name not in source.invertible:
                powers[t] = rng.randint(0, 2)
        images[name] = target.monomial(rng.choice(COEFFS), powers)
    return SubstitutionMap(source, target, images)


class TestExponentPath:
    """``apply`` on exponents against the generic expansion ``_expand``."""

    @pytest.mark.parametrize("target", [R, T], ids=["same-ring", "other-ring"])
    def test_agrees_with_expansion_on_random_maps(self, target):
        rng = random.Random(41)
        for _ in range(60):
            sub = random_monomial_map(rng, R, target)
            assert sub._monomial is not None
            for _ in range(5):
                p = random_polynomial(rng, R, max_degree=4, max_terms=6, allow_laurent=True)
                assert sub.apply(p) == sub._expand(p)

    def test_collisions_into_a_small_ring(self):
        # three source variables onto one Laurent variable: terms collide
        small = VariableContext(("m",), invertible={"m"})
        rng = random.Random(5)
        cancelled = 0
        for _ in range(200):
            sub = random_monomial_map(rng, R, small)
            p = random_polynomial(rng, R, max_degree=3, max_terms=6, allow_laurent=True)
            image = sub.apply(p)
            assert image == sub._expand(p)
            cancelled += len(image.terms) < len(p.terms)
        assert cancelled > 0

    def test_terms_cancel(self):
        sub = SubstitutionMap(
            R, T, {"x": parse(T, "u*m^-1"), "y": parse(T, "-u"), "z": parse(T, "v"),
                   "w": parse(T, "-1"), "l": parse(T, "m")}
        )
        p = P("x*l + y - w*z - z")
        assert sub.apply(p).is_zero()
        assert sub._expand(p).is_zero()
        assert sub.apply(P("w^3 + 1")).is_zero()

    def test_coefficient_minus_one_and_laurent_powers(self):
        sub = SubstitutionMap(
            R, R, {"x": P("-x"), "y": P("-1/2*y*l^-1"), "z": P("z"), "w": P("-w*l^2"),
                   "l": P("-l^-1")}
        )
        p = P("x^3*l^-2 + y^2*w - 3*z*l^5")
        assert sub.apply(p) == P("-x^3*l^2 - 1/4*y^2*w + 3*z*l^-5")
        assert sub.apply(p) == sub._expand(p)

    def test_negative_power_on_a_plain_variable_raises(self):
        # l is invertible in the source, its image u is not in the target
        images = {n: T.var("v") for n in R.names}
        images["l"] = T.var("u")
        sub = SubstitutionMap(R, T, images)
        assert sub.apply(P("x*l^2")) == parse(T, "u^2*v")
        for route in (sub.apply, sub._expand):
            with pytest.raises(PolyError):
                route(P("x*l^-1"))

    def test_coefficient_under_a_negative_exponent_stays_exact(self):
        images = {n: R.var(n) for n in R.names}
        images["l"] = P("3*l")
        sub = SubstitutionMap(R, R, images)
        assert sub._monomial is not None
        assert sub.apply(P("x*l^-1 + l^-2")) == P("1/3*x*l^-1 + 1/9*l^-2")
        assert sub.apply(P("x*l^-1 + l^-2")) == sub._expand(P("x*l^-1 + l^-2"))

    def test_non_monomial_image_takes_the_expansion(self):
        images = {n: R.var(n) for n in R.names}
        images["x"] = P("x + y")
        sub = SubstitutionMap(R, R, images)
        assert sub._monomial is None
        assert sub.apply(P("x^2*l^-1")) == P("x^2*l^-1 + 2*x*y*l^-1 + y^2*l^-1")


class TestUnitsAndNormalForms:
    def test_primitive_integer_form(self):
        assert primitive_integer_form(P("1/2*x + 3/4*y")) == P("2*x + 3*y")
        assert primitive_integer_form(P("-2*x^2 - 4*y")) == P("x^2 + 2*y")
        assert primitive_integer_form(R.zero()) == R.zero()

    def test_primitive_integer_form_on_random_polynomials(self):
        rng = random.Random(20261018)
        for _ in range(300):
            p = random_polynomial(rng, R, max_degree=4, allow_laurent=True)
            q = primitive_integer_form(p)
            coeffs = list(q.terms.values())
            assert all(c.denominator == 1 for c in coeffs)
            assert math.gcd(*(c.numerator for c in coeffs)) == 1
            assert q.leading_term()[1] > 0
            ratio = Fraction(q.leading_term()[1]) / p.leading_term()[1]
            assert q == p * ratio


class TestTextFormat:
    CASES = [
        "4*x*z - y^2 - l^3*w^2",
        "0",
        "-1/2",
        "x",
        "l^-3*w + 2/3",
        "x^2*y^3*z - 7*w",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_print_parse_round_trip(self, text):
        p = P(text)
        assert parse(R, format_polynomial(p)) == p

    def test_round_trip_on_random(self):
        rng = random.Random(3)
        for _ in range(200):
            p = random_polynomial(rng, R, max_degree=4, allow_laurent=True)
            assert parse(R, format_polynomial(p)) == p

    @pytest.mark.parametrize(
        "suite", ["verify-quadric", "verify-f4", "verify-quotient", "equivariance"]
    )
    def test_goldens_read_back(self, suite):
        Q, F = QUADRIC_CHART_RING, F4_CHART_RING
        read = 0
        for line in (GOLDENS / f"{suite}.jsonl").read_text().splitlines():
            report = json.loads(line)
            if suite == "equivariance":
                chart = Q if report["params"]["family"] == "quadric" else F
                ring = chart.extend(("xi",), invertible=("xi",))
                fields = {"action_then_glue": ring, "glue_then_action": ring}
            else:
                fields = {
                    "verify-quadric": {"generator": Q, "image": Q},
                    "verify-f4": {"generator": F, "image": F},
                    "verify-quotient": {"generator": F, "pullback": Q},
                }[suite]
            for witness in report["witnesses"]:
                for name in fields.keys() & witness.keys():
                    assert str(parse(fields[name], witness[name])) == witness[name]
                    read += 1
        assert read > 0

    def test_parse_errors(self):
        for bad in ("", "x +", "4 % z", "(x", "q"):
            with pytest.raises((ParseError, PolyError)):
                P(bad)

    def test_ordering_is_descending(self):
        assert format_polynomial(P("1 + x + x^2")) == "x^2 + x + 1"

    def test_printed_form_is_cached_and_ignored_by_equality(self):
        p = P("4*x*z - y^2 - l^3*w^2")
        q = P("4*x*z - l^3*w^2") - P("y^2")  # equal, built separately
        assert str(p) is str(p)
        assert not hasattr(q, "_text")  # p is formatted, q not yet
        assert p == q and hash(p) == hash(q)
        assert str(q) == str(p)
        with pytest.raises(AttributeError):
            p._text = "x"


def textbook_grevlex(a, b) -> int:
    """Grevlex as a comparison, -1 when a is the larger monomial: the larger
    total degree wins, then the smaller exponent of the last variable where
    the two differ."""
    if sum(a) != sum(b):
        return -1 if sum(a) > sum(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


class TestGrevlex:
    def test_key_sorts_as_the_textbook_order(self):
        rng = random.Random(40)
        for _ in range(300):
            n = rng.randint(1, 5)
            exps = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 8))]
            assert sorted(exps, key=grevlex) == sorted(exps, key=cmp_to_key(textbook_grevlex))

    def test_leading_term_is_printed_first(self):
        rng = random.Random(41)
        for _ in range(200):
            p = random_polynomial(rng, R, max_terms=6, allow_laurent=True)
            exp, coeff = p.leading_term()
            assert re.split(r" [+-] ", str(p))[0] == str(R.from_terms({exp: coeff})), p
