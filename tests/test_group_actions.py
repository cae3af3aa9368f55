"""Derivations, sl2 triples, torus scalings, weight bases."""

import random

import pytest

from qhv import group_actions
from qhv.group_actions import (
    F4_CHART_RING,
    QUADRIC_CHART_RING,
    Derivation,
    TorusAction,
    apply,
    check_ideal_invariance,
    check_semi_invariance,
    sl2_v2_triple,
    sl2_v4_triple,
)
from qhv.ideals import Ideal
from qhv.polyring import PolyError, VariableContext
from qhv.degenerations import quadric_generator, derive_f4_ideal
from oracles import (
    brackets_hold_on_monomials,
    embedding_substitution,
    leibniz_holds,
    monomials_up_to_degree,
    quotient_substitution,
    scaling_identity_holds,
)
from polytext import parse
from randpoly import random_polynomial

R = QUADRIC_CHART_RING


def P(text):
    return parse(R, text)


def zero_images(ring):
    return {n: ring.zero() for n in ring.names}


class TestDerivationApply:
    def test_lowering_operator_kills_quadric(self):
        # per-variable images as in the standard convention write-up
        D = Derivation(R, {**zero_images(R), "y": P("2*x"), "z": P("y")})
        assert apply(D, P("4*x*z - y^2")).is_zero()

    def test_raising_operator_kills_quadric(self):
        D = Derivation(R, {**zero_images(R), "x": P("y"), "y": P("2*z")})
        assert apply(D, P("4*x*z - y^2")).is_zero()

    def test_constants_die(self):
        D = Derivation(R, {**zero_images(R), "x": P("y^3 + w")})
        assert apply(D, R.const(7)).is_zero()

    def test_laurent_exponents(self):
        D = Derivation(R, {**zero_images(R), "l": R.one()})
        assert apply(D, P("l^-1")) == P("-1*l^-2")

    def test_missing_image_rejected(self):
        with pytest.raises(PolyError):
            Derivation(R, {"x": R.zero()})

    @pytest.mark.parametrize(
        "images,message",
        [
            ({"x": R.zero()}, r"lacks images for \['l', 'w', 'y', 'z'\]"),
            ({**zero_images(R), "x": F4_CHART_RING.var("a")}, "image of 'x' lives in a different"),
            ({**zero_images(R), "q": R.var("x")}, r"images for unknown variables \['q'\]"),
            ({**zero_images(R), "q": R.zero()}, r"images for unknown variables \['q'\]"),
        ],
        ids=["missing", "other-ring", "unknown", "unknown-zero"],
    )
    def test_construction_errors(self, images, message):
        with pytest.raises(PolyError, match=message):
            Derivation(R, images)

    def test_leibniz_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(500):
            images = {
                n: random_polynomial(rng, R, max_degree=2, max_terms=2)
                if rng.random() < 0.7
                else R.zero()
                for n in R.names
            }
            D = Derivation(R, images)
            p = random_polynomial(rng, R, max_degree=3, allow_laurent=True)
            q = random_polynomial(rng, R, max_degree=3, allow_laurent=True)
            assert leibniz_holds(D, p, q)


class TestSl2Triples:
    def test_v2_weights(self):
        T = sl2_v2_triple()
        assert apply(T.H, P("y")).is_zero()
        assert apply(T.H, P("x")) == P("-2*x")
        assert apply(T.H, P("z")) == P("2*z")

    def test_v2_annihilates_quadric(self):
        T = sl2_v2_triple()
        for D in T:
            assert apply(D, P("4*x*z - y^2")).is_zero()

    def test_bracket_axiom_instance(self):
        T = sl2_v2_triple()
        x = P("x")
        assert apply(T.E, apply(T.F, x)) - apply(T.F, apply(T.E, x)) == apply(T.H, x)

    def test_brackets_on_monomials_degree_4(self):
        assert brackets_hold_on_monomials(sl2_v2_triple(), degree=4)
        assert brackets_hold_on_monomials(sl2_v4_triple(), degree=4)

    def test_monomial_enumeration_count(self):
        ring = VariableContext(("x", "y", "z"))
        assert len(monomials_up_to_degree(ring, 4)) == 35  # C(3+4,4)

    def test_embedding_constants_are_the_written_quadrics(self):
        XYZ = group_actions._XYZ
        assert list(group_actions.EMBEDDING_COMPONENTS) == list("abcef")
        constants = [
            *group_actions.EMBEDDING_COMPONENTS.values(),
            group_actions.QUADRIC_INVARIANT,
            quotient_substitution()("g"),
        ]
        written = ["x^2", "2*x*y", "2*x*z + y^2", "2*y*z", "z^2", "4*x*z - y^2"]
        expected = [parse(XYZ, t) for t in written] + [parse(R, "w^2")]
        assert constants == expected
        assert [str(c) for c in constants] == [
            "x^2", "2*x*y", "y^2 + 2*x*z", "2*y*z", "z^2", "-y^2 + 4*x*z", "w^2"
        ]

    def test_v4_pushforward_images(self):
        # frozen from the Leibniz push-forward through the embedding:
        # E(a)=E(x^2)=2x y = b, E(b)=2(y^2+2xz)=2c, E(c)=6yz=3e, E(e)=4z^2=4f
        T = sl2_v4_triple()
        F4 = F4_CHART_RING
        assert T.E.images["a"] == parse(F4, "b")
        assert T.E.images["b"] == parse(F4, "2*c")
        assert T.E.images["c"] == parse(F4, "3*e")
        assert T.E.images["e"] == parse(F4, "4*f")
        assert T.E.images["f"].is_zero()
        assert T.F.images["b"] == parse(F4, "4*a")
        assert T.F.images["c"] == parse(F4, "3*b")
        assert T.F.images["e"] == parse(F4, "2*c")
        assert T.F.images["f"] == parse(F4, "e")
        assert T.H.images["a"] == parse(F4, "-4*a")
        assert T.H.images["f"] == parse(F4, "4*f")

    @pytest.mark.parametrize(
        "build,ring,written",
        [
            (sl2_v2_triple, R, {
                "E": {"x": "y", "y": "2*z", "z": "0"},
                "H": {"x": "-2*x", "y": "0", "z": "2*z"},
                "F": {"x": "0", "y": "2*x", "z": "y"},
            }),
            (sl2_v4_triple, F4_CHART_RING, {
                "E": {"a": "b", "b": "2*c", "c": "3*e", "e": "4*f", "f": "0"},
                "H": {"a": "-4*a", "b": "-2*b", "c": "0", "e": "2*e", "f": "4*f"},
                "F": {"a": "0", "b": "4*a", "c": "3*b", "e": "2*c", "f": "e"},
            }),
        ],
        ids=["v2", "v4"],
    )
    def test_every_image_pinned(self, build, ring, written):
        T = build()
        for op, images in written.items():
            for name, text in images.items():
                assert getattr(T, op).images[name] == parse(ring, text), (op, name)

    def test_broken_bracket_rejected(self):
        # H sending z to 3z breaks [H,E] = 2E on y: [H,E](y) = 6z, not 4z
        x, y, z = (R.var(n) for n in "xyz")
        with pytest.raises(AssertionError, match="bracket relation fails"):
            group_actions._triple(
                R, {"x": y, "y": 2 * z}, {"x": -2 * x, "z": 3 * z}, {"y": 2 * x, "z": y}
            )

    def test_one_solve_per_operator(self, monkeypatch):
        solves = []
        solve = group_actions.ideals.gauss_jordan
        monkeypatch.setattr(
            group_actions.ideals, "gauss_jordan", lambda rows: solves.append(rows) or solve(rows)
        )
        sl2_v4_triple()
        assert len(solves) == 3

    def test_singular_embedding_basis_rejected(self, monkeypatch):
        # a basis in which the invariant repeats x^2 spans only five dimensions
        monkeypatch.setattr(group_actions, "QUADRIC_INVARIANT", parse(group_actions._XYZ, "x^2"))
        with pytest.raises(PolyError, match="singular re-expression system"):
            sl2_v4_triple()

    def test_invariant_coordinate_rejected(self, monkeypatch):
        # with c = y^2 the components no longer span an sl2-stable summand:
        # E(2xy) = 2y^2 + 4xz = 3c + (4xz - y^2) has invariant coordinate 1
        monkeypatch.setitem(group_actions.EMBEDDING_COMPONENTS, "c", parse(group_actions._XYZ, "y^2"))
        with pytest.raises(PolyError, match="leaves the span"):
            sl2_v4_triple()

    def test_v4_kills_dressed_coordinate(self):
        T = sl2_v4_triple()
        for D in T:
            assert D.images["g"].is_zero()
            assert D.images["l"].is_zero()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_v4_commutes_with_parametrization(self, k):
        # defining property of the push-forward: D' then substitute equals
        # substitute then D, for every chart coordinate
        phi = embedding_substitution(k)
        T4 = sl2_v4_triple()
        T2 = sl2_v2_triple()
        for D4, D2 in zip(T4, T2):
            for name in F4_CHART_RING.names:
                lhs = phi.apply(D4.images[name])
                rhs = apply(D2, phi(name))
                assert lhs == rhs


class TestInvarianceChecks:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_quadric_ideal_invariant(self, k):
        I = Ideal([quadric_generator(k)])
        assert check_ideal_invariance(I, sl2_v2_triple())

    def test_noninvariant_ideal(self):
        assert not check_ideal_invariance(Ideal([P("x")]), sl2_v2_triple())

    def test_non_member_among_mixed_degrees_raises(self):
        # E(x + w^2) = y is outside the span, and the grading that would make
        # that a non-member verdict does not hold
        with pytest.raises(PolyError, match="differ in degree"):
            check_ideal_invariance(Ideal([P("x + w^2")]), sl2_v2_triple())

    def test_unit_ideal_trivially_invariant(self):
        assert check_ideal_invariance(Ideal([R.one()]), sl2_v2_triple())

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_derived_f4_ideal_invariant(self, k):
        assert check_ideal_invariance(derive_f4_ideal(k), sl2_v4_triple())

    def test_quadric_semi_invariance(self):
        I = Ideal([quadric_generator(3)])
        action = TorusAction({"w": -3, "l": 2})
        assert check_semi_invariance(I, action)
        assert scaling_identity_holds(quadric_generator(3), action)

    def test_f4_semi_invariance(self):
        k = 2
        action = TorusAction({"g": -2 * k, "l": 2})
        assert check_semi_invariance(derive_f4_ideal(k), action)
        for g in derive_f4_ideal(k).generators:
            assert scaling_identity_holds(g, action)

    def test_mixed_weights_fail(self):
        assert not check_semi_invariance(
            Ideal([P("x + w")]), TorusAction({"x": 0, "w": -1})
        )


class TestWeights:
    def test_quadric_weight_zero(self):
        A = TorusAction({"x": -2, "y": 0, "z": 2})
        assert A.weight(P("4*x*z - y^2")) == 0
        assert A.weight(R.zero()) == 0

    def test_mixed_weights_signal(self):
        assert TorusAction({"x": -2, "y": 0, "z": 2}).weight(P("x + z")) is None

    def test_single_variable_weight(self):
        assert TorusAction({"w": -3}).weight(P("w")) == -3

    def test_weight_multiplicativity(self):
        rng = random.Random(11)
        ring = VariableContext(("x", "y", "z"))
        A = TorusAction({"x": -2, "y": 0, "z": 2})

        def homogeneous(weight_target):
            # build a weight-homogeneous polynomial by rejection
            while True:
                p = random_polynomial(rng, ring, max_degree=3, max_terms=2)
                if A.weight(p) == weight_target:
                    return p

        for target in (-2, 0, 2):
            assert A.weight(homogeneous(target) * homogeneous(-target)) == 0


class TestWeightBasis:
    # the weight vectors F^s m, .., m, .., E^s m of sl2_v2_triple around an
    # H-weight-0 middle vector m

    @staticmethod
    def chain(D, m, steps):
        out = []
        for _ in range(steps):
            m = apply(D, m)
            out.append(m)
        return out

    def test_middle_variable_chain(self):
        T = sl2_v2_triple()
        assert apply(T.H, P("y")).is_zero()
        assert self.chain(T.F, P("y"), 1) == [P("2*x")]
        assert self.chain(T.E, P("y"), 1) == [P("2*z")]

    def test_constant_middle(self):
        assert all(apply(D, R.const(5)).is_zero() for D in sl2_v2_triple())

    def test_five_dim_chain_from_pulled_back_middle(self):
        # c - l^k g pulled back to (x, y, z) is 2y^2 - 2xz, weight 0; two
        # raising and two lowering steps fill the five-dimensional chain
        T = sl2_v2_triple()
        middle = P("2*y^2 - 2*x*z")
        assert apply(T.H, middle).is_zero()
        assert self.chain(T.F, middle, 3) == [P("6*x*y"), P("12*x^2"), R.zero()]
        assert self.chain(T.E, middle, 3) == [P("6*y*z"), P("12*z^2"), R.zero()]

    def test_non_homogeneous_middle_rejected(self):
        # x + y is no H-weight vector: H maps it to -2x, not a multiple of it
        assert apply(sl2_v2_triple().H, P("x + y")) == P("-2*x")

    def test_trimming_of_vanishing_tails(self):
        T = sl2_v2_triple()
        for D in (T.E, T.F):  # E^2 y = F^2 y = 0
            assert self.chain(D, P("y"), 5)[1:] == [R.zero()] * 4
