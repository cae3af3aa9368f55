"""Chart construction, gluing, adjudication, quotient and singular loci."""

import json
import math
import random
from fractions import Fraction

import pytest

from qhv import cli, degenerations, group_actions, ideals
from qhv.degenerations import (
    FAMILIES,
    ConstructionError,
    INFINITY,
    ZERO,
    adjudicate_f4_generators,
    derive_f4_ideal,
    f4_chart,
    glued_family,
    gluing_map,
    quadric_chart,
    quadric_generator,
    quadric_singular_loci,
    reference_f4_generators,
    variant_f4_generators,
    verify_embedding,
    verify_equivariance,
    verify_gluing,
    verify_quotient,
)
from qhv.group_actions import F4_CHART_RING, QUADRIC_CHART_RING, apply, sl2_v2_triple, sl2_v4_triple
from qhv.ideals import (
    Ideal,
    contains,
    jacobian_ideal,
    eliminate,
    gauss_jordan,
    primitive_integer_form,
    span_coordinates,
)
from qhv.polyring import Polynomial, SubstitutionMap, VariableContext, convert_context, grevlex
from linalg_oracle import is_member_up_to
from oracles import (
    adjudicate_f4_per_twist,
    embedding_substitution,
    verify_embedding_per_twist,
    verify_quotient_per_twist,
)
from polytext import parse

R = QUADRIC_CHART_RING
F4 = F4_CHART_RING


class TestCharts:
    def test_quadric_chart_parity(self):
        with pytest.raises(ConstructionError):
            quadric_chart(2, ZERO)
        with pytest.raises(ConstructionError):
            quadric_chart(-1, ZERO)

    def test_quadric_chart_torus_weights(self):
        assert quadric_chart(3, ZERO).torus.weights == {"w": -3, "l": 2}
        assert quadric_chart(3, INFINITY).torus.weights == {"w": 3, "l": -2}

    def test_f4_chart_any_nonnegative_twist(self):
        chart = f4_chart(0, ZERO)
        # twist 0 leaves no trace of the base parameter in the generators
        l = chart.ideal.ring.index("l")
        assert all(exp[l] == 0 for g in chart.ideal.generators for exp in g.terms)
        with pytest.raises(ConstructionError):
            f4_chart(-1, ZERO)
        with pytest.raises(ConstructionError, match="unknown chart id"):
            f4_chart(1, "middle")

    def test_f4_chart_contains_recorded_generators(self):
        gens = set(map(str, f4_chart(1, ZERO).ideal.generators))
        assert "4*f*g*l + 3*e^2 - 8*c*f" in gens
        assert "2*g^2*l^2 + 2*c*g*l + 3*b*e - 48*a*f" in gens


def _saturated(ideal: Ideal) -> bool:
    """I : l^oo = I, with l an ordinary variable: eliminating u from
    I + (u*l - 1) gives back the reduced basis of I (Cox, Little and
    O'Shea, *Ideals, Varieties, and Algorithms*, section 4.4)."""
    plain = VariableContext(ideal.ring.names)
    ext = VariableContext(("u",) + ideal.ring.names)
    gens = [convert_context(g, ext) for g in ideal.generators]
    saturation = eliminate(Ideal(gens + [ext.var("u") * ext.var("l") - 1]), {"u"})
    polynomial = Ideal([convert_context(g, plain) for g in ideal.generators])
    return saturation.groebner_basis() == polynomial.groebner_basis()


@pytest.mark.parametrize("side", [ZERO, INFINITY])
@pytest.mark.parametrize(
    "chart, k",
    [(quadric_chart, k) for k in range(1, 14, 2)] + [(f4_chart, k) for k in range(8)],
)
def test_chart_ideal_is_saturated(chart, k, side):
    # the engine's answers over Q[.., l] are the Laurent answers over
    # Q[.., l^+-1] because every chart ideal is saturated in l
    assert _saturated(chart(k, side).ideal)


def test_saturation_check_sees_l_torsion():
    # l*x lies in (x^2 - l*x, x^2), x does not
    S = VariableContext(("x", "l"), invertible={"l"})
    assert not _saturated(Ideal([parse(S, "x^2 - l*x"), parse(S, "x^2")]))
    assert _saturated(Ideal([parse(S, "x^2 - l*x")]))


class TestDeriveF4:
    def test_six_quadrics(self):
        gens = derive_f4_ideal(1).generators
        assert len(gens) == 6
        phi = embedding_substitution(1)
        for g in gens:
            assert phi.apply(g).is_zero()
        assert verify_embedding(1)[0]

    def test_twist_free_quadrics_are_the_reduced_echelon_form(self):
        gens = degenerations._twist_free_f4_generators()
        ring = gens[0].ring
        assert len(gens) == 6
        assert all(sum(exp) == 2 for g in gens for exp in g.terms)
        for g in gens:
            coeffs = list(g.terms.values())
            assert all(c.denominator == 1 for c in coeffs)
            assert math.gcd(*(c.numerator for c in coeffs)) == 1
            assert g.leading_term()[1] > 0
        leads = [g.leading_term()[0] for g in gens]
        keys = [grevlex(m) for m in leads]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # descending leading monomials
        for i, g in enumerate(gens):
            assert not any(m in g.terms for j, m in enumerate(leads) if j != i)
        # the reference route: Gauss-Jordan over the coefficient rows
        monoms = sorted({m for g in gens for m in g.terms}, key=grevlex)
        rows = gauss_jordan([[g.terms.get(m, Fraction(0)) for m in monoms] for g in gens])
        echelon = [primitive_integer_form(Polynomial(ring, dict(zip(monoms, row)))) for row in rows]
        assert tuple(echelon) == gens

    def test_adjudication_reference_members(self):
        matched, rows = adjudicate_f4_generators(1)
        assert matched
        reference_flags = [r["member"] for r in rows if r["source"] == "reference"]
        assert reference_flags == [True] * 6

    def test_adjudication_flags_variant_discrepancy(self):
        variant_rows = [r for r in adjudicate_f4_generators(1)[1] if r["source"] == "variant"]
        flags = [r["member"] for r in variant_rows]
        # exactly one transcription deviates from the kernel
        assert flags == [True, True, True, True, False, True]
        assert "6*a*c" in variant_rows[4]["generator"]

    def test_memberships_equal_the_engine_verdicts(self):
        kernel = Ideal(degenerations._twist_free_f4_generators())
        reference = Ideal(degenerations._twist_free_rows())
        variant = degenerations._twist_free_rows(variant=True)
        assert degenerations._f4_memberships() == {
            "reference": tuple(contains(kernel, p) for p in reference.generators),
            "variant": tuple(contains(kernel, p) for p in variant),
            "derived": tuple(contains(reference, g) for g in kernel.generators),
        }

    def test_memberships_are_questions_about_quadrics(self):
        # the grading that makes a span verdict False exactly off the ideal
        forms = (degenerations._twist_free_f4_generators() + degenerations._twist_free_rows()
                 + degenerations._twist_free_rows(variant=True))
        assert {p.ring.names for p in forms} == {("a", "b", "c", "e", "f", "t")}
        assert {sum(exp) for p in forms for exp in p.terms} == {2}

    def test_variant_nonmember_by_independent_oracle(self):
        bad = variant_f4_generators()[4]
        gens = list(derive_f4_ideal(1).generators)
        assert not is_member_up_to(bad, gens, 2)

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_reference_list_members_other_twists(self, k):
        derived = derive_f4_ideal(k)
        for p in reference_f4_generators(k):
            assert contains(derived, p)

    def test_uniformity_in_twist(self):
        # renaming l^k g to t gives the same l-free generators for every k
        T = VariableContext(("a", "b", "c", "e", "f", "t", "l"), invertible={"l"})
        images = {n: T.var(n) for n in ("a", "b", "c", "e", "f", "l")}
        lists = []
        for k in range(4):
            rename = SubstitutionMap(F4, T, {**images, "g": T.monomial(1, {"l": -k, "t": 1})})
            lists.append([rename.apply(g) for g in derive_f4_ideal(k).generators])
        assert all(exp[T.index("l")] == 0 for g in lists[0] for exp in g.terms)
        assert all(entry == lists[0] for entry in lists)

    @pytest.mark.parametrize("k", range(4))
    def test_generates_the_per_twist_kernel(self, k):
        # eliminate x, y, z from the twist-k graph relations with l invertible
        P = VariableContext(("x", "y", "z", "a", "b", "c", "e", "f", "g", "l"), invertible={"l"})
        relations = ["a - x^2", "b - 2*x*y", "c - 2*x*z - y^2", "e - 2*y*z", "f - z^2",
                     f"l^{k}*g - 4*x*z + y^2"]
        kernel = eliminate(Ideal([parse(P, r) for r in relations]), {"x", "y", "z"})
        assert kernel.groebner_basis() == derive_f4_ideal(k).groebner_basis()

    def test_one_elimination_for_all_twists(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return eliminate(*args)

        monkeypatch.setattr(degenerations, "eliminate", counting)
        degenerations.derive_f4_ideal.cache_clear()
        degenerations._twist_free_f4_generators.cache_clear()
        for k in range(4):
            derive_f4_ideal(k)
        assert len(calls) == 1


class TestGluing:
    def test_gluing_map_images(self):
        glue = gluing_map("quadric", 3, 1)
        assert glue("w") == parse(R, "w*l^2")
        assert glue("l") == parse(R, "l^-1")
        glue4 = gluing_map("f4", 1, 1)
        assert glue4("g") == parse(F4, "g*l^2")
        assert glue4("l") == parse(F4, "l^-1")

    def test_gluing_parity_errors(self):
        with pytest.raises(ConstructionError):
            gluing_map("quadric", 2, 2)
        with pytest.raises(ConstructionError):
            gluing_map("quadric", 1, 2)
        with pytest.raises(ConstructionError):
            gluing_map("f4", -1, 0)

    def test_unknown_family_rejected_before_any_chart(self, monkeypatch):
        def no_chart(*args):
            raise AssertionError("a chart was built")

        for name in ("quadric_chart", "f4_chart"):
            monkeypatch.setattr(degenerations, name, no_chart)
        with pytest.raises(ConstructionError, match="unknown family"):
            glued_family("p3", 1, 1)

    def test_quadric_gluing_3_1(self):
        fam = glued_family("quadric", 3, 1)
        passed, witnesses = verify_gluing(fam)
        assert passed
        (witness,) = witnesses
        assert witness["cleared_power"] == 3
        # exact equality: the image is the other chart equation
        assert parse(R, witness["image"]) == quadric_generator(1)

    def test_quadric_gluing_1_1(self):
        passed, witnesses = verify_gluing(glued_family("quadric", 1, 1))
        assert passed
        assert witnesses[0]["cleared_power"] == 1

    def test_f4_gluing_1_1(self):
        passed, witnesses = verify_gluing(glued_family("f4", 1, 1))
        assert passed
        assert len(witnesses) == 6

    @pytest.mark.parametrize("pair", [(1, 3), (5, 1), (3, 3)])
    def test_quadric_gluing_range(self, pair):
        assert verify_gluing(glued_family("quadric", *pair))[0]


def _with_infinity_generators(fam, generators):
    chart_inf = fam.chart_inf._replace(ideal=Ideal(generators))
    return fam._replace(chart_inf=chart_inf)


class TestGluingCertificate:
    """The certificate is the literal match; every gluing of ``qhv all``
    passes it in test_cli."""

    def test_permuted_presentation_fails(self):
        fam = glued_family("f4", 2, 3)
        permuted = _with_infinity_generators(fam, fam.chart_inf.ideal.generators[::-1])
        passed, witnesses = verify_gluing(permuted)
        assert passed is False
        assert len(witnesses) == 6

    @pytest.mark.parametrize("family, k, l, n", [("quadric", 3, 5, 1), ("f4", 1, 2, 6)])
    def test_rescaled_presentation_fails(self, family, k, l, n):
        fam = glued_family(family, k, l)
        ring = fam.chart_inf.ideal.ring
        rescaled = [
            ring.monomial(1, {"l": m + 1}) * g for m, g in enumerate(fam.chart_inf.ideal.generators)
        ]
        passed, witnesses = verify_gluing(_with_infinity_generators(fam, rescaled))
        assert passed is False
        assert len(witnesses) == n

    @pytest.mark.parametrize("family, k, l", [("quadric", 3, 1), ("f4", 1, 2)])
    def test_wrong_twist_exponent_fails(self, family, k, l):
        # the marked coordinate twisted by l^(degree (k+l+2)/2) instead of
        # l^(degree (k+l)/2)
        fam = glued_family(family, k, l)
        spec = degenerations.FAMILIES[family]
        ring = spec.ring
        images = dict(fam.gluing.assignments)
        images[spec.marked] = ring.monomial(
            1, {spec.marked: 1, "l": spec.degree * (k + l + 2) // 2}
        )
        wrong = fam._replace(gluing=SubstitutionMap(ring, ring, images))
        assert verify_gluing(wrong)[0] is False


class TestEquivariance:
    def test_quadric_3_1_composites(self):
        fam = glued_family("quadric", 3, 1)
        passed, witnesses = verify_equivariance(fam)
        assert passed
        rows = {r["variable"]: r for r in witnesses}
        # the scaling parameter identity and the twisted-coordinate identity
        assert rows["l"]["action_then_glue"] == "l^-1*xi^2"
        assert rows["w"]["action_then_glue"] == "w*l^2*xi^-3"
        assert all(r["equal"] for r in witnesses)

    def test_identity_scaling_trivial(self):
        fam = glued_family("quadric", 1, 1)
        # scaling by xi^0 is the identity; the roundtrip degenerates
        assert verify_equivariance(fam)[0]

    def test_sl2_commutes_by_disjoint_support(self):
        # the per-pair reference for the once-per-family sl2 check: each
        # chart-ring operator commutes with every gluing, variable by variable
        for family, twists, triple in (
            ("quadric", (1, 3, 5, 7), sl2_v2_triple()),
            ("f4", (0, 1, 2, 3, 4), sl2_v4_triple()),
        ):
            for k in twists:
                for l in twists:
                    gluing = gluing_map(family, k, l)
                    for D in triple:
                        for n in D.ring.names:
                            assert gluing.apply(D.images[n]) == apply(D, gluing(n)), (k, l, n)


class TestSl2OncePerFamily:
    @pytest.fixture(autouse=True)
    def cold_charts(self):
        caches = (quadric_chart, f4_chart, degenerations._check_sl2)
        for cache in caches:
            cache.cache_clear()
        yield
        for cache in caches:
            cache.cache_clear()

    @pytest.mark.parametrize(
        "name,chart_triple", [("quadric", sl2_v2_triple), ("f4", sl2_v4_triple)]
    )
    def test_chart_triple_is_twist_free_triple_extended_by_zero(self, name, chart_triple):
        family = FAMILIES[name]
        free_ring = family.twist_free()[0].ring
        ring = family.ring
        dressed = (ring.index(family.marked), ring.index("l"))
        for D, free in zip(chart_triple(), family.sl2(free_ring)):
            assert free.images["t"].is_zero()
            for n in free_ring.names:
                if n != "t":
                    assert D.images[n] == convert_context(free.images[n], ring)
            assert D.images[family.marked].is_zero() and D.images["l"].is_zero()
            for img in D.images.values():
                assert not any(exp[i] for exp in img.terms for i in dressed)

    def test_all_checks_invariance_once_per_family(self, monkeypatch, capsys):
        calls = []
        check = degenerations.check_ideal_invariance

        def counting(I, T):
            calls.append(I)
            return check(I, T)

        monkeypatch.setattr(degenerations, "check_ideal_invariance", counting)
        assert cli.main(["all"]) == 0
        capsys.readouterr()
        assert len(calls) == 2

    def test_all_builds_each_triple_once_per_ring(self, monkeypatch, capsys):
        # the triples are not cached: one build per family check, and one
        # (x, y, z) triple that the five-variable triple is pushed forward from
        rings = {"sl2_v2_triple": [], "sl2_v4_triple": []}
        for name, seen in rings.items():
            build = getattr(group_actions, name)

            def counting(ring, build=build, seen=seen):
                seen.append(ring.names)
                return build(ring)

            for module in (group_actions, degenerations):
                monkeypatch.setattr(module, name, counting)
        assert cli.main(["all"]) == 0
        capsys.readouterr()
        assert sorted(rings["sl2_v2_triple"]) == [("x", "y", "z"), ("x", "y", "z", "t")]
        assert rings["sl2_v4_triple"] == [("a", "b", "c", "e", "f", "t")]

    @pytest.mark.parametrize("name", ["quadric", "f4"])
    def test_image_verdicts_equal_the_engine_verdicts(self, name):
        # every image the once-per-family check decides, with its coordinates
        family = FAMILIES[name]
        gens = family.twist_free()
        images = [apply(D, g) for D in family.sl2(gens[0].ring) for g in gens]
        coordinates = span_coordinates(images, gens)
        assert [c is not None for c in coordinates] == [contains(Ideal(gens), p) for p in images]
        for image, coords in zip(images, coordinates):
            assert sum((c * g for c, g in zip(coords, gens)), image.ring.zero()) == image

    def test_noninvariant_presentation_fails_every_chart(self, monkeypatch, capsys):
        quadric = FAMILIES["quadric"]
        ring = quadric.twist_free()[0].ring
        bad = ring.var("x") - ring.var("t")
        monkeypatch.setitem(
            FAMILIES, "quadric", quadric._replace(twist_free=lambda: (bad,))
        )
        for k in (1, 3, 5):
            for chart_id in (ZERO, INFINITY):
                with pytest.raises(ConstructionError, match="not sl2 invariant"):
                    quadric_chart(k, chart_id)
        assert f4_chart(1, ZERO).ideal.generators == derive_f4_ideal(1).generators
        assert cli.main(["verify", "quadric", "--k", "1", "--l", "1"]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        report = json.loads(line)
        assert report["status"] == "error"
        assert "not sl2 invariant" in report["witnesses"][0]["error"]


CHECKS = {
    "gluing": lambda: verify_gluing(glued_family("quadric", 3, 1)),
    "equivariance": lambda: verify_equivariance(glued_family("f4", 1, 2)),
    "adjudication": lambda: adjudicate_f4_generators(1),
    "embedding": lambda: verify_embedding(1),
    "quotient": lambda: verify_quotient(1),
    "singular-loci": lambda: quadric_singular_loci(3),
}


@pytest.mark.parametrize("name", CHECKS)
def test_check_returns_verdict_and_witness_rows(name):
    passed, witnesses = result = CHECKS[name]()
    assert (type(result), type(passed), type(witnesses)) == (tuple, bool, list)
    assert witnesses and all(type(w) is dict for w in witnesses)


@pytest.mark.parametrize("k", range(10))
def test_twist_free_reports_equal_the_per_twist_route(k):
    # the twist-free verdicts and images, dressed at k, against the engine at k
    assert adjudicate_f4_generators(k) == adjudicate_f4_per_twist(k)
    assert verify_embedding(k) == verify_embedding_per_twist(k)
    assert verify_quotient(k) == verify_quotient_per_twist(k)


class TestQuotient:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_quotient_membership_and_sign_invariance(self, k):
        passed, witnesses = verify_quotient(k)
        assert passed
        for row in witnesses:
            assert row["in_quadric_ideal"] and row["sign_invariant"]

    def test_hand_factorization_instance(self):
        # 3e^2 - 8cf + 4 f l g pulls back to -4 z^2 (4xz - y^2 - l w^2)
        sigma_images = {
            "a": parse(R, "x^2"),
            "b": parse(R, "2*x*y"),
            "c": parse(R, "2*x*z + y^2"),
            "e": parse(R, "2*y*z"),
            "f": parse(R, "z^2"),
            "g": parse(R, "w^2"),
            "l": R.var("l"),
        }
        sigma = SubstitutionMap(F4, R, sigma_images)
        pulled = sigma.apply(parse(F4, "3*e^2 - 8*c*f + 4*f*l*g"))
        assert pulled == parse(R, "-4*z^2") * quadric_generator(1)

    def test_pullbacks_even_in_w(self):
        for row in verify_quotient(2)[1]:
            pullback = parse(R, row["pullback"])
            assert all(
                exp[R.index("w")] % 2 == 0 for exp in pullback.terms
            )

    @pytest.fixture
    def cold_quotient(self):
        caches = (degenerations._embedding_images, degenerations._quotient_pullbacks)
        for cache in caches:
            cache.cache_clear()
        yield
        for cache in caches:
            cache.cache_clear()

    def test_verdict_is_membership_and_false_off_the_kernel(self, monkeypatch, cold_quotient):
        # the reference rows lie in the kernel, the variant's row 4 does not
        rows = degenerations._twist_free_rows()
        rows += degenerations._twist_free_rows(variant=True)
        monkeypatch.setattr(degenerations, "_twist_free_f4_generators", lambda: rows)
        quadric = Ideal([degenerations._TWIST_FREE_QUADRIC])
        verdicts = degenerations._quotient_pullbacks()
        assert len(verdicts) == len(rows) == 12
        for pullback, member in verdicts:
            assert member == contains(quadric, pullback)
        assert [i for i, (_, member) in enumerate(verdicts) if not member] == [10]

    def test_membership_decided_without_normal_form(self, monkeypatch, cold_quotient):
        # the kernel's derivation runs normal forms of its own, so it is warmed
        # first; a normal form from anywhere after that is counted
        degenerations._twist_free_f4_generators()
        calls, original = [], ideals.normal_form
        monkeypatch.setattr(ideals, "normal_form", lambda *a: calls.append(a) or original(*a))
        assert verify_quotient(1)[0]
        assert calls == []


class TestSingularLoci:
    def test_twist_one_smooth_everywhere(self):
        passed, rows = quadric_singular_loci(1)
        assert passed
        assert all(r["status"] == "smooth" for r in rows)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_higher_twists_single_point(self, k):
        passed, rows = quadric_singular_loci(k)
        charts = {r["chart"]: r for r in rows}
        assert passed
        assert charts["w"]["status"] == "single_point_origin"
        assert charts["w"]["vanishing_powers"] == {
            "x": 1,
            "y": 1,
            "z": 1,
            "l": k - 1,
        }
        for chart in ("x", "y", "z"):
            assert charts[chart]["status"] == "smooth"

    @pytest.mark.parametrize("k", [1, 3])
    def test_unit_ideal_read_off_the_reduced_basis(self, monkeypatch, k):
        # smoothness is the reduced basis [1], so no chart takes a normal form
        calls, original = [], ideals.normal_form
        monkeypatch.setattr(ideals, "normal_form", lambda *a: calls.append(a) or original(*a))
        assert quadric_singular_loci(k)[0]
        assert calls == []

    def test_twist_zero_smooth_everywhere(self):
        # 4xz - y^2 = w^2 is a smooth quadric; the w-chart point needs k >= 2
        passed, rows = quadric_singular_loci(0)
        assert passed
        assert all(r["status"] == "smooth" for r in rows)

    def test_negative_twist_rejected(self):
        with pytest.raises(ConstructionError, match="twist must be nonnegative"):
            quadric_singular_loci(-1)

    def test_vanishing_power_beyond_the_total_degree(self):
        # z^19 is in J and z^18 is not: a search up to the degree 5 of the
        # equation would miss it and call the locus more than a point
        C = VariableContext(("x", "y", "z"))
        locus = degenerations._locus_of_chart(parse(C, "-x^5 + y*z^4 + 3*y^3*z + x*y"))
        assert locus == {
            "status": "single_point_origin",
            "vanishing_powers": {"x": 5, "y": 2, "z": 19},
        }
        locus = degenerations._locus_of_chart(parse(C, "y^4*z + x^2*y*z^2 + 2*y*z^3"))
        assert locus["vanishing_powers"]["y"] == 7

    def test_vanishing_powers_are_least_by_membership(self):
        # each reported m is the least power of its coordinate in J
        rng = random.Random(26)
        C = VariableContext(("x", "y", "z"))
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                exp = [0, 0, 0]
                for _ in range(rng.randint(2, 6)):
                    exp[rng.randrange(3)] += 1
                terms[tuple(exp)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            equation = Polynomial(C, terms)
            J = jacobian_ideal(equation, C.names)
            locus = degenerations._locus_of_chart(equation)
            for name, m in locus.get("vanishing_powers", {}).items():
                if m is None:
                    continue
                assert contains(J, C.monomial(1, {name: m})), (equation, name, m)
                assert not contains(J, C.monomial(1, {name: m - 1})), (equation, name, m)
