"""Acceptance criteria: one test and one printed pass/fail line each.

Every assertion is an exact identity (rational arithmetic, integer lattice
values, transcript equality); the only tolerances are the stated wall-clock
budgets, pinned here as hard bounds.
"""

import random
import time
from pathlib import Path

from qhv import cli
from qhv.degenerations import (
    adjudicate_f4_generators,
    derive_f4_ideal,
    f4_chart,
    glued_family,
    quadric_chart,
    quadric_generator,
    quadric_singular_loci,
    reference_f4_generators,
    verify_embedding,
    verify_equivariance,
    verify_gluing,
    verify_quotient,
)
from qhv.group_actions import (
    F4_CHART_RING,
    QUADRIC_CHART_RING,
    apply,
    sl2_v2_triple,
    sl2_v4_triple,
)
from qhv.ideals import Ideal, jacobian_ideal, normal_form
from qhv.polyring import SubstitutionMap, VariableContext
from qhv.ruled import (
    A0,
    AINF,
    E0,
    EINF,
    DivisorClass,
    construct_twisted,
    figure1_normalize,
    homology_lemma_cases,
    minus_one_curves,
    quadric_blowup,
    replay_reversed,
)
from qhv.singular import CyclicQuotient, classify_terminal_types, is_terminal, wps_singularity_report
from linalg_oracle import is_member_bounded, is_member_up_to
from oracles import (
    brackets_hold_on_monomials,
    intersect,
    is_groebner_basis,
    leibniz_holds,
    monomials_up_to_degree,
)
from polytext import parse
from randpoly import random_polynomial, random_ring

QUADRIC_TWISTS = (1, 3, 5, 7, 9)
F4_TWISTS = (0, 1, 2, 3)
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"


def _line(number: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {text}")


def test_criterion_01_gluing_identity():
    start = time.perf_counter()
    ok = True
    for k in QUADRIC_TWISTS:
        for l in QUADRIC_TWISTS:
            fam = glued_family("quadric", k, l)
            image = fam.gluing.apply(fam.chart0.ideal.generators[0])
            ok = ok and image == quadric_generator(l)
            ok = ok and verify_gluing(fam)[0]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _line(1, ok, f"gluing carries each zero-chart equation to the infinity-chart "
                 f"equation exactly ({elapsed:.2f}s)")
    assert ok


def test_criterion_02_equivariance():
    ext = QUADRIC_CHART_RING.extend(("xi",), invertible=("xi",))
    ok = True
    for k in QUADRIC_TWISTS:
        for l in QUADRIC_TWISTS:
            fam = glued_family("quadric", k, l)
            passed, witnesses = verify_equivariance(fam)
            ok = ok and passed
            rows = {r["variable"]: r for r in witnesses}
            # the scaling parameter identity and the twisted-coordinate identity
            expected_l = parse(ext, "l^-1*xi^2")
            expected_w = ext.monomial(1, {"w": 1, "l": (k + l) // 2, "xi": -k})
            ok = ok and parse(ext, rows["l"]["action_then_glue"]) == expected_l
            ok = ok and parse(ext, rows["l"]["glue_then_action"]) == expected_l
            ok = ok and parse(ext, rows["w"]["action_then_glue"]) == expected_w
            ok = ok and parse(ext, rows["w"]["glue_then_action"]) == expected_w
    _line(2, ok, "torus action and gluing commute as polynomial identities in xi")
    assert ok


def test_criterion_03_sl2_stability():
    ok = True
    for k in QUADRIC_TWISTS:
        I = quadric_chart(k).ideal
        T = sl2_v2_triple()
        for D in T:
            for g in I.generators:
                ok = ok and normal_form(apply(D, g), I).is_zero()
    for k in F4_TWISTS:
        I = f4_chart(k).ideal
        T = sl2_v4_triple()
        for D in T:
            for g in I.generators:
                ok = ok and normal_form(apply(D, g), I).is_zero()
    _line(3, ok, "every raising/weight/lowering image reduces to normal form 0")
    assert ok


def test_criterion_04_embedding_identity():
    ok = all(verify_embedding(k)[0] for k in F4_TWISTS)
    _line(4, ok, "the quadratic parametrization annihilates all derived "
                 "generators for twists 0..3")
    assert ok


def test_criterion_05_quotient_identity():
    ok = True
    for k in F4_TWISTS:
        passed, witnesses = verify_quotient(k)
        ok = ok and passed
        ok = ok and all(row["in_quadric_ideal"] and row["sign_invariant"] for row in witnesses)
    _line(5, ok, "derived generators pull back into the quadric ideal and are "
                 "fixed by the sign involution")
    assert ok


def test_criterion_06_generator_adjudication(capsys):
    ok = True
    for k in F4_TWISTS:
        matched, _ = adjudicate_f4_generators(k)
        ok = ok and matched
    variant_flags = [
        row["member"]
        for row in adjudicate_f4_generators(1)[1]
        if row["source"] == "variant"
    ]
    ok = ok and variant_flags == [True, True, True, True, False, True]
    # deterministic golden file, duration excluded from the comparison
    code = cli.main(["verify", "f4", "--golden", str(GOLDEN_DIR)])
    capsys.readouterr()
    ok = ok and code == 0
    _line(6, ok, "derived ideal matches the recorded six member-by-member; "
                 "exactly the known transcription deviation is a non-member")
    assert ok


def test_criterion_07_smoothness_and_singularity():
    passed1, rows1 = quadric_singular_loci(1)
    ok = passed1 and all(r["status"] == "smooth" for r in rows1)
    for k in (3, 5):
        passed, rows = quadric_singular_loci(k)
        charts = {r["chart"]: r for r in rows}
        ok = ok and passed
        ok = ok and charts["w"]["status"] == "single_point_origin"
        ok = ok and all(charts[c]["status"] == "smooth" for c in ("x", "y", "z"))
    _line(7, ok, "twist 1 is smooth on all charts; twists 3 and 5 are singular "
                 "exactly at the single chart origin")
    assert ok


def test_criterion_08_terminality():
    ok = is_terminal(CyclicQuotient(2, (1, 1, 1)))
    ok = ok and not is_terminal(CyclicQuotient(3, (1, 1, 1)))
    ok = ok and is_terminal(CyclicQuotient(3, (1, 1, 2)))
    start = time.perf_counter()
    table = classify_terminal_types(50)
    elapsed = time.perf_counter() - start
    ok = ok and table == [] and elapsed < 10.0
    for weights in ((1, 1, 1, 2), (1, 1, 2, 3)):
        rows = wps_singularity_report(list(weights))
        ok = ok and rows and all(r["terminal"] for r in rows)
    _line(8, ok, f"age criterion values, empty counterexample table up to "
                 f"order 50 ({elapsed:.1f}s), terminal vertex reports")
    assert ok


def test_criterion_09_lattice_analysis():
    # A (-1)-class D = p f1 + q f2 - sum(mi ei) (coords (p, q, m1, ..)) has
    # D.D = 2pq - sum(mi^2) = -1 and -K.D = 2p + 2q - sum(mi) = 1.
    #   r=0: 2pq = -1 has no integer solution.
    #   r=1: m = 2p + 2q - 1 turns D.D = -1 into 4p^2 + 6pq + 4q^2 - 4p - 4q = 0;
    #        with s = p + q, t = p - q that is t^2 = s (8 - 7s), so s is 0 or 1
    #        and (p, q) is (0, 0), (0, 1) or (1, 0), with |m| = |2s - 1| = 1.
    #   r=2: (m1 + m2)^2 <= 2 (m1^2 + m2^2) gives (2p + 2q - 1)^2 <= 4pq + 2,
    #        and 4pq >= -2 (p^2 + q^2) turns that into
    #        (p - 1)^2 + (q - 1)^2 <= 5/2, hence p, q in {0, 1, 2};
    #        then m1^2 + m2^2 = 2pq + 1 <= 9 gives |mi| <= 3.
    # Every (-1)-class therefore lies in the coordinate box of bound 3, and
    # enumerating a larger box finds nothing more.
    exhaustive = all(
        minus_one_curves(quadric_blowup(r), bound=3) == minus_one_curves(quadric_blowup(r), bound=6)
        for r in (0, 1, 2)
    )
    counts = {r: len(minus_one_curves(quadric_blowup(r))) for r in (0, 1, 2)}
    counts_ok = counts == {0: 0, 1: 3, 2: 6}
    # degree-6 del Pezzo surface: e1, e2, f1-e1, f1-e2, f2-e1, f2-e2
    lines_ok = {d.coords for d in minus_one_curves(quadric_blowup(2))} == {
        (0, 0, -1, 0), (0, 0, 0, -1),
        (1, 0, 1, 0), (1, 0, 0, 1),
        (0, 1, 1, 0), (0, 1, 0, 1),
    }
    # The recorded seventh class f1 + f2 - e1 - e2 is a conic, not a line:
    # D.D = 2 - 1 - 1 = 0 and -K.D = 2 + 2 - 1 - 1 = 2.
    lat2 = quadric_blowup(2)
    conic = DivisorClass(lat2, (1, 1, 1, 1))
    conic_ok = (
        intersect(conic, conic) == 0
        and intersect(conic, DivisorClass(lat2, lat2.minus_k)) == 2
        and conic not in minus_one_curves(lat2)
    )
    lat = quadric_blowup(1)
    c1 = DivisorClass(lat, (1, 0, 1))
    c2 = DivisorClass(lat, (0, 0, -1))
    c3 = DivisorClass(lat, (0, 1, 1))
    gram_ok = (
        intersect(c1, c2) == 1 and intersect(c2, c3) == 1 and intersect(c1, c3) == 0
    )
    witness_ok = all(
        homology_lemma_cases(fiber)["passed"]
        and all(case["product"] <= 0 for case in homology_lemma_cases(fiber)["cases"])
        for fiber in ("sigma1", "blowup1", "blowup2")
    )
    ok = exhaustive and counts_ok and lines_ok and conic_ok and gram_ok and witness_ok
    _line(9, ok, f"minus-one counts {tuple(counts[r] for r in (0, 1, 2))} (bound 3 "
                 f"enumeration equals bound 6), the six lines e1, e2, fi-ej of the "
                 f"degree-6 del Pezzo surface, f1+f2-e1-e2 of square 0 and degree 2, "
                 f"witness and intersection clauses")
    assert exhaustive, "the bound-3 box misses a (-1)-class found in the bound-6 box"
    assert counts_ok, f"minus-one counts {counts}, expected {{0: 0, 1: 3, 2: 6}}"
    assert lines_ok
    assert conic_ok, "f1+f2-e1-e2 must have square 0, degree 2, and not be a (-1)-class"
    assert gram_ok and witness_ok


def test_criterion_10_figure1_round_trip():
    rng = random.Random(271828)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        n = rng.randint(1, 5)
        k0 = rng.randint(0, 6)
        kinf = rng.randint(0, 6)
        state = construct_twisted(n, k0, kinf)
        final, steps = figure1_normalize(state)
        ok = ok and final.fiber_m == 0
        ok = ok and len(steps) == k0 + kinf
        ok = ok and replay_reversed(n, steps) == state
        rebuilt = tuple({A0: E0, AINF: EINF}[s] for s in reversed(steps))
        ok = ok and rebuilt == state.transcript
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _line(10, ok, f"500 randomized normalizations stop at the trivial fiber in "
                  f"k0+kinf steps with exact round-trip ({elapsed:.2f}s)")
    assert ok


def test_criterion_11_engine_soundness():
    ok = True
    # Buchberger postcondition on every basis the artifact computes
    audited = []
    for k in QUADRIC_TWISTS:
        audited.append(Ideal([quadric_generator(k)]))
    for k in F4_TWISTS:
        audited.append(derive_f4_ideal(k))
        audited.append(Ideal(reference_f4_generators(k)))
    chart_ring = VariableContext(("x", "y", "z", "l"))
    for k in (1, 3, 5):
        audited.append(
            jacobian_ideal(parse(chart_ring, f"4*x*z - y^2 - l^{k}"), chart_ring.names)
        )
    for ideal in audited:
        ok = ok and is_groebner_basis(ideal.groebner_basis())

    # the once-computed specialized basis against its stored form, each
    # element cross-checked by the independent linear-algebra oracle
    plain_ring = VariableContext(("a", "b", "c", "e", "f", "g"))
    images = {n: plain_ring.var(n) for n in "abcefg"}
    images["l"] = plain_ring.one()
    specialize = SubstitutionMap(F4_CHART_RING, plain_ring, images)
    specialized = [specialize.apply(g) for g in derive_f4_ideal(1).generators]
    basis = Ideal(specialized).groebner_basis()
    stored = (GOLDEN_DIR / "f4-basis-k1-lambda1.txt").read_text().splitlines()
    ok = ok and [str(g) for g in basis] == stored
    ok = ok and all(is_member_up_to(g, specialized, 2) for g in basis)

    # membership agreement with the oracle on 200 random small instances
    rng = random.Random(60902)
    checked = 0
    while checked < 200:
        ring = random_ring(rng, max_vars=3)
        gens = [
            random_polynomial(rng, ring, max_degree=2, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        I = Ideal(gens)
        if rng.random() < 0.5:
            p = ring.zero()
            for g in gens:
                p = p + random_polynomial(rng, ring, max_degree=2, max_terms=2) * g
            if p.is_zero():
                continue
            ok = ok and normal_form(p, I).is_zero() and is_member_up_to(p, gens, 4)
        else:
            p = random_polynomial(rng, ring, max_degree=3, max_terms=3)
            if normal_form(p, I).is_zero():
                ok = ok and is_member_up_to(p, gens, 4)
            else:
                ok = ok and not is_member_bounded(p, gens, 2)
        checked += 1

    # Leibniz and bracket relations on monomials
    v2, v4 = sl2_v2_triple(), sl2_v4_triple()
    ok = ok and brackets_hold_on_monomials(v2, degree=4)
    ok = ok and brackets_hold_on_monomials(v4, degree=4)
    small = monomials_up_to_degree(QUADRIC_CHART_RING, 2)
    for D in v2:
        for p in small:
            for q in small:
                ok = ok and leibniz_holds(D, p, q)
    rng = random.Random(140)
    for _ in range(500):
        p = random_polynomial(rng, QUADRIC_CHART_RING, max_degree=3)
        q = random_polynomial(rng, QUADRIC_CHART_RING, max_degree=3)
        ok = ok and all(leibniz_holds(D, p, q) for D in v2)
    _line(11, ok, "S-polynomial postcondition, oracle agreement on 200 "
                  "instances, Leibniz and bracket relations")
    assert ok
