"""Lattice intersection theory, homology-lemma cases, bundle normal form."""

import itertools
import random
from functools import partial
from math import gcd

import pytest

from oracles import (
    LatticeMismatch,
    homology_cases_by_intersect,
    intersect,
    irreducible_curve_classes_by_box,
)
from qhv.ruled import (
    A0,
    AINF,
    FIBERS,
    BundleState,
    DivisorClass,
    E0,
    EINF,
    QUADRIC_BLOWUP,
    _walk,
    construct_twisted,
    figure1_normalize,
    hirzebruch,
    homology_lemma_cases,
    irreducible_curve_classes,
    minus_one_curves,
    quadric_blowup,
    replay_reversed,
)


class TestIntersectionForm:
    def test_negative_section_square(self):
        lat = hirzebruch(2)
        C0 = DivisorClass(lat, (1, 0))
        assert intersect(C0, C0) == -2

    def test_fiber_square_zero_all_indices(self):
        for n in range(0, 6):
            F = DivisorClass(hirzebruch(n), (0, 1))
            assert intersect(F, F) == 0

    def test_blowup_gram_values(self):
        lat = quadric_blowup(1)
        f1me1 = DivisorClass(lat, (1, 0, 1))
        f2me1 = DivisorClass(lat, (0, 1, 1))
        e1 = DivisorClass(lat, (0, 0, -1))
        assert intersect(f1me1, e1) == 1
        assert intersect(f1me1, f2me1) == 0

    def test_symmetry_and_integrality_exhaustive(self):
        # exhaustive over [-3, 3] coordinates on the rank-2 and rank-3
        # lattices, against the written-out forms a1 b2 + a2 b1 - n a1 a2
        # and p1 q2 + p2 q1 - sum(mi mi'); the rank-4 box is exhausted on
        # [-2, 2] plus a random [-3, 3] sample to keep the run fast
        def hirzebruch_form(n, u, v):
            (a1, b1), (a2, b2) = u, v
            return a1 * b2 + a2 * b1 - n * a1 * a2

        def blowup_form(u, v):
            (p1, q1, *m1), (p2, q2, *m2) = u, v
            return p1 * q2 + p2 * q1 - sum(x * y for x, y in zip(m1, m2))

        for lat, written in (
            (hirzebruch(0), partial(hirzebruch_form, 0)),
            (hirzebruch(3), partial(hirzebruch_form, 3)),
            (quadric_blowup(1), blowup_form),
        ):
            box = [
                DivisorClass(lat, c)
                for c in itertools.product(range(-3, 4), repeat=lat.rank)
            ]
            for d1 in box:
                for d2 in box:
                    v = intersect(d1, d2)
                    assert isinstance(v, int)
                    assert v == intersect(d2, d1)
                    assert v == written(d1.coords, d2.coords)
        lat = quadric_blowup(2)
        inner = [
            DivisorClass(lat, c)
            for c in itertools.product(range(-2, 3), repeat=lat.rank)
        ]
        rng = random.Random(5)
        outer = [
            DivisorClass(lat, tuple(rng.randint(-3, 3) for _ in range(lat.rank)))
            for _ in range(40)
        ]
        for d1 in inner:
            for d2 in outer:
                assert intersect(d1, d2) == intersect(d2, d1)
                assert intersect(d1, d2) == blowup_form(d1.coords, d2.coords)

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatch):
            intersect(
                DivisorClass(hirzebruch(1), (1, 0)),
                DivisorClass(hirzebruch(2), (1, 0)),
            )

    def test_unique_negative_class_is_the_section(self):
        # among irreducible classes on the index-n surface only C0 has
        # negative square, and its square is -n
        for n in range(1, 6):
            lat = hirzebruch(n)
            negative = [d for d in irreducible_curve_classes(lat) if lat.form(d, d) < 0]
            assert negative == [(1, 0)]
            assert lat.form(negative[0], negative[0]) == -n


class TestMinusOneCurves:
    def test_counts(self):
        assert len(minus_one_curves(quadric_blowup(0))) == 0
        assert len(minus_one_curves(quadric_blowup(1))) == 3
        assert len(minus_one_curves(quadric_blowup(2))) == 6

    def test_r1_classes(self):
        names = {str(d) for d in minus_one_curves(quadric_blowup(1))}
        assert names == {"e1", "f1 - e1", "f2 - e1"}

    def test_r2_classes(self):
        names = {str(d) for d in minus_one_curves(quadric_blowup(2))}
        assert names == {"e1", "e2", "f1 - e1", "f1 - e2", "f2 - e1", "f2 - e2"}

    def test_enumeration_stable_under_larger_bound(self):
        for r in (0, 1, 2):
            assert minus_one_curves(quadric_blowup(r), bound=3) == minus_one_curves(
                quadric_blowup(r), bound=5
            )

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            quadric_blowup(3)

    def test_scan_finds_every_minus_one_class(self):
        # the scans read only the box with p, q >= 0 (a, b >= 0 on F_n); the
        # full box [-bound, bound]^rank holds no other (-1)-class, and on the
        # quadric blow-ups the irreducible-class scan finds them all
        lattices = [hirzebruch(n) for n in range(8)] + [quadric_blowup(r) for r in range(3)]
        for lat, bound in itertools.product(lattices, range(9)):
            full_box = itertools.product(range(-bound, bound + 1), repeat=lat.rank)
            reference = [
                DivisorClass(lat, d)
                for d in full_box
                if lat.form(d, lat.minus_k) == 1 and lat.form(d, d) == -1
            ]
            assert minus_one_curves(lat, bound) == reference
            if lat.kind == QUADRIC_BLOWUP:
                scanned = [
                    DivisorClass(lat, d)
                    for d in irreducible_curve_classes(lat, bound)
                    if lat.form(d, d) == -1
                ]
                assert scanned == reference

    def test_square_zero_classes_are_primitive(self):
        # m times a conic class has an irreducible member only for m = 1
        lattices = [hirzebruch(n) for n in range(6)] + [quadric_blowup(r) for r in range(3)]
        for lat in lattices:
            for d in irreducible_curve_classes(lat):
                assert lat.form(d, d) != 0 or gcd(*d) == 1, d

    def test_general_position_no_minus_two_classes(self):
        # genericity of the blown-up points, encoded in the lattice model:
        # no irreducible class has self-intersection below -1
        for r in (1, 2):
            lat = quadric_blowup(r)
            for d in irreducible_curve_classes(lat):
                assert lat.form(d, d) >= -1


class TestScansAgainstBoxOracles:
    def test_irreducible_classes_equal_the_box_scan(self):
        lattices = [hirzebruch(n) for n in range(8)] + [quadric_blowup(r) for r in range(3)]
        for lat, bound in itertools.product(lattices, range(10)):
            by_box = [d.coords for d in irreducible_curve_classes_by_box(lat, bound)]
            assert irreducible_curve_classes(lat, bound) == by_box, (lat.kind, lat.param, bound)

    def test_homology_cases_equal_the_intersect_search(self):
        for fiber, bound in itertools.product(FIBERS, range(10)):
            assert homology_lemma_cases(fiber, bound) == homology_cases_by_intersect(
                fiber, bound
            ), (fiber, bound)

    def test_walk_equals_the_filtered_product(self):
        # random spans (some empty) and integer rows with many zero
        # coefficients; an all-zero row is added to every second system
        rng = random.Random(2718)
        for trial in range(400):
            rank = rng.randint(1, 4)
            spans = []
            for _ in range(rank):
                lo = rng.randint(-4, 3)
                spans.append(range(lo, lo + rng.randint(0, 6)))
            rows = [
                tuple(rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(rank))
                for _ in range(rng.randint(0, 4))
            ]
            if trial % 2:
                rows.insert(rng.randint(0, len(rows)), (0,) * rank)
            expected = [
                u for u in itertools.product(*spans)
                if all(sum(c * x for c, x in zip(row, u)) >= 0 for row in rows)
            ]
            assert _walk(spans, rows) == expected, (spans, rows)

    def test_all_zero_row_always_holds(self):
        spans = [range(-2, 3), range(0, 2), range(-1, 1)]
        assert _walk(spans, [(0, 0, 0)]) == list(itertools.product(*spans))


class TestHomologyLemmaCases:
    def test_sigma1_witness(self):
        report = homology_lemma_cases("sigma1")
        assert report["passed"]
        (case,) = report["cases"]
        assert case["trace"] == ["C0"]
        assert case["witness"] == "C0 + F"
        assert case["product"] == 0

    def test_blowup1_cases(self):
        report = homology_lemma_cases("blowup1")
        assert report["passed"]
        traces = [case["trace"] for case in report["cases"]]
        assert traces == [["f1 - e1", "e1"], ["e1", "f2 - e1"], ["e1"]]
        for case in report["cases"]:
            assert case["product"] <= 0

    def test_blowup1_intersection_pattern(self):
        lat = quadric_blowup(1)
        c1 = DivisorClass(lat, (1, 0, 1))
        c2 = DivisorClass(lat, (0, 0, -1))
        c3 = DivisorClass(lat, (0, 1, 1))
        assert intersect(c1, c2) == 1
        assert intersect(c2, c3) == 1
        assert intersect(c1, c3) == 0

    def test_blowup2_every_exceptional_has_witness(self):
        report = homology_lemma_cases("blowup2")
        assert report["passed"]
        assert len(report["cases"]) == 6
        for case in report["cases"]:
            assert case["found"] and case["product"] <= 0

    @pytest.mark.parametrize("fiber", FIBERS)
    def test_bound_zero_certifies_nothing(self, fiber):
        # the bound-0 box holds no (-1)-class on sigma1 or blowup2, and no
        # witness for the blowup1 traces; an empty case list must not pass
        assert not homology_lemma_cases(fiber, 0)["passed"]

    def test_unknown_fiber(self):
        with pytest.raises(ValueError):
            homology_lemma_cases("sigma2")


class TestBundleStates:
    def test_trivial_state(self):
        s = construct_twisted(1, 0, 0)
        assert s.fiber_m == 0 and s.transcript == ()
        assert s.k0 == 0 and s.k_inf == 0

    def test_fiber_index_is_twist_sum(self):
        s = construct_twisted(1, 2, 1)
        assert s.fiber_m == 3

    def test_flags_follow_counters(self):
        s = construct_twisted(3, 0, 5)
        assert s.fiber_m == 5
        assert s.k0 == 0 and s.k_inf > 0

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            BundleState(1, -1, 0)
        for args in ((0, 1, 1), (1, -1, 0), (1, 0, -2)):
            with pytest.raises(ValueError):
                construct_twisted(*args)

    def test_normalize_3_steps(self):
        s = construct_twisted(1, 2, 1)
        final, steps = figure1_normalize(s)
        assert final.fiber_m == 0
        assert steps == (A0, A0, AINF)

    def test_normalize_zero_steps(self):
        final, steps = figure1_normalize(construct_twisted(2, 0, 0))
        assert steps == ()
        assert final.fiber_m == 0

    def test_round_trip_500_randomized(self):
        rng = random.Random(31415)
        for _ in range(500):
            n = rng.randint(1, 5)
            k0 = rng.randint(0, 6)
            kinf = rng.randint(0, 6)
            state = construct_twisted(n, k0, kinf)
            final, steps = figure1_normalize(state)
            assert final.fiber_m == 0, "walk must end at the trivial fiber"
            assert len(steps) == k0 + kinf, "one step per twist"
            # fiber index drops by exactly one per step
            replayed = replay_reversed(n, steps)
            assert replayed == state
            # reversed transcript literally reconstructs the construction
            rebuilt = tuple({A0: E0, AINF: EINF}[s] for s in reversed(steps))
            assert rebuilt == state.transcript

    def test_fiber_strictly_decreases(self):
        # replaying longer and longer suffixes of the walk shows the fiber
        # index passing through m, m-1, .., 0
        state = construct_twisted(2, 3, 2)
        _, steps = figure1_normalize(state)
        for used in range(len(steps) + 1):
            partial = replay_reversed(2, steps[len(steps) - used :])
            assert partial.fiber_m == used
