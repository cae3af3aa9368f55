"""Cyclic quotient ages, terminality, classification, vertex reports."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from qhv import singular
from qhv.singular import (
    CyclicQuotient,
    NonIsolatedQuotient,
    classify_terminal_types,
    is_terminal,
    wps_singularity_report,
)
from oracles import age, matches_terminal_form_by_unit_scan


def units(n):
    return [w for w in range(1, n) if gcd(w, n) == 1]


def matches_terminal_form(q):
    """The closed form the table reads on the weights, on a quotient."""
    return singular._has_terminal_form(q.n, q.weights)


def orbit(n, weights):
    """Sorted unit multiples of the weights mod n: the orbit of the triple
    under permutation and unit scaling."""
    return {tuple(sorted(u * w % n for w in weights)) for u in units(n)}


class TestAge:
    def test_direct_sums(self):
        assert age(CyclicQuotient(2, (1, 1, 1)), 1) == Fraction(3, 2)
        assert age(CyclicQuotient(3, (1, 1, 2)), 2) == Fraction(5, 3)
        assert age(CyclicQuotient(3, (1, 1, 1)), 1) == 1

    def test_is_terminal_is_the_age_criterion(self):
        # is_terminal runs the age criterion on the weights; compare it with
        # the oracle's ages
        for n in range(2, 21):
            for ws in itertools.product(units(n), repeat=3):
                q = CyclicQuotient(n, ws)
                assert is_terminal(q) == all(age(q, j) > 1 for j in range(1, n))

    def test_age_symmetry_for_isolated_quotients(self):
        # age(j) + age(n-j) counts the nonzero residues among j*wi mod n
        for n in range(2, 21):
            units = [w for w in range(1, n) if gcd(w, n) == 1]
            rng = random.Random(n)
            for _ in range(10):
                ws = tuple(rng.choice(units) for _ in range(3))
                q = CyclicQuotient(n, ws)
                for j in range(1, n):
                    nonzero = sum(1 for w in ws if (j * w) % n != 0)
                    assert age(q, j) + age(q, n - j) == nonzero


class TestTerminality:
    def test_half_point_is_terminal(self):
        assert is_terminal(CyclicQuotient(2, (1, 1, 1)))

    def test_third_point_is_canonical_not_terminal(self):
        assert not is_terminal(CyclicQuotient(3, (1, 1, 1)))

    def test_third_point_with_inverse_pair(self):
        assert is_terminal(CyclicQuotient(3, (1, 1, 2)))

    def test_non_isolated_rejected(self):
        with pytest.raises(NonIsolatedQuotient):
            is_terminal(CyclicQuotient(4, (1, 2, 3)))

    def test_permutation_invariance(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(2, 15)
            units = [w for w in range(1, n) if gcd(w, n) == 1]
            ws = [rng.choice(units) for _ in range(3)]
            value = is_terminal(CyclicQuotient(n, tuple(ws)))
            rng.shuffle(ws)
            assert is_terminal(CyclicQuotient(n, tuple(ws))) == value

    def test_generator_change_invariance(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(2, 15)
            units = [w for w in range(1, n) if gcd(w, n) == 1]
            ws = tuple(rng.choice(units) for _ in range(3))
            u = rng.choice(units)
            scaled = tuple((u * w) % n for w in ws)
            assert is_terminal(CyclicQuotient(n, ws)) == is_terminal(
                CyclicQuotient(n, scaled)
            )


class TestClassification:
    def test_small_orders_empty_table(self):
        assert classify_terminal_types(10) == []

    def test_order_two_unique_case(self):
        q = CyclicQuotient(2, (1, 1, 1))
        assert is_terminal(q) and matches_terminal_form(q)

    def test_seven_1_2_4_not_of_form(self):
        q = CyclicQuotient(7, (1, 2, 4))
        assert not matches_terminal_form(q)
        assert not is_terminal(q)  # age at j=1 is exactly 1

    def test_five_1_2_3_is_of_form(self):
        q = CyclicQuotient(5, (1, 2, 3))
        assert matches_terminal_form(q) and is_terminal(q)

    def test_orders_up_to_100_empty_table(self):
        assert classify_terminal_types(100) == []

    def test_brute_force_oracle_small_orders(self):
        # the closed form against the unit scan: every residue triple for
        # n <= 20 (non-isolated ones exercise the coprimality guard), every
        # sorted unit triple for n <= 30
        for n in range(2, 21):
            for ws in itertools.product(range(n), repeat=3):
                q = CyclicQuotient(n, ws)
                assert matches_terminal_form(q) == matches_terminal_form_by_unit_scan(q)
        for n in range(2, 31):
            for ws in itertools.combinations_with_replacement(units(n), 3):
                q = CyclicQuotient(n, ws)
                assert matches_terminal_form(q) == matches_terminal_form_by_unit_scan(q)

    def test_representatives_reach_every_orbit(self, monkeypatch):
        # the table calls the closed form on the weights of each representative
        original = singular._has_terminal_form
        visited = []

        def record(n, weights):
            visited.append((n, weights))
            return original(n, weights)

        monkeypatch.setattr(singular, "_has_terminal_form", record)
        assert classify_terminal_types(30) == []
        reached = {(n, t) for n, weights in visited for t in orbit(n, weights)}
        for n in range(2, 31):
            for ws in itertools.combinations_with_replacement(units(n), 3):
                assert (n, ws) in reached, (n, ws)

        # a criterion that is wrong on one orbit only shows up in the table
        wrong = orbit(7, (1, 2, 4))

        def flipped(n, weights):
            return original(n, weights) != (n == 7 and tuple(sorted(weights)) in wrong)

        monkeypatch.setattr(singular, "_has_terminal_form", flipped)
        table = classify_terminal_types(10)
        assert table
        assert all(r["n"] == 7 and tuple(sorted(r["weights"])) in wrong for r in table)

    @pytest.mark.parametrize("flip", [None, "_ages_exceed_one", "_has_terminal_form"])
    def test_table_equals_the_quotient_reference(self, monkeypatch, flip):
        # the table against rows built from CyclicQuotient, is_terminal and
        # matches_terminal_form; flipping either criterion on one orbit
        # reaches both sides alike
        if flip:
            original = getattr(singular, flip)
            wrong = orbit(13, (1, 3, 9))

            def flipped(n, weights):
                return original(n, weights) != (n == 13 and tuple(sorted(weights)) in wrong)

            monkeypatch.setattr(singular, flip, flipped)
        reference = []
        for n in range(2, 41):
            us = units(n)
            for i, a in enumerate(us):
                for b in us[i:]:
                    q = CyclicQuotient(n, (1, a, b))
                    terminal, form = is_terminal(q), matches_terminal_form(q)
                    if terminal != form:
                        reference.append(
                            {"n": n, "weights": q.weights, "terminal": terminal,
                             "matches_form": form}
                        )
        assert classify_terminal_types(40) == reference
        assert bool(reference) == bool(flip)


class TestWps:
    def test_1112(self):
        report = wps_singularity_report([1, 1, 1, 2])
        assert len(report) == 1
        assert report[0]["type"] == "(1/2)(1, 1, 1)"
        assert report[0]["terminal"] is True

    def test_1123(self):
        report = wps_singularity_report([1, 1, 2, 3])
        types = [(r["type"], r["terminal"]) for r in report]
        assert types == [("(1/2)(1, 1, 1)", True), ("(1/3)(1, 1, 2)", True)]

    def test_rows_hold_exactly_the_reported_fields(self):
        for weights in ([1, 1, 1, 2], [1, 1, 2, 2], [1, 2, 3, 5]):
            rows = wps_singularity_report(weights)
            assert rows
            for row in rows:
                assert list(row) == ["vertex", "type", "isolated", "terminal"]

    def test_smooth_projective_space(self):
        assert wps_singularity_report([1, 1, 1, 1]) == []

    def test_ill_formed_weights_rejected(self):
        with pytest.raises(ValueError):
            wps_singularity_report([2, 2, 2, 2])
        with pytest.raises(ValueError):
            wps_singularity_report([1, 1, 2])
        with pytest.raises(ValueError):
            wps_singularity_report([0, 1, 1, 1])
