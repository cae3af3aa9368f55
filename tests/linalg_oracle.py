"""Bounded-degree membership oracle, independent of the Groebner machinery.

Decides whether p = sum h_i g_i is solvable with deg h_i <= D by setting up
one exact linear system over the rationals (one unknown per generator and
cofactor monomial, one equation per product monomial) and checking its
consistency by Gaussian elimination.  Shares only the polynomial data type
with the package; the decision procedure is pure linear algebra.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def monomial_exponents(n_vars: int, max_degree: int):
    for total in range(max_degree + 1):
        for cuts in itertools.combinations_with_replacement(range(n_vars), total):
            exp = [0] * n_vars
            for i in cuts:
                exp[i] += 1
            yield tuple(exp)


def _system_is_consistent(columns: list[dict], rhs: dict) -> bool:
    monomials = sorted(set().union(rhs, *columns))
    rows = [
        [col.get(m, Fraction(0)) for col in columns] + [rhs.get(m, Fraction(0))]
        for m in monomials
    ]
    ncols = len(columns)
    pivot = 0
    for col in range(ncols):
        src = next((r for r in range(pivot, len(rows)) if rows[r][col] != 0), None)
        if src is None:
            continue
        rows[pivot], rows[src] = rows[src], rows[pivot]
        pv = rows[pivot][col]
        rows[pivot] = [Fraction(v) / pv for v in rows[pivot]]
        for r in range(len(rows)):
            if r != pivot and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[pivot])]
        pivot += 1
        if pivot == len(rows):
            break
    # inconsistent iff some fully reduced row is (0 .. 0 | nonzero)
    for row in rows[pivot:]:
        if any(v != 0 for v in row[:-1]):
            continue
        if row[-1] != 0:
            return False
    return True


def is_member_bounded(p, generators, cofactor_degree: int) -> bool:
    """True iff p is a generator combination with cofactors of degree <= D."""
    ring = p.ring
    n = len(ring.names)
    columns = []
    for g in generators:
        for mono in monomial_exponents(n, cofactor_degree):
            col: dict = {}
            for gexp, gc in g.terms.items():
                prod = tuple(a + b for a, b in zip(mono, gexp))
                col[prod] = col.get(prod, Fraction(0)) + gc
            columns.append(col)
    return _system_is_consistent(columns, dict(p.terms))


def is_member_up_to(p, generators, max_cofactor_degree: int) -> bool:
    """Try increasing cofactor degrees; True at the first solvable one."""
    return any(
        is_member_bounded(p, generators, d) for d in range(max_cofactor_degree + 1)
    )
