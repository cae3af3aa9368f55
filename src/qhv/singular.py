"""Cyclic quotient singularities: ages, terminality, classification tables.

A quotient of affine 3-space by the cyclic group of order n acting with
weights (w1, w2, w3) is recorded as ``CyclicQuotient(n, (w1, w2, w3))``.  The
age of the j-th group element is (sum of j*wi mod n) / n; the singularity is
terminal exactly when every age of a nontrivial element exceeds 1 (strict
inequality; equality marks the canonical case).  Only isolated quotients (all
weights coprime to n) are decided; anything else raises
:class:`NonIsolatedQuotient` rather than applying the wrong criterion.

The classification table brute-forces, for every order up to a bound, the
equivalence of "terminal" with "of type (1/n)(1, a, -a) up to permuting the
weights and multiplying all of them by a unit mod n".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class NonIsolatedQuotient(ValueError):
    """Some weight shares a factor with the group order; the age criterion
    for isolated cyclic quotients does not apply."""


@dataclass(frozen=True)
class CyclicQuotient:
    """Singularity of type (1/n)(w1, w2, w3); weights stored reduced mod n."""

    n: int
    weights: tuple[int, int, int]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"group order must be at least 2, got {self.n}")
        if len(self.weights) != 3:
            raise ValueError("exactly three weights are required")
        object.__setattr__(self, "weights", tuple(w % self.n for w in self.weights))

    @property
    def isolated(self) -> bool:
        """True when the action is free outside the origin (all weights
        coprime to n); recorded, not enforced."""
        w1, w2, w3 = self.weights
        return gcd(w1 * w2 * w3, self.n) == 1  # n is coprime to a product iff to each factor

    def __str__(self):
        return f"(1/{self.n})({', '.join(str(w) for w in self.weights)})"


def age(q: CyclicQuotient, j: int) -> Fraction:
    """(sum of (j * wi mod n)) / n for 1 <= j <= n-1."""
    if not 1 <= j <= q.n - 1:
        raise ValueError(f"group element index {j} out of range 1..{q.n - 1}")
    return Fraction(sum((j * w) % q.n for w in q.weights), q.n)


def is_terminal(q: CyclicQuotient) -> bool:
    """Strict age criterion: age > 1 for every nontrivial group element."""
    if not q.isolated:
        raise NonIsolatedQuotient(
            f"{q} is not isolated; the age criterion does not apply"
        )
    n = q.n
    w1, w2, w3 = q.weights
    return all((j * w1) % n + (j * w2) % n + (j * w3) % n > n for j in range(1, n))


def matches_terminal_form(q: CyclicQuotient) -> bool:
    """Brute-force equivalence with the pattern (1, a, -a) mod n.

    Scans every unit u mod n; the scaled multiset {u wi mod n} matches the
    pattern iff it contains 1 and the remaining two entries sum to 0 mod n.
    """
    n = q.n
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        scaled = [(u * w) % n for w in q.weights]
        for i in range(3):
            if scaled[i] == 1:
                rest = [scaled[m] for m in range(3) if m != i]
                if (rest[0] + rest[1]) % n == 0:
                    return True
    return False


def classify_terminal_types(n_max: int) -> list[dict]:
    """Counterexample table for: terminal iff of type (1/n)(1, a, -a).

    Scans all isolated weight triples (up to permutation, which both sides
    respect) for every order up to n_max; a correct criterion yields an
    empty table.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    table = []
    for n in range(2, n_max + 1):
        units = [w for w in range(1, n) if gcd(w, n) == 1]
        for i1, w1 in enumerate(units):
            for i2 in range(i1, len(units)):
                w2 = units[i2]
                for i3 in range(i2, len(units)):
                    w3 = units[i3]
                    q = CyclicQuotient(n, (w1, w2, w3))
                    terminal = is_terminal(q)
                    form = matches_terminal_form(q)
                    if terminal != form:
                        table.append(
                            {
                                "n": n,
                                "weights": (w1, w2, w3),
                                "terminal": terminal,
                                "matches_form": form,
                            }
                        )
    return table


def wps_singularity_report(weights: list[int]) -> list[dict]:
    """Vertex quotient types of a weighted projective space.

    Well-formedness requires every subset omitting one weight to be coprime.
    Each coordinate vertex with weight m > 1 contributes a quotient of type
    (1/m)(other weights mod m), run through the terminality test.
    """
    ws = list(weights)
    if len(ws) != 4 or any(w <= 0 for w in ws):
        raise ValueError(f"need four positive weights (a threefold), got {ws}")
    for i in range(len(ws)):
        others = [w for j, w in enumerate(ws) if j != i]
        g = 0
        for w in others:
            g = gcd(g, w)
        if g != 1:
            raise ValueError(f"ill-formed weights {ws}: dropping index {i} leaves gcd {g}")
    report = []
    for i, m in enumerate(ws):
        if m <= 1:
            continue
        others = tuple(w for j, w in enumerate(ws) if j != i)
        q = CyclicQuotient(m, others)
        entry: dict = {"vertex": i, "type": str(q), "quotient": q, "isolated": q.isolated}
        if q.isolated:
            entry["terminal"] = is_terminal(q)
        else:
            entry["terminal"] = None
        report.append(entry)
    return report
