"""Cyclic quotient singularities: ages, terminality, classification tables.

A quotient of affine 3-space by the cyclic group of order n acting with
weights (w1, w2, w3) is recorded as ``CyclicQuotient(n, (w1, w2, w3))``.  The
age of the j-th group element is (sum of j*wi mod n) / n; the singularity is
terminal exactly when every age of a nontrivial element exceeds 1 (strict
inequality; equality marks the canonical case).  Only isolated quotients (all
weights coprime to n) are decided; anything else raises
:class:`NonIsolatedQuotient` rather than applying the wrong criterion.

The classification table checks, for every order up to a bound, the
Morrison-Stevens lemma: an isolated quotient is terminal iff it is of type
(1/n)(1, a, -a) up to permuting the weights and multiplying all of them by a
unit mod n.  Both sides are invariant under those symmetries, so the table
runs the age criterion only on the representatives (1, a, b), which reach
every orbit, and compares it with the closed form of the right-hand side.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter


class NonIsolatedQuotient(ValueError):
    """Some weight shares a factor with the group order; the age criterion
    for isolated cyclic quotients does not apply."""


class CyclicQuotient(tuple):
    """Singularity of type (1/n)(w1, w2, w3): the pair ``(n, weights)``, with
    the weights stored reduced mod n."""

    __slots__ = ()

    def __new__(cls, n: int, weights: tuple[int, int, int]):
        if n < 2:
            raise ValueError(f"group order must be at least 2, got {n}")
        if len(weights) != 3:
            raise ValueError("exactly three weights are required")
        return tuple.__new__(cls, (n, tuple(w % n for w in weights)))

    n = property(itemgetter(0))
    weights = property(itemgetter(1))

    @property
    def isolated(self) -> bool:
        """True when the action is free outside the origin (all weights
        coprime to n); recorded, not enforced."""
        w1, w2, w3 = self.weights
        return gcd(w1 * w2 * w3, self.n) == 1  # n is coprime to a product iff to each factor

    def __str__(self):
        return f"(1/{self.n})({', '.join(str(w) for w in self.weights)})"


def is_terminal(q: CyclicQuotient) -> bool:
    """Strict age criterion: age > 1 for every nontrivial group element."""
    if not q.isolated:
        raise NonIsolatedQuotient(
            f"{q} is not isolated; the age criterion does not apply"
        )
    return _ages_exceed_one(q.n, q.weights)


def _ages_exceed_one(n: int, weights: tuple[int, int, int]) -> bool:
    """Whether sum(j*wi mod n) > n for j = 1, .., n-1: every age exceeds 1."""
    w1, w2, w3 = weights
    for j in range(1, n):
        if (j * w1) % n + (j * w2) % n + (j * w3) % n <= n:
            return False
    return True


def _has_terminal_form(n: int, weights: tuple[int, int, int]) -> bool:
    """Whether u*(w1, w2, w3) is of type (1, a, -a) mod n, up to order, for
    some unit u.

    Closed form: some weight w_i is coprime to n and the other two sum to
    0 mod n.  Proof: u*w_i = 1 mod n forces w_i to be a unit and
    u = w_i^-1; since u is a unit, u*(w_j + w_k) = 0 iff w_j + w_k = 0 mod n.
    Conversely u = w_i^-1 scales such a triple to (1, a, -a).  This holds for
    every triple, isolated or not.
    """
    w1, w2, w3 = weights
    return (
        (w2 + w3) % n == 0 and gcd(w1, n) == 1
        or (w1 + w3) % n == 0 and gcd(w2, n) == 1
        or (w1 + w2) % n == 0 and gcd(w3, n) == 1
    )


def classify_terminal_types(n_max: int) -> list[dict]:
    """Counterexample table for: terminal iff of type (1/n)(1, a, -a).

    For every order up to n_max, checks the representatives (1, a, b) with
    units a <= b.  They reach every isolated triple: scaling by w1^-1 and
    sorting maps (w1, w2, w3) to one of them.  Both sides are invariant under
    permuting the weights and scaling them by a unit u (for the ages, u only
    permutes the group elements j -> j*u), so each triple decides its whole
    orbit (an orbit has at most three representatives, one per weight that
    can be scaled to 1).  A correct criterion yields an empty table.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    table = []
    for n in range(2, n_max + 1):
        units = [w for w in range(1, n) if gcd(w, n) == 1]
        for i, a in enumerate(units):
            for b in units[i:]:
                weights = (1, a, b)
                terminal = _ages_exceed_one(n, weights)
                form = _has_terminal_form(n, weights)
                if terminal != form:
                    table.append(
                        {"n": n, "weights": weights, "terminal": terminal, "matches_form": form}
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
    report = []
    for i, m in enumerate(ws):
        others = tuple(w for j, w in enumerate(ws) if j != i)
        g = gcd(*others)
        if g != 1:
            raise ValueError(f"ill-formed weights {ws}: dropping index {i} leaves gcd {g}")
        if m <= 1:
            continue
        q = CyclicQuotient(m, others)
        terminal = is_terminal(q) if q.isolated else None
        report.append(
            {"vertex": i, "type": str(q), "isolated": q.isolated, "terminal": terminal}
        )
    return report
