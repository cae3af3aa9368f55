"""Groebner-basis systems for the gb-systems workload and an independent checker.

Nothing here imports ``qhv``: the systems are plain term maps and the checker
is the benchmark's own exact reducer, so a verdict never rests on the code it
judges.  A polynomial is a dict ``{exponent tuple: Fraction}``; orders are
grevlex with the variables ranked in the order they are listed.

A returned basis G of the ideal generated by F is accepted when
  * every element is monic and no term of one element is divisible by the
    leading monomial of another (G is reduced),
  * every generator in F and every S-polynomial of G reduce to zero modulo G
    (so <F> is contained in <G> and G is a Groebner basis of <G>), and
  * the standard monomials of G number exactly the known dimension of the
    quotient ring, which closes the inclusion to equality.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

#: Known numbers of solutions counted with multiplicity (dimension of the
#: quotient ring): cyclic-5 has 70 (Bjorck-Froberg), katsura-n has 2^n.
FIXED_SYSTEMS = {"cyclic-5": 70, "katsura-4": 16, "katsura-5": 32}

#: Random square systems: dense quadrics with small integer coefficients.
RANDOM_VARIABLES = 4
RANDOM_COEFF = 3
RANDOM_SYSTEMS = 12


def grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _add(terms, exp, coeff):
    value = terms.get(exp, 0) + coeff
    if value:
        terms[exp] = Fraction(value)
    else:
        terms.pop(exp, None)


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


def _product(n, indices):
    exp = [0] * n
    for i in indices:
        exp[i] += 1
    return tuple(exp)


def cyclic(n):
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1 and x0..x(n-1) - 1."""
    names = tuple(f"x{i}" for i in range(n))
    gens = []
    for d in range(1, n):
        terms = {}
        for i in range(n):
            _add(terms, _product(n, [(i + j) % n for j in range(d)]), 1)
        gens.append(terms)
    gens.append({(1,) * n: Fraction(1), (0,) * n: Fraction(-1)})
    return names, gens


def katsura(n):
    """Katsura-n in the n+1 variables u0..un."""
    width = n + 1
    names = tuple(f"u{i}" for i in range(width))
    linear = {(0,) * width: Fraction(-1)}
    for i in range(width):
        _add(linear, _unit(width, i), 1 if i == 0 else 2)
    gens = [linear]
    for m in range(n):
        terms = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b <= n:
                _add(terms, _product(width, [a, b]), 1)
        _add(terms, _unit(width, m), -1)
        gens.append(terms)
    return names, gens


def fixed_system(name):
    family, size = name.split("-")
    return (cyclic if family == "cyclic" else katsura)(int(size))


def _degree_monomials(n, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]


def top_forms_regular(gens, n):
    """True when the degree-2 parts of n quadrics have only the trivial common zero.

    Equivalent to their ideal containing every monomial of degree n + 1; the
    Macaulay matrix is ranked modulo a prime, which can only lose rank, so a
    full rank there is full rank over Q.  Then the affine system has exactly
    2^n solutions counted with multiplicity.
    """
    prime = 2_147_483_647
    columns = {e: i for i, e in enumerate(_degree_monomials(n, n + 1))}
    rows = []
    for g in gens:
        top = {e: c for e, c in g.items() if sum(e) == 2}
        for m in _degree_monomials(n, n - 1):
            row = [0] * len(columns)
            for e, c in top.items():
                row[columns[tuple(a + b for a, b in zip(e, m))]] = int(c) % prime
            rows.append(row)
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], prime - 2, prime)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv % prime
            if factor:
                rows[r] = [(x - factor * y) % prime for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return True


def random_systems(seed):
    """The seeded batch: square systems of dense quadrics with regular top forms."""
    rng = random.Random(seed)
    n = RANDOM_VARIABLES
    names = tuple(f"x{i}" for i in range(n))
    monomials = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
    systems = []
    while len(systems) < RANDOM_SYSTEMS:
        gens = []
        for _ in range(n):
            terms = {}
            for e in monomials:
                c = rng.randint(-RANDOM_COEFF, RANDOM_COEFF)
                if c:
                    terms[e] = Fraction(c)
            gens.append(terms)
        if top_forms_regular(gens, n):
            systems.append((f"random-{len(systems)}", names, gens, 2**n))
    return systems


# -- serialization ------------------------------------------------------------


def dump_poly(terms):
    return sorted([list(e), str(c)] for e, c in terms.items())


def load_poly(rows):
    return {tuple(e): Fraction(c) for e, c in rows}


def canonical_basis(rows):
    """Order-free canonical form of a serialized basis, for exact comparison."""
    return sorted(dump_poly(load_poly(p)) for p in rows)


# -- the checker ----------------------------------------------------------------


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def leading(terms):
    return max(terms, key=grevlex_key)


def reduce(terms, basis):
    """Full remainder of a term map modulo monic (leading monomial, terms) pairs."""
    work = dict(terms)
    remainder = {}
    while work:
        lead = max(work, key=grevlex_key)
        coeff = work.pop(lead)
        for lt, g in basis:
            if _divides(lt, lead):
                shift = tuple(a - b for a, b in zip(lead, lt))
                for e, c in g.items():
                    if e != lt:
                        _add(work, tuple(a + b for a, b in zip(e, shift)), -coeff * c)
                break
        else:
            remainder[lead] = coeff
    return remainder


def _spoly(f, g):
    (lf, ft), (lg, gt) = f, g
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out = {}
    for (lt, terms), sign in (((lf, ft), 1), ((lg, gt), -1)):
        shift = tuple(a - b for a, b in zip(lcm, lt))
        for e, c in terms.items():
            _add(out, tuple(a + b for a, b in zip(e, shift)), sign * c)
    return out


def standard_monomial_count(leads):
    """Monomials divisible by no leading monomial; None if there are infinitely many."""
    n = len(leads[0])
    caps = []
    for i in range(n):
        pure = [lt[i] for lt in leads if all(e == 0 for j, e in enumerate(lt) if j != i)]
        if not pure:
            return None
        caps.append(min(pure))
    return sum(
        1
        for exp in itertools.product(*(range(c) for c in caps))
        if not any(_divides(lt, exp) for lt in leads)
    )


def basis_problems(gens, basis, solutions):
    """Why ``basis`` is not the reduced Groebner basis of ``gens``; [] if it is."""
    if not basis or any(not g for g in basis):
        return ["empty basis or zero element"]
    pairs = [(leading(g), g) for g in basis]
    problems = []
    for i, (lt, g) in enumerate(pairs):
        if g[lt] != 1:
            problems.append(f"element {i} is not monic")
        for j, (other, _) in enumerate(pairs):
            if j != i and any(_divides(other, e) for e in g):
                problems.append(f"element {i} is reducible by element {j}")
    if problems:
        return problems
    for i, f in enumerate(gens):
        if reduce(f, pairs):
            problems.append(f"generator {i} does not reduce to zero")
    for (i, f), (j, g) in itertools.combinations(enumerate(pairs), 2):
        if any(a and b for a, b in zip(f[0], g[0])) and reduce(_spoly(f, g), pairs):
            problems.append(f"S-polynomial ({i}, {j}) does not reduce to zero")
    count = standard_monomial_count([lt for lt, _ in pairs])
    if count != solutions:
        problems.append(f"{count} standard monomials, expected {solutions}")
    return problems
