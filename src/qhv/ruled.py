"""Intersection lattices of ruled surfaces and the bundle normal-form model.

Two lattice families carry all the intersection arithmetic used here:

* ``hirzebruch(n)``: classes a C0 + b F on the ruled surface with a section
  of self-intersection -n; C0.C0 = -n, C0.F = 1, F.F = 0.
* ``quadric_blowup(r)``: classes p f1 + q f2 - sum(mi ei) on the quadric
  surface blown up in r <= 2 general points; f1.f2 = 1, fi.fi = 0,
  ei.ei = -1, mixed products 0.

Each :class:`Lattice` carries its data: the nonzero Gram entries on the
coordinates, the coordinates of -K, and the name and printed sign of each
basis class.  The form, -K and the printing read that data.

The scans stay in a coordinate box of side ``bound`` but visit only the
classes they can keep: -K.D = 1 fixes the last coordinate of a (-1)-class,
and each inequality D.e >= 0 on a nef class bounds the last coordinate it
reads.  They work on coordinate tuples: :func:`minus_one_curves` builds a
:class:`DivisorClass` only for the classes it returns, and the homology
lemma builds one only for the traces and witnesses it prints.

On top of the lattices: enumeration of (-1)-classes, the case analysis that
exhibits a curve meeting a candidate divisor trace nonpositively (the
homology-lemma contradiction), and a combinatorial model of twisted
P1-bundles over a Hirzebruch base.  A bundle state records the base index,
the two twist counters and the transcript of steps taken; the fiber index is
the counters' sum.  The normal-form algorithm walks these states back to the
trivial bundle, one fiber index per step.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter, mul
from typing import NamedTuple, Sequence

HIRZEBRUCH = "hirzebruch"
QUADRIC_BLOWUP = "quadric_blowup"


class Lattice(NamedTuple):
    """An intersection lattice, described by its data.

    ``entries`` are the Gram entries (i, j, value) of the intersection form on
    the coordinate basis, zeros left out (the form and the linear forms the
    scans read are sums over them); ``minus_k`` the coordinates of the
    anticanonical class; and a class prints as the sum of its coordinates
    times ``signs`` times ``names``.
    """

    kind: str
    param: int  # base index n, or number of blown-up points r
    entries: tuple[tuple[int, int, int], ...]
    minus_k: tuple[int, ...]
    names: tuple[str, ...]
    signs: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.names)

    def form(self, u: Sequence[int], v: Sequence[int]) -> int:
        """The intersection form on coordinate tuples."""
        return sum(g * u[i] * v[j] for i, j, g in self.entries)


def hirzebruch(n: int) -> Lattice:
    """Classes a C0 + b F with coordinates (a, b)."""
    if n < 0:
        raise ValueError("hirzebruch index must be >= 0")
    entries = ((0, 0, -n),) if n else ()
    entries += ((0, 1, 1), (1, 0, 1))
    return Lattice(HIRZEBRUCH, n, entries, (2, n + 2), ("C0", "F"), (1, 1))


def quadric_blowup(r: int) -> Lattice:
    """Classes p f1 + q f2 - sum(mi ei) with coordinates (p, q, m1, .., mr)."""
    if r not in (0, 1, 2):
        raise ValueError("quadric blow-ups are modeled for r in {0, 1, 2}")
    return Lattice(
        QUADRIC_BLOWUP,
        r,
        ((0, 1, 1), (1, 0, 1)) + tuple((i, i, -1) for i in range(2, 2 + r)),
        (2, 2) + (1,) * r,
        ("f1", "f2") + tuple(f"e{i + 1}" for i in range(r)),
        (1, 1) + (-1,) * r,
    )


#: The del Pezzo fiber models the homology lemma runs on, by name.
FIBERS = {"sigma1": hirzebruch(1), "blowup1": quadric_blowup(1), "blowup2": quadric_blowup(2)}


class DivisorClass(tuple):
    """A class of a lattice: the pair ``(lattice, coords)``."""

    __slots__ = ()

    def __new__(cls, lattice: Lattice, coords: Sequence[int]):
        coords = tuple(coords)
        if len(coords) != lattice.rank:
            raise ValueError(f"expected {lattice.rank} coordinates, got {coords}")
        return tuple.__new__(cls, (lattice, coords))

    lattice = property(itemgetter(0))
    coords = property(itemgetter(1))

    def __str__(self):
        pieces = []
        for value, name, sign in zip(self.coords, self.lattice.names, self.lattice.signs):
            v = value * sign
            if v == 0:
                continue
            mag = f"{abs(v)}*{name}" if abs(v) != 1 else name
            pieces.append(("-" if v < 0 else "+", mag))
        if not pieces:
            return "0"
        head = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
        return head + "".join(f" {s} {m}" for s, m in pieces[1:])


def _spans(lat: Lattice, bound: int) -> list[range]:
    """The scanned coordinate ranges: 0 <= p, q <= bound and |mi| <= bound on
    the quadric blow-ups, 0 <= a, b <= bound on a Hirzebruch surface."""
    return [range(bound + 1)] * 2 + [range(-bound, bound + 1)] * (lat.rank - 2)


def _functional(lat: Lattice, v: Sequence[int]) -> tuple[int, ...]:
    """The coefficients of the linear form u -> form(u, v)."""
    row = [0] * lat.rank
    for i, j, g in lat.entries:
        row[i] += g * v[j]
    return tuple(row)


def _dot(row: Sequence[int], u: Sequence[int]) -> int:
    return sum(map(mul, row, u))


def _minus_one_coords(lat: Lattice, bound: int) -> list[tuple[int, ...]]:
    """The (-1)-classes among the coordinates of :func:`_spans`, in order.

    -K.D = 1 is linear, and -K reads the last coordinate on every lattice
    here (coefficient 2 on F_n and the quadric, -1 on a blow-up), so each
    prefix of the other coordinates leaves one candidate for the last.
    """
    *spans, last = _spans(lat, bound)
    *head, c = _functional(lat, lat.minus_k)
    found = []
    for prefix in itertools.product(*spans):
        x, rest = divmod(1 - _dot(head, prefix), c)
        d = prefix + (x,)
        if not rest and x in last and lat.form(d, d) == -1:
            found.append(d)
    return found


def _walk(spans: Sequence[range], rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The points u of the product of ``spans`` with row.u >= 0 for every
    row, in coordinate order.

    A row bounds the last coordinate it reads (its last nonzero entry) once
    the coordinates before are fixed, so the walk extends only the prefixes
    that meet every row read so far; an all-zero row always holds.
    """
    last_read = [max((i for i, c in enumerate(row) if c), default=-1) for row in rows]
    points = [()]
    for k, span in enumerate(spans):
        here = [row for row, last in zip(rows, last_read) if last == k]
        extended = []
        for prefix in points:
            lo, hi = span.start, span.stop
            for row in here:
                s, c = _dot(row, prefix), row[k]  # c*x + s >= 0
                if c > 0:
                    lo = max(lo, -(s // c))
                else:
                    hi = min(hi, s // -c + 1)
            extended += [prefix + (x,) for x in range(lo, hi)]
        points = extended
    return points


def minus_one_curves(lat: Lattice, bound: int = 3) -> list[DivisorClass]:
    """All classes with self-intersection -1 meeting the anticanonical in 1.

    The classes with coordinates in :func:`_spans`, in coordinate order: the
    linear condition -K.D = 1 fixes the last coordinate of each prefix of the
    others.  No class is lost below p, q = 0 (a, b = 0).  On F_n,
    D = a C0 + b F has -K.D = (2 - n) a + 2b = 1 and then
    D.D = a (1 - 2a) = -1, so a = 1: the only (-1)-class is
    C0 + ((n - 1)/2) F, for odd n.  On the quadric blow-ups the default
    bound 3 is exhaustive.  Write D = p f1 + q f2 - sum(mi ei); then
    D.D = 2pq - sum(mi^2) = -1 and -K.D = 2p + 2q - sum(mi) = 1, so:

    * r = 0: 2pq = -1 has no integer solution;
    * r = 1: m = 2p + 2q - 1 gives t^2 = s (8 - 7s) with s = p + q,
      t = p - q, so (p, q) is (0, 0), (0, 1) or (1, 0) and |m| = 1;
    * r = 2: (m1 + m2)^2 <= 2 (m1^2 + m2^2) gives
      (p - 1)^2 + (q - 1)^2 <= 5/2, so p, q lie in {0, 1, 2}, and
      m1^2 + m2^2 = 2pq + 1 <= 9 gives |mi| <= 3.

    Acceptance criterion 9 checks that bounds 3 and 6 give the same classes.
    """
    return [DivisorClass(lat, d) for d in _minus_one_coords(lat, bound)]


def irreducible_curve_classes(lat: Lattice, bound: int = 3) -> list[tuple[int, ...]]:
    """Coordinates of the classes of irreducible curves, bounded by ``bound``.

    The curves of negative square, and the nef classes that move in an
    irreducible family.  A nef class moves when its square is positive
    (Bertini), or when its square is 0 and it is primitive: such a class is m
    times a conic class, and only m = 1 has an irreducible member (Manin,
    *Cubic Forms*, ch. IV).  Hirzebruch: the negative section C0 (n >= 1)
    and the moving classes a C0 + b F with b >= n a.  Blow-ups of the
    quadric: the (-1)-classes together with the moving classes meeting
    every (-1)-class nonnegatively.  A class of nonnegative bidegree (p, q)
    meets the rulings f1 and f2 in q and p, so it meets them nonnegatively
    too.  The nef classes are walked in :func:`_spans`, each inequality
    D.e >= 0 bounding the last coordinate it reads.  Classes come in
    coordinate order, as coordinate tuples.
    """
    if lat.kind == HIRZEBRUCH:
        negative = [(1, 0)] if lat.param and bound else []
    else:
        negative = _minus_one_coords(lat, bound)
    nef = _walk(_spans(lat, bound), [_functional(lat, e) for e in negative])
    movable = [d for d in nef if (square := lat.form(d, d)) > 0 or square == 0 and gcd(*d) == 1]
    return sorted(negative + movable)


def homology_lemma_cases(fiber: str, bound: int = 3) -> dict:
    """Exhibit, per candidate divisor trace, a curve met nonpositively.

    A divisor trace on a fiber would have to meet every fiber curve
    positively; each case therefore certifies the contradiction by searching
    the irreducible classes of the bounded box for one whose product with the
    trace is <= 0 (preferring product exactly 0, then small coordinates).
    The product with a trace is the linear form of the trace's sum.  The
    report passes when it has at least one case and every case found a
    witness: a box too small to hold a trace certifies nothing.
    """
    if fiber not in FIBERS:
        raise ValueError(f"unknown fiber model {fiber!r}")
    lat = FIBERS[fiber]
    candidates = irreducible_curve_classes(lat, bound)
    if fiber == "blowup1":
        e1, c1, c3 = (0, 0, -1), (1, 0, 1), (0, 1, 1)
        traces = [(c1, e1), (e1, c3), (e1,)]
    else:  # each (-1)-class; on sigma1 that is the (-1)-section alone
        traces = [(d,) for d in candidates if lat.form(d, d) == -1]

    cases = []
    for trace in traces:
        row = _functional(lat, [sum(c) for c in zip(*trace)])
        # prefer product 0, then small coords
        best = min(((-value, d) for d in candidates if (value := _dot(row, d)) <= 0), default=None)
        ok = best is not None
        cases.append(
            {
                "trace": [str(DivisorClass(lat, t)) for t in trace],
                "witness": str(DivisorClass(lat, best[1])) if ok else None,
                "product": -best[0] if ok else None,
                "found": ok,
            }
        )
    passed = bool(cases) and all(case["found"] for case in cases)
    return {"fiber": fiber, "bound": bound, "passed": passed, "cases": cases}


# -- twisted P1-bundles over a Hirzebruch base ---------------------------------

E0 = "E0"
EINF = "Einf"
A0 = "A0"
AINF = "Ainf"

#: Change of the twist counters (k0, k_inf) made by each step: a construction
#: step centered on a section of the invariant divisor raises one counter, the
#: algorithm-direction step at the matching boundary divisor lowers it again.
_STEPS = {E0: (1, 0), EINF: (0, 1), A0: (-1, 0), AINF: (0, -1)}

#: Algorithm-direction step at a boundary divisor undoes the construction
#: step centered on the matching section of the invariant divisor.
_UNDOES = {A0: E0, AINF: EINF}


class BundleState(tuple):
    """Combinatorial record of a twisted P1-bundle over a Hirzebruch base.

    The tuple ``(base_n, k0, k_inf, transcript)``: the base index, the two
    twist counters and the steps taken.  The fiber index is derived from the
    counters.  A boundary divisor carries two invariant curves exactly while
    its twist counter is positive (the construction adds a second invariant
    section).  The counters are nonnegative, so a positive fiber index means
    a positive counter: the normal-form walk always has a step to take.
    """

    __slots__ = ()

    def __new__(cls, base_n: int, k0: int, k_inf: int, transcript: tuple[str, ...] = ()):
        if k0 < 0 or k_inf < 0:
            raise ValueError("twist counters must be nonnegative")
        if base_n < 1:
            raise ValueError("the construction needs a base index >= 1")
        return tuple.__new__(cls, (base_n, k0, k_inf, transcript))

    base_n = property(itemgetter(0))
    k0 = property(itemgetter(1))
    k_inf = property(itemgetter(2))
    transcript = property(itemgetter(3))

    @property
    def fiber_m(self) -> int:
        """Index of the strict transform of the generic half-fiber surface."""
        return self.k0 + self.k_inf


def _step(state: BundleState, step: str) -> BundleState:
    d0, d_inf = _STEPS[step]
    return BundleState(state.base_n, state.k0 + d0, state.k_inf + d_inf, state.transcript + (step,))


def construct_twisted(n: int, k0: int, k_inf: int) -> BundleState:
    """Bundle obtained from the trivial one by k0 + k_inf transformations.

    The infinity-side steps are applied first so that the normal-form walk,
    which drains the 0-side first, reverses the transcript literally.
    """
    return BundleState(n, k0, k_inf, (EINF,) * k_inf + (E0,) * k0)


def figure1_normalize(state: BundleState) -> tuple[BundleState, tuple[str, ...]]:
    """Walk the simplification flowchart until the fiber is index zero.

    Loop: stop when the fiber index is 0; otherwise transform at the curve
    not contained in the invariant section inside whichever boundary divisor
    carries two invariant curves (0-side first).
    """
    steps: list[str] = []
    while state.fiber_m:
        steps.append(A0 if state.k0 else AINF)
        state = _step(state, steps[-1])
    return state, tuple(steps)


def replay_reversed(n: int, steps: Sequence[str]) -> BundleState:
    """Rebuild a bundle state by running a normal-form transcript backwards."""
    state = BundleState(n, 0, 0)
    for step in reversed(steps):
        state = _step(state, _UNDOES[step])
    return state
