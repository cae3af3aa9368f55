"""Intersection lattices of ruled surfaces and the bundle normal-form model.

Two lattice families carry all the intersection arithmetic used here:

* ``hirzebruch(n)``: classes a C0 + b F on the ruled surface with a section
  of self-intersection -n; C0.C0 = -n, C0.F = 1, F.F = 0.
* ``quadric_blowup(r)``: classes p f1 + q f2 - sum(mi ei) on the quadric
  surface blown up in r <= 2 general points; f1.f2 = 1, fi.fi = 0,
  ei.ei = -1, mixed products 0.

Each :class:`Lattice` carries its data: the nonzero Gram entries on the
coordinates, the coordinates of -K, and the name and printed sign of each
basis class.  The form, -K and the printing read that data; the box scans
evaluate the form on coordinate tuples and build a :class:`DivisorClass`
only for the classes they keep.

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
from dataclasses import dataclass
from math import gcd
from typing import Sequence

HIRZEBRUCH = "hirzebruch"
QUADRIC_BLOWUP = "quadric_blowup"


class LatticeMismatch(ValueError):
    """Operands live in different intersection lattices."""


@dataclass(frozen=True)
class Lattice:
    """An intersection lattice, described by its data.

    ``entries`` are the Gram entries (i, j, value) of the intersection form on
    the coordinate basis, zeros left out (the scans call the form on every
    class of their box); ``minus_k`` the coordinates of the anticanonical
    class; and a class prints as the sum of its coordinates times ``signs``
    times ``names``.
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


@dataclass(frozen=True)
class DivisorClass:
    lattice: Lattice
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.lattice.rank:
            raise ValueError(
                f"expected {self.lattice.rank} coordinates, got {self.coords}"
            )

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


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Value of the lattice intersection form."""
    if d1.lattice != d2.lattice:
        raise LatticeMismatch("classes live in different lattices")
    return d1.lattice.form(d1.coords, d2.coords)


def _box(lat: Lattice, bound: int):
    """The scanned coordinates: 0 <= p, q <= bound and |mi| <= bound on the
    quadric blow-ups, 0 <= a, b <= bound on a Hirzebruch surface."""
    span = range(bound + 1)
    return itertools.product(span, span, *[range(-bound, bound + 1)] * (lat.rank - 2))


def minus_one_curves(lat: Lattice, bound: int = 3) -> list[DivisorClass]:
    """All classes with self-intersection -1 meeting the anticanonical in 1.

    Brute-force enumeration over :func:`_box`, in coordinate order.  No
    class is lost below p, q = 0 (a, b = 0).  On F_n, D = a C0 + b F has
    -K.D = (2 - n) a + 2b = 1 and then D.D = a (1 - 2a) = -1, so a = 1: the
    only (-1)-class is C0 + ((n - 1)/2) F, for odd n.  On the quadric
    blow-ups the default bound 3 is exhaustive.  Write
    D = p f1 + q f2 - sum(mi ei); then D.D = 2pq - sum(mi^2) = -1 and
    -K.D = 2p + 2q - sum(mi) = 1, so:

    * r = 0: 2pq = -1 has no integer solution;
    * r = 1: m = 2p + 2q - 1 gives t^2 = s (8 - 7s) with s = p + q,
      t = p - q, so (p, q) is (0, 0), (0, 1) or (1, 0) and |m| = 1;
    * r = 2: (m1 + m2)^2 <= 2 (m1^2 + m2^2) gives
      (p - 1)^2 + (q - 1)^2 <= 5/2, so p, q lie in {0, 1, 2}, and
      m1^2 + m2^2 = 2pq + 1 <= 9 gives |mi| <= 3.

    Acceptance criterion 9 checks that bounds 3 and 6 give the same classes.
    """
    form, minus_k = lat.form, lat.minus_k
    return [
        DivisorClass(lat, d)
        for d in _box(lat, bound)
        if form(d, minus_k) == 1 and form(d, d) == -1
    ]


def irreducible_curve_classes(lat: Lattice, bound: int = 3) -> list[DivisorClass]:
    """Classes of irreducible curves with coordinates bounded by ``bound``.

    A nef class moves in an irreducible family when its square is positive
    (Bertini), or when its square is 0 and it is primitive: such a class is m
    times a conic class, and only m = 1 has an irreducible member (Manin,
    *Cubic Forms*, ch. IV).  Hirzebruch: C0, F, and those a C0 + b F with
    a >= 1 and b >= n a.  Blow-ups of the quadric: the (-1)-classes together
    with those classes of nonnegative bidegree (p, q) meeting every
    (-1)-class nonnegatively.  Such a class meets the rulings f1 and f2 in q
    and p, so it meets them nonnegatively too.  One scan of the box of
    :func:`minus_one_curves` finds both kinds.  Classes come in coordinate
    order.
    """
    form = lat.form

    def moves(d, square):
        return square > 0 or square == 0 and gcd(*d) == 1

    if lat.kind == HIRZEBRUCH:
        n = lat.param
        return [
            DivisorClass(lat, d)
            for d in _box(lat, bound)
            if d in ((1, 0), (0, 1)) or d[0] >= 1 and d[1] >= n * d[0] and moves(d, form(d, d))
        ]
    # a class met negatively by a (-1)-class found so far is dropped at once,
    # which keeps the list short; the last line checks the later ones
    exceptional, movable = [], []
    for d in _box(lat, bound):
        square = form(d, d)
        if square == -1 and form(d, lat.minus_k) == 1:
            exceptional.append(d)
        elif moves(d, square) and all(form(d, e) >= 0 for e in exceptional):
            movable.append(d)
    nef = [d for d in movable if all(form(d, e) >= 0 for e in exceptional)]
    return [DivisorClass(lat, d) for d in sorted(exceptional + nef)]


def homology_lemma_cases(fiber: str, bound: int = 3) -> dict:
    """Exhibit, per candidate divisor trace, a curve met nonpositively.

    A divisor trace on a fiber would have to meet every fiber curve
    positively; each case therefore certifies the contradiction by searching
    the bounded class box for an irreducible class whose product with the
    trace is <= 0 (preferring product exactly 0, then small coordinates).
    """
    if fiber not in FIBERS:
        raise ValueError(f"unknown fiber model {fiber!r}")
    lat = FIBERS[fiber]
    candidates = irreducible_curve_classes(lat, bound)
    if fiber == "blowup1":
        e1 = DivisorClass(lat, (0, 0, -1))
        c1 = DivisorClass(lat, (1, 0, 1))
        c3 = DivisorClass(lat, (0, 1, 1))
        traces = [(c1, e1), (e1, c3), (e1,)]
    else:  # each (-1)-class; on sigma1 that is the (-1)-section alone
        traces = [(d,) for d in candidates if intersect(d, d) == -1]

    cases = []
    passed = True
    for trace in traces:
        best = None
        for cand in candidates:
            value = sum(intersect(t, cand) for t in trace)
            if value > 0:
                continue
            key = (-value, cand.coords)  # prefer product 0, then small coords
            if best is None or key < best[0]:
                best = (key, cand, value)
        ok = best is not None
        passed = passed and ok
        cases.append(
            {
                "trace": [str(t) for t in trace],
                "witness": str(best[1]) if ok else None,
                "product": best[2] if ok else None,
                "found": ok,
            }
        )
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


@dataclass(frozen=True)
class BundleState:
    """Combinatorial record of a twisted P1-bundle over a Hirzebruch base.

    The fiber index is derived from the counters.  A boundary divisor carries
    two invariant curves exactly while its twist counter is positive (the
    construction adds a second invariant section).  The counters are
    nonnegative, so a positive fiber index means a positive counter: the
    normal-form walk always has a step to take.
    """

    base_n: int
    k0: int
    k_inf: int
    transcript: tuple[str, ...] = ()

    def __post_init__(self):
        if self.k0 < 0 or self.k_inf < 0:
            raise ValueError("twist counters must be nonnegative")
        if self.base_n < 1:
            raise ValueError("the construction needs a base index >= 1")

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
