"""Intersection lattices of ruled surfaces and the bundle normal-form model.

Two lattice families carry all the intersection arithmetic used here:

* ``hirzebruch(n)``: classes a C0 + b F on the ruled surface with a section
  of self-intersection -n; C0.C0 = -n, C0.F = 1, F.F = 0.
* ``quadric_blowup(r)``: classes p f1 + q f2 - sum(mi ei) on the quadric
  surface blown up in r <= 2 general points; f1.f2 = 1, fi.fi = 0,
  ei.ei = -1, mixed products 0.

On top of the lattices: enumeration of (-1)-classes, the case analysis that
exhibits a curve meeting a candidate divisor trace nonpositively (the
homology-lemma contradiction), and a combinatorial model of twisted
P1-bundles over a Hirzebruch base.  A bundle state records the base index,
the two twist counters, the fiber index (always their sum) and which
boundary divisor carries two invariant curves; the normal-form algorithm
walks these states back to the trivial bundle, one fiber index per step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Literal, Sequence

HIRZEBRUCH = "hirzebruch"
QUADRIC_BLOWUP = "quadric_blowup"


class LatticeMismatch(ValueError):
    """Operands live in different intersection lattices."""


@dataclass(frozen=True)
class Lattice:
    kind: str
    param: int  # base index n, or number of blown-up points r

    def __post_init__(self):
        if self.kind == HIRZEBRUCH:
            if self.param < 0:
                raise ValueError("hirzebruch index must be >= 0")
        elif self.kind == QUADRIC_BLOWUP:
            if self.param not in (0, 1, 2):
                raise ValueError("quadric blow-ups are modeled for r in {0, 1, 2}")
        else:
            raise ValueError(f"unknown lattice kind {self.kind!r}")

    @property
    def rank(self) -> int:
        return 2 + (self.param if self.kind == QUADRIC_BLOWUP else 0)


def hirzebruch(n: int) -> Lattice:
    return Lattice(HIRZEBRUCH, n)


def quadric_blowup(r: int) -> Lattice:
    return Lattice(QUADRIC_BLOWUP, r)


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

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if other.lattice != self.lattice:
            raise LatticeMismatch("cannot add classes from different lattices")
        return DivisorClass(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __str__(self):
        if self.lattice.kind == HIRZEBRUCH:
            names = ["C0", "F"]
            signs = [1, 1]
        else:
            names = ["f1", "f2"] + [f"e{i + 1}" for i in range(self.lattice.param)]
            signs = [1, 1] + [-1] * self.lattice.param
        pieces = []
        for value, name, sign in zip(self.coords, names, signs):
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
    lat = d1.lattice
    if lat.kind == HIRZEBRUCH:
        (a1, b1), (a2, b2) = d1.coords, d2.coords
        return a1 * b2 + a2 * b1 - lat.param * a1 * a2
    p1, q1, *m1 = d1.coords
    p2, q2, *m2 = d2.coords
    return p1 * q2 + p2 * q1 - sum(x * y for x, y in zip(m1, m2))


def anticanonical(lat: Lattice) -> DivisorClass:
    if lat.kind == HIRZEBRUCH:
        return DivisorClass(lat, (2, lat.param + 2))
    return DivisorClass(lat, (2, 2) + (1,) * lat.param)


def _classes_in_box(lat: Lattice, bound: int) -> Iterable[DivisorClass]:
    for coords in itertools.product(range(-bound, bound + 1), repeat=lat.rank):
        yield DivisorClass(lat, coords)


def minus_one_curves(lat: Lattice, bound: int = 3) -> list[DivisorClass]:
    """All classes with self-intersection -1 meeting the anticanonical in 1.

    Brute-force enumeration over coordinates bounded by ``bound``.  On the
    quadric blow-ups the default bound 3 is exhaustive.  Write
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
    minus_k = anticanonical(lat)
    found = [
        d
        for d in _classes_in_box(lat, bound)
        if intersect(d, d) == -1 and intersect(d, minus_k) == 1
    ]
    found.sort(key=lambda d: d.coords)
    return found


def irreducible_curve_classes(lat: Lattice, bound: int = 3) -> list[DivisorClass]:
    """Classes of irreducible curves with coordinates bounded by ``bound``.

    Hirzebruch: C0, F, and a C0 + b F with a >= 1 and b >= n a (b >= 0 when
    n = 0).  Blow-ups of the quadric: the (-1)-classes together with the
    classes of nonnegative bidegree meeting every (-1)-class and both rulings
    nonnegatively with square >= 0 (a nef class with positive anticanonical
    degree moves in an irreducible family on these del Pezzo surfaces).
    """
    out: list[DivisorClass] = []
    if lat.kind == HIRZEBRUCH:
        n = lat.param
        for a, b in itertools.product(range(0, bound + 1), repeat=2):
            if (a, b) in ((1, 0), (0, 1)):
                out.append(DivisorClass(lat, (a, b)))  # the section C0 and a fiber
            elif a >= 1 and b >= n * a:
                out.append(DivisorClass(lat, (a, b)))
        out.sort(key=lambda d: d.coords)
        return out
    exceptional = minus_one_curves(lat, bound)
    out.extend(exceptional)
    fibers = [DivisorClass(lat, (1, 0) + (0,) * lat.param), DivisorClass(lat, (0, 1) + (0,) * lat.param)]
    for d in _classes_in_box(lat, bound):
        p, q = d.coords[:2]
        if p < 0 or q < 0 or (p, q) == (0, 0):
            continue
        if intersect(d, d) < 0:
            continue
        if any(intersect(d, e) < 0 for e in exceptional):
            continue
        if any(intersect(d, f) < 0 for f in fibers):
            continue
        if d not in out:
            out.append(d)
    out.sort(key=lambda d: d.coords)
    return out


def homology_lemma_cases(fiber: Literal["sigma1", "blowup1", "blowup2"], bound: int = 3) -> dict:
    """Exhibit, per candidate divisor trace, a curve met nonpositively.

    A divisor trace on a fiber would have to meet every fiber curve
    positively; each case therefore certifies the contradiction by searching
    the bounded class box for an irreducible class whose product with the
    trace is <= 0 (preferring product exactly 0, then small coordinates).
    """
    if fiber == "sigma1":
        lat = hirzebruch(1)
        traces = [tuple(minus_one_curves(lat, bound))]  # the unique (-1)-section
    elif fiber == "blowup1":
        lat = quadric_blowup(1)
        e1 = DivisorClass(lat, (0, 0, -1))
        c1 = DivisorClass(lat, (1, 0, 1))
        c3 = DivisorClass(lat, (0, 1, 1))
        traces = [(c1, e1), (e1, c3), (e1,)]
    elif fiber == "blowup2":
        lat = quadric_blowup(2)
        traces = [(d,) for d in minus_one_curves(lat, bound)]
    else:
        raise ValueError(f"unknown fiber model {fiber!r}")

    candidates = irreducible_curve_classes(lat, bound)
    cases = []
    passed = True
    for trace in traces:
        total = trace[0]
        for extra in trace[1:]:
            total = total + extra
        best = None
        for cand in candidates:
            value = intersect(total, cand)
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

#: Algorithm-direction step at a boundary divisor undoes the construction
#: step centered on the matching section of the invariant divisor.
_UNDOES = {A0: E0, AINF: EINF}


class StopB(RuntimeError):
    """The normal-form walk found no fiber-index-zero state and no boundary
    divisor with two invariant curves: a model-consistency failure."""


@dataclass(frozen=True)
class BundleState:
    """Combinatorial record of a twisted P1-bundle over a Hirzebruch base.

    ``fiber_m`` is the index of the strict transform of the generic
    half-fiber surface and always equals k0 + k_inf; a boundary divisor
    carries two invariant curves exactly while its twist counter is positive
    (the construction adds a second invariant section there).
    """

    base_n: int
    k0: int
    k_inf: int
    fiber_m: int
    a0_two_curves: bool
    ainf_two_curves: bool
    transcript: tuple[str, ...] = ()

    def __post_init__(self):
        if self.base_n < 1:
            raise ValueError("the construction needs a base index >= 1")
        if self.k0 < 0 or self.k_inf < 0:
            raise ValueError("twist counters must be nonnegative")
        if self.fiber_m != self.k0 + self.k_inf:
            raise ValueError(
                f"fiber index {self.fiber_m} must equal k0 + k_inf = {self.k0 + self.k_inf}"
            )


def trivial_bundle(n: int) -> BundleState:
    return BundleState(n, 0, 0, 0, False, False, ())


def apply_construction_step(state: BundleState, center: str) -> BundleState:
    """One elementary transformation centered on a section of the invariant
    divisor; raises the fiber index by one and marks the boundary divisor."""
    if center == E0:
        return replace(
            state,
            k0=state.k0 + 1,
            fiber_m=state.fiber_m + 1,
            a0_two_curves=True,
            transcript=state.transcript + (E0,),
        )
    if center == EINF:
        return replace(
            state,
            k_inf=state.k_inf + 1,
            fiber_m=state.fiber_m + 1,
            ainf_two_curves=True,
            transcript=state.transcript + (EINF,),
        )
    raise ValueError(f"unknown construction center {center!r}")


def construct_twisted(n: int, k0: int, k_inf: int) -> BundleState:
    """Bundle obtained from the trivial one by k0 + k_inf transformations.

    The infinity-side steps are applied first so that the normal-form walk,
    which drains the 0-side first, reverses the transcript literally.
    """
    if n < 1:
        raise ValueError("the twisted construction requires base index >= 1")
    if k0 < 0 or k_inf < 0:
        raise ValueError("twist counters must be nonnegative")
    state = trivial_bundle(n)
    for _ in range(k_inf):
        state = apply_construction_step(state, EINF)
    for _ in range(k0):
        state = apply_construction_step(state, E0)
    return state


def figure1_normalize(state: BundleState) -> tuple[BundleState, tuple[str, ...]]:
    """Walk the simplification flowchart until the fiber is index zero.

    Loop: stop when the fiber index is 0; otherwise transform at the curve
    not contained in the invariant section inside whichever boundary divisor
    carries two invariant curves (0-side first).  Reaching neither exit is a
    model-consistency failure (:class:`StopB`).
    """
    steps: list[str] = []
    while True:
        if state.fiber_m == 0:
            return state, tuple(steps)
        if state.a0_two_curves:
            k0 = state.k0 - 1
            if k0 < 0:
                raise StopB("boundary divisor flag inconsistent with twist counter")
            state = replace(
                state,
                k0=k0,
                fiber_m=state.fiber_m - 1,
                a0_two_curves=k0 > 0,
                transcript=state.transcript + (A0,),
            )
            steps.append(A0)
        elif state.ainf_two_curves:
            k_inf = state.k_inf - 1
            if k_inf < 0:
                raise StopB("boundary divisor flag inconsistent with twist counter")
            state = replace(
                state,
                k_inf=k_inf,
                fiber_m=state.fiber_m - 1,
                ainf_two_curves=k_inf > 0,
                transcript=state.transcript + (AINF,),
            )
            steps.append(AINF)
        else:
            raise StopB(
                "no boundary divisor carries two invariant curves while the "
                "fiber index is positive"
            )


def replay_reversed(n: int, steps: Sequence[str]) -> BundleState:
    """Rebuild a bundle state by running a normal-form transcript backwards."""
    state = trivial_bundle(n)
    for step in reversed(steps):
        state = apply_construction_step(state, _UNDOES[step])
    return state
