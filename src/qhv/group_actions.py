"""Derivations, sl2 triples and torus scalings on coordinate rings.

A :class:`Derivation` assigns a polynomial image to every ring variable and
extends to the whole ring by the Leibniz rule; the sl2 operators used by the
degeneration checks are concrete derivations.  A :class:`TorusAction` records
the integer scaling weight of each variable, making semi-invariance a
termwise weight computation and the scaling identity a polynomial identity in
a formal invertible parameter ``xi``.

The standard raising/lowering convention used everywhere in this package:
on the quadric chart ring,

    E = {x -> y, y -> 2z, z -> 0},   H = {x -> -2x, y -> 0, z -> 2z},
    F = {x -> 0, y -> 2x, z -> y},

so H-weights of (x, y, z) are (-2, 0, 2), E raises the weight by 2, and the
commutators satisfy [H,E] = 2E, [H,F] = -2F, [E,F] = H as operators; the
one constructor of every triple checks them.  All three annihilate
4xz - y^2.  The five-variable triple is never transcribed: it is pushed
forward through the quadratic embedding

    a = x^2, b = 2xy, c = 2xz + y^2, e = 2yz, f = z^2, g = l^-k (4xz - y^2)

by differentiating each coordinate function and re-expressing the result,
by :func:`ideals.span_coordinates`, in the basis (a, .., f, 4xz - y^2) of the
quadrics; (a, .., f) span an sl2-stable summand, so the coordinate on the
invariant is zero.  It is checked, and the triple serves every twist k.
"""

from __future__ import annotations

from operator import itemgetter, mul
from typing import Mapping, NamedTuple

from . import ideals
from .polyring import (
    PolyError,
    Polynomial,
    SubstitutionMap,
    VariableContext,
    derivative,
)

_XYZ = VariableContext(("x", "y", "z"))
_x, _y, _z = (_XYZ.var(n) for n in "xyz")

#: Coordinate functions of the quadratic embedding, indexed like (a, b, c, e, f)
#: plus the invariant quadric that l^k g pulls back to.
EMBEDDING_COMPONENTS: dict[str, Polynomial] = {
    "a": _x * _x,
    "b": 2 * _x * _y,
    "c": 2 * _x * _z + _y * _y,
    "e": 2 * _y * _z,
    "f": _z * _z,
}

#: 4xz - y^2, the quadric invariant; the image of l^k g under the embedding.
QUADRIC_INVARIANT: Polynomial = 4 * _x * _z - _y * _y

#: Chart ring of the quadric degenerations ([x:y:z:w] and the base parameter l).
QUADRIC_CHART_RING = _XYZ.extend(("w", "l"), invertible=("l",))

#: Chart ring of the F4 degenerations ([a:b:c:e:f:g] and the base parameter l).
F4_CHART_RING = VariableContext((*EMBEDDING_COMPONENTS, "g", "l"), invertible={"l"})


class Derivation(tuple):
    """Variable-to-polynomial assignment extended by the Leibniz rule."""

    __slots__ = ()

    def __new__(cls, ring: VariableContext, images: Mapping[str, Polynomial]):
        images = dict(images)
        missing = set(ring.names) - set(images)
        if missing:
            raise PolyError(f"derivation lacks images for {sorted(missing)}")
        unknown = set(images) - set(ring.names)
        if unknown:
            raise PolyError(f"derivation has images for unknown variables {sorted(unknown)}")
        for name, img in images.items():
            if img.ring != ring:
                raise PolyError(f"image of {name!r} lives in a different context")
        return tuple.__new__(cls, (ring, images))

    ring = property(itemgetter(0))
    images = property(itemgetter(1))

    def __hash__(self):
        return hash(self.ring)


def apply(D: Derivation, p: Polynomial) -> Polynomial:
    """Leibniz extension of D applied to p: the sum over the variables v of
    dp/dv * D(v); valid on Laurent exponents.  Only the variables that occur
    in p have a nonzero dp/dv."""
    if p.ring != D.ring:
        raise PolyError("polynomial does not live in the derivation's ring")
    result = D.ring.zero()
    for name, occurs in zip(D.ring.names, map(any, zip(*p.terms))):
        img = D.images[name]
        if occurs and img:
            result = result + derivative(p, name) * img
    return result


class Sl2Triple(NamedTuple):
    """Raising, weight and lowering operators with [H,E]=2E, [H,F]=-2F, [E,F]=H."""

    E: Derivation
    H: Derivation
    F: Derivation


def _triple(ring: VariableContext, E_images, H_images, F_images) -> Sl2Triple:
    """The triple sending the named coordinates to the given images and every
    other ring variable to 0; raises AssertionError unless [H,E] = 2E,
    [H,F] = -2F and [E,F] = H hold on every variable, where [A,B] sends v
    to A(B(v)) - B(A(v))."""
    zeros = {n: ring.zero() for n in ring.names}
    E, H, F = (Derivation(ring, {**zeros, **moved}) for moved in (E_images, H_images, F_images))
    for A, B, scale, want in ((H, E, 2, E), (H, F, -2, F), (E, F, 1, H)):
        for n in ring.names:
            if apply(A, B.images[n]) - apply(B, A.images[n]) != scale * want.images[n]:
                raise AssertionError(f"sl2 bracket relation fails on {n!r}")
    return Sl2Triple(E, H, F)


# -- the concrete triples ----------------------------------------------------


def sl2_v2_triple(ring: VariableContext = QUADRIC_CHART_RING) -> Sl2Triple:
    """The standard triple on (x, y, z), all other ring variables fixed.

    E and F annihilate 4xz - y^2, H has weights (-2, 0, 2) on (x, y, z).
    """
    x, y, z = (ring.var(n) for n in "xyz")
    return _triple(ring, {"x": y, "y": 2 * z}, {"x": -2 * x, "z": 2 * z}, {"y": 2 * x, "z": y})


def sl2_v4_triple(ring: VariableContext = F4_CHART_RING) -> Sl2Triple:
    """Triple on (a, .., f) obtained by push-forward through the embedding.

    Each image is the derivative of the corresponding coordinate function,
    re-expressed as a linear form in (a, .., f); every other ring variable
    (g and l on the chart ring) maps to 0.  The components span the
    sl2-stable summand V4 of the quadrics, so no image has an invariant
    coordinate; one that has raises.
    """

    def push(D: Derivation) -> dict[str, Polynomial]:
        images = {}
        basis = [*EMBEDDING_COMPONENTS.values(), QUADRIC_INVARIANT]
        coordinates = ideals.span_coordinates([apply(D, c) for c in basis[:-1]], basis)
        for name, coords in zip(EMBEDDING_COMPONENTS, coordinates):
            if coords is None or coords.pop() != 0:
                raise PolyError(f"image of {name!r} leaves the span of (a, .., f)")
            images[name] = sum(map(mul, map(ring.var, EMBEDDING_COMPONENTS), coords), ring.zero())
        return images

    return _triple(ring, *map(push, sl2_v2_triple(_XYZ)))


# -- invariance checks -------------------------------------------------------


def check_ideal_invariance(I: ideals.Ideal, T: Sl2Triple) -> bool:
    """True iff every operator image of every generator lies in I, decided
    as a Q-combination of the generators, which must be linearly independent;
    a False verdict is exact for forms of one degree, and raises otherwise."""
    images = [apply(D, g) for D in T for g in I.generators]
    return None not in ideals.span_coordinates(images, I.generators)


class TorusAction(tuple):
    """Diagonal one-parameter scaling: each variable scales by xi^weight."""

    __slots__ = ()

    def __new__(cls, weights: Mapping[str, int]):
        return tuple.__new__(cls, (dict(weights),))

    weights = property(itemgetter(0))

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def weight(self, p: Polynomial) -> int | None:
        """The common weight of p's terms, or None when two terms disagree.

        Variables the action does not name weigh 0; the zero polynomial has
        weight 0.
        """
        wvec = [self.weights.get(name, 0) for name in p.ring.names]
        found = {sum(e * w for e, w in zip(exp, wvec)) for exp in p.terms} or {0}
        return found.pop() if len(found) == 1 else None

    def scaling_map(self, ring: VariableContext) -> SubstitutionMap:
        """v -> xi^w(v) * v on the ring extended by invertible xi, fixing xi."""
        ext = ring.extend(("xi",), invertible=("xi",))
        return ext.monomial_map(ext, {n: {n: 1, "xi": self.weights.get(n, 0)} for n in ring.names})


def check_semi_invariance(I: ideals.Ideal, A: TorusAction) -> bool:
    """True iff every generator is weight-homogeneous for A."""
    return all(A.weight(g) is not None for g in I.generators)
