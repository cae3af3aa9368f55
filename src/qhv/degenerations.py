"""The quadric and F4 fiber degenerations: charts, gluings and their checks.

A degeneration is covered by two charts over the affine base parameter ``l``;
each chart carries a defining ideal, a torus scaling and an sl2 triple.  The
charts glue over the punctured base through ``l -> l^-1`` together with a
twist of the family's marked coordinate by a power of ``l``.  What tells the
two families apart is data, in :data:`FAMILIES`: the chart ring, the marked
coordinate (``w``, or ``g = w^2`` on the F4 quotient), its degree in ``w``
and the twist rule.  Everything this
module asserts is an exact polynomial identity:

* the gluing carries one chart ideal to the other up to a unit power of ``l``;
* the torus scaling commutes with the gluing once the scaling parameter ``xi``
  is adjoined as a formal invertible variable;
* the six-generator chart ideal of the F4 family is derived once, as the
  elimination kernel of the quadratic parametrization in the twist-free
  coordinates (a, .., f, t), and dressed by t -> l^k g for each twist k; the
  hand-recorded generator lists are adjudicated against it member by member;
* the F4 chart is the quotient of the quadric chart by the sign involution of
  ``w``: every derived generator pulls back into the quadric ideal through
  ``g -> w^2`` and the pullback only involves even powers of ``w``;
* the singular locus of each quadric chart is certified per standard affine
  chart through its Jacobian ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .group_actions import (
    EMBEDDING_COMPONENTS,
    F4_CHART_RING,
    QUADRIC_CHART_RING,
    QUADRIC_INVARIANT,
    Sl2Triple,
    TorusAction,
    check_ideal_invariance,
    check_semi_invariance,
    sl2_v2_triple,
    sl2_v4_triple,
    apply,
)
from .ideals import (
    Ideal,
    contains,
    contains_one,
    convert_context,
    eliminate,
    equal_up_to_units,
    gauss_jordan,
    jacobian_ideal,
    minimal_generators,
)
from .polyring import (
    PolyError,
    Polynomial,
    SubstitutionMap,
    VariableContext,
    primitive_integer_form,
    strip_unit_content,
)

ZERO = "zero"
INFINITY = "infinity"


class ConstructionError(PolyError):
    """A chart or gluing cannot be built: a bad twist, or a chart ideal that
    fails its invariance checks."""


@dataclass(frozen=True, eq=False)
class ChartModel:
    """One affine-base chart of a degeneration with its group data."""

    family: str
    chart_id: str
    twist: int
    ideal: Ideal
    torus: TorusAction
    sl2: Sl2Triple


@dataclass(frozen=True, eq=False)
class GluedFamily:
    """Two charts glued over the punctured base.

    Construction does not check the gluing; :func:`verify_gluing` does.
    """

    chart0: ChartModel
    chart_inf: ChartModel
    gluing: SubstitutionMap


# -- chart families -----------------------------------------------------------


@dataclass(frozen=True)
class ChartFamily:
    """One chart family: its ring, the marked coordinate that the twist acts
    on, that coordinate's degree in w (g = w^2 on the F4 quotient), and its
    twist rule."""

    ring: VariableContext
    marked: str
    degree: int
    odd_twists: bool  # twists odd and positive, else any nonnegative twist


FAMILIES = {
    "quadric": ChartFamily(QUADRIC_CHART_RING, "w", 1, odd_twists=True),
    "f4": ChartFamily(F4_CHART_RING, "g", 2, odd_twists=False),
}


def _family(name: str, *twists: int) -> ChartFamily:
    """The family called ``name``, once every twist has passed its rule."""
    if name not in FAMILIES:
        raise ConstructionError(f"unknown family {name!r}")
    family = FAMILIES[name]
    if any(k < 0 or family.odd_twists and k % 2 == 0 for k in twists):
        rule = "odd and positive" if family.odd_twists else "nonnegative"
        raise ConstructionError(f"{name} twists must be {rule}, got {list(twists)}")
    return family


def _check_nonnegative(k: int) -> None:
    """Reject a negative twist in the checks that also take even quadric twists."""
    if k < 0:
        raise ConstructionError(f"twist must be nonnegative, got {k}")


def _chart(
    name: str,
    k: int,
    chart_id: str,
    ideal: Callable[[], Ideal],
    sl2: Callable[[], Sl2Triple],
) -> ChartModel:
    """Build one chart and check its ideal against its group data.

    ``ideal`` and ``sl2`` build the chart ideal and the triple once the twist
    and the chart id are known to be valid.  The torus weighs the marked
    coordinate -degree*k and l 2 on the zero chart, and the reverse at
    infinity.
    """
    family = _family(name, k)
    if chart_id not in (ZERO, INFINITY):
        raise ConstructionError(f"unknown chart id {chart_id!r}")
    sign = -1 if chart_id == ZERO else 1
    torus = TorusAction({family.marked: sign * family.degree * k, "l": -2 * sign})
    chart = ChartModel(name, chart_id, k, ideal(), torus, sl2())
    if not check_semi_invariance(chart.ideal, torus):
        raise ConstructionError(f"{name} chart ideal is not torus semi-invariant")
    if not check_ideal_invariance(chart.ideal, chart.sl2):
        raise ConstructionError(f"{name} chart ideal is not sl2 invariant")
    return chart


def quadric_generator(k: int) -> Polynomial:
    """4xz - y^2 - l^k w^2, the single chart equation of the quadric family."""
    ring = QUADRIC_CHART_RING
    return convert_context(QUADRIC_INVARIANT, ring) - ring.monomial(1, {"l": k, "w": 2})


@lru_cache(maxsize=None)
def quadric_chart(k: int, chart_id: str = ZERO) -> ChartModel:
    """Chart of the quadric degeneration; the twist must be odd and positive."""
    return _chart("quadric", k, chart_id, lambda: Ideal([quadric_generator(k)]), sl2_v2_triple)


# -- the F4 chart ideal, derived by elimination -------------------------------

#: Twist-free presentation ring: t stands for the dressed coordinate l^k g.
_TWIST_FREE_RING = VariableContext(("a", "b", "c", "e", "f", "t"))


def _row_echelon_polynomials(
    polys: list[Polynomial], ring: VariableContext
) -> list[Polynomial]:
    """Canonical basis of the linear span: exact Gauss-Jordan over the
    monomials occurring, columns in descending monomial order."""
    monoms = sorted({m for p in polys for m in p.terms}, key=ring.monomial_key, reverse=True)
    rows = [[p.terms.get(m, Fraction(0)) for m in monoms] for p in polys]
    out = []
    for row in gauss_jordan(rows):
        terms = {m: v for m, v in zip(monoms, row) if v != 0}
        if terms:
            out.append(Polynomial(ring, terms))
    return out


@lru_cache(maxsize=None)
def _twist_free_f4_generators() -> tuple[Polynomial, ...]:
    """Kernel of a -> x^2, .., f -> z^2, t -> 4xz - y^2, derived by elimination.

    Eliminates (x, y, z) from the graph relations, extracts the minimal
    generators by total degree and canonicalizes them by row reduction: six
    quadrics in (a, .., f, t) with primitive integer coefficients, the ideal
    of the Veronese surface in this basis of the quadrics.
    """
    R = VariableContext(("x", "y", "z") + _TWIST_FREE_RING.names)
    graph = [R.var(n) - convert_context(p, R) for n, p in EMBEDDING_COMPONENTS.items()]
    graph.append(R.var("t") - convert_context(QUADRIC_INVARIANT, R))
    kernel = eliminate(Ideal(graph), {"x", "y", "z"})
    echelon = _row_echelon_polynomials(
        minimal_generators(kernel.generators), _TWIST_FREE_RING
    )
    return tuple(primitive_integer_form(g) for g in echelon)


def _dress(p: Polynomial, k: int) -> Polynomial:
    """Substitute t -> l^k g into a twist-free generator."""
    images = {n: F4_CHART_RING.var(n) for n in "abcef"}
    images["t"] = F4_CHART_RING.monomial(1, {"l": k, "g": 1})
    return SubstitutionMap(_TWIST_FREE_RING, F4_CHART_RING, images).apply(p)


@lru_cache(maxsize=None)
def derive_f4_ideal(k: int) -> Ideal:
    """Kernel of the twist-k quadratic parametrization ``g -> l^-k (4xz - y^2)``.

    Since l is a unit, ``t = l^k g`` is a change of coordinates that carries
    the twist-k parametrization onto the twist-free one with ``Q[l^±]``
    adjoined, so the kernel is the twist-free kernel, extended.  It is
    derived once, on first use, and dressed here by t -> l^k g.
    """
    _check_nonnegative(k)
    return Ideal([_dress(g, k) for g in _twist_free_f4_generators()])


@lru_cache(maxsize=None)
def f4_chart(k: int, chart_id: str = ZERO) -> ChartModel:
    """Chart of the F4 degeneration; any twist >= 0 is allowed."""
    return _chart("f4", k, chart_id, lambda: derive_f4_ideal(k), sl2_v4_triple)


def reference_f4_generators(k: int) -> list[Polynomial]:
    """The hand-recorded six-generator list for twist k (a claim, not ground truth)."""
    R = F4_CHART_RING
    a, b, c, e, f = (R.var(n) for n in "abcef")
    t = R.monomial(1, {"l": k, "g": 1})
    return [
        3 * e * e - 8 * c * f + 4 * f * t,
        c * e - 6 * b * f + e * t,
        3 * b * e - 48 * a * f + 2 * c * t + 2 * t * t,
        c * c - 36 * a * f + 2 * c * t + t * t,
        b * c - 6 * a * e + b * t,
        3 * b * b - 8 * a * c + 4 * a * t,
    ]


def variant_f4_generators() -> list[Polynomial]:
    """A commonly transcribed variant of the list (twist-1 shape).

    Rows 3 and 5 are written differently; the adjudication decides which rows
    are kernel members instead of editing them.
    """
    R = F4_CHART_RING
    a, b, c, e, f, g, l = (R.var(n) for n in "abcefgl")
    t = l * g
    return [
        3 * e * e - 8 * c * f + 4 * f * t,
        c * e - 6 * b * f + e * t,
        3 * b * e - 48 * a * f + 2 * c * t + 2 * l * l * g * g,
        c * c - 36 * a * f + 2 * c * t + t * t,
        b * c - 6 * a * c + b * t,
        3 * b * b - 8 * a * c + 4 * a * t,
    ]


def adjudicate_f4_generators(k: int) -> dict:
    """Member-by-member comparison of derived and hand-recorded generators.

    Returns per-row membership flags for the reference list at twist k (and,
    at twist 1, for the variant list), plus the reverse check that every
    derived generator lies in the ideal spanned by the reference list.
    """
    derived = derive_f4_ideal(k)
    reference = reference_f4_generators(k)

    def rows_for(source: str, polys: list[Polynomial], ideal: Ideal) -> list[dict]:
        return [
            {"source": source, "index": i, "generator": str(p), "member": contains(ideal, p)}
            for i, p in enumerate(polys)
        ]

    rows = rows_for("reference", reference, derived)
    if k == 1:
        rows += rows_for("variant", variant_f4_generators(), derived)
    rows += rows_for("derived", derived.generators, Ideal(reference))
    matched = all(r["member"] for r in rows if r["source"] in ("reference", "derived"))
    return {"twist": k, "matched": matched, "rows": rows}


# -- gluing -------------------------------------------------------------------


def gluing_map(family: str, k: int, l: int) -> SubstitutionMap:
    """Chart transition: l -> l^-1 and the marked coordinate twisted by l.

    The marked coordinate goes to itself times l^(degree (k+l)/2): w -> w
    l^((k+l)/2) on the quadric family, g -> g l^(k+l) on the F4 family.
    """
    fam = _family(family, k, l)
    ring = fam.ring
    images = {n: ring.var(n) for n in ring.names}
    images[fam.marked] = ring.monomial(1, {fam.marked: 1, "l": fam.degree * (k + l) // 2})
    images["l"] = ring.monomial(1, {"l": -1})
    return SubstitutionMap(ring, ring, images)


def glued_family(family: str, k: int, l: int) -> GluedFamily:
    gluing = gluing_map(family, k, l)
    chart = {"quadric": quadric_chart, "f4": f4_chart}[family]
    return GluedFamily(chart(k, ZERO), chart(l, INFINITY), gluing)


def _transition_denominator(gen: Polynomial, gluing: SubstitutionMap) -> int:
    """Power of ``l`` cleared from the denominator the transition incurs.

    The gluing sends the base parameter to a unit monomial with negative
    exponent; each generator term of degree d in the parameter passes through
    a denominator of that power times d.
    """
    img = gluing("l")
    (exp,) = img.terms
    v = exp[img.ring.index("l")]
    if v >= 0:
        return 0
    i = gen.ring.index("l")
    return max((t[i] * -v for t in gen.terms), default=0)


def verify_gluing(fam: GluedFamily) -> dict:
    """Substitute the gluing into every zero-chart generator and compare.

    The images, after clearing a unit power of ``l``, must generate the
    infinity-chart ideal; the report carries the cleared power per
    generator.  When the cleared images are the infinity-chart generators,
    literally and in order, the two ideals are equal with no basis computed.
    Both families match this way: ``4xz - y^2 - l^k w^2`` goes to
    ``4xz - y^2 - l^l w^2``, and each F4 generator depends on ``g`` and
    ``l`` only through ``t = l^k g``, which goes to ``l^l g``.  Any other
    presentation is compared by :func:`equal_up_to_units`.
    """
    images = []
    witnesses = []
    for gen in fam.chart0.ideal.generators:
        image = fam.gluing.apply(gen)
        cleared = strip_unit_content(image)
        witnesses.append(
            {
                "generator": str(gen),
                "cleared_power": _transition_denominator(gen, fam.gluing),
                "image": str(cleared),
            }
        )
        images.append(cleared)
    target = fam.chart_inf.ideal
    passed = tuple(images) == target.generators or equal_up_to_units(Ideal(images), target)
    return {
        "family": fam.chart0.family,
        "twists": [fam.chart0.twist, fam.chart_inf.twist],
        "passed": passed,
        "witnesses": witnesses,
    }


def verify_equivariance(fam: GluedFamily) -> dict:
    """Action-then-glue equals glue-then-action, as exact substitution maps.

    The torus comparison adjoins a formal invertible ``xi`` and compares the
    composite assignment of every variable; the sl2 comparison checks the two
    pulled-back derivations agree on every variable.
    """
    ring = fam.chart0.ideal.ring
    xi = "xi"
    ext = ring.extend((xi,), invertible=(xi,))
    lift = SubstitutionMap(
        ring, ext, {n: ext.var(n) for n in ring.names}
    )
    glue_ext = SubstitutionMap(
        ext,
        ext,
        {
            **{n: lift.apply(fam.gluing(n)) for n in ring.names},
            xi: ext.var(xi),
        },
    )
    scale0 = fam.chart0.torus.scaling_map(ring, xi)
    scale_inf = fam.chart_inf.torus.scaling_map(ring, xi)

    torus_rows = []
    torus_ok = True
    for n in ring.names:
        action_then_glue = glue_ext.apply(scale0(n))
        glue_then_action = scale_inf.apply(glue_ext(n))
        same = action_then_glue == glue_then_action
        torus_ok = torus_ok and same
        torus_rows.append(
            {
                "variable": n,
                "action_then_glue": str(action_then_glue),
                "glue_then_action": str(glue_then_action),
                "equal": same,
            }
        )

    sl2_rows = []
    sl2_ok = True
    for label, D0, Dinf in zip(
        ("E", "H", "F"), fam.chart0.sl2.operators(), fam.chart_inf.sl2.operators()
    ):
        for n in ring.names:
            lhs = fam.gluing.apply(D0.images[n])
            rhs = apply(Dinf, fam.gluing(n))
            same = lhs == rhs
            sl2_ok = sl2_ok and same
            if not same:
                sl2_rows.append({"operator": label, "variable": n, "equal": False})
    return {
        "family": fam.chart0.family,
        "twists": [fam.chart0.twist, fam.chart_inf.twist],
        "passed": torus_ok and sl2_ok,
        "torus": torus_rows,
        "sl2_mismatches": sl2_rows,
    }


# -- embedding and quotient identities ----------------------------------------


def _embedding_map(g_image: Polynomial) -> SubstitutionMap:
    """a -> x^2, .., f -> z^2 into the quadric chart ring, l fixed, g -> g_image."""
    ring = QUADRIC_CHART_RING
    images = {n: convert_context(p, ring) for n, p in EMBEDDING_COMPONENTS.items()}
    images.update(g=g_image, l=ring.var("l"))
    return SubstitutionMap(F4_CHART_RING, ring, images)


def embedding_substitution(k: int) -> SubstitutionMap:
    """a -> x^2, .., f -> z^2, g -> l^-k (4xz - y^2): the chart parametrization."""
    ring = QUADRIC_CHART_RING
    return _embedding_map(
        ring.monomial(1, {"l": -k}) * convert_context(QUADRIC_INVARIANT, ring)
    )


def verify_embedding(k: int) -> dict:
    """The parametrization annihilates every derived F4 generator."""
    phi = embedding_substitution(k)
    witnesses = []
    passed = True
    for gen in derive_f4_ideal(k).generators:
        value = phi.apply(gen)
        ok = value.is_zero()
        passed = passed and ok
        witnesses.append({"generator": str(gen), "image": str(value), "zero": ok})
    return {"twist": k, "passed": passed, "witnesses": witnesses}


def quotient_substitution() -> SubstitutionMap:
    """The double-cover pullback a -> x^2, .., f -> z^2, g -> w^2."""
    return _embedding_map(QUADRIC_CHART_RING.parse("w^2"))


def verify_quotient(k: int) -> dict:
    """The F4 chart is the sign-involution quotient of the quadric chart.

    Every derived generator pulls back through g -> w^2 into the quadric
    chart ideal (formed for any twist >= 0 here), and every pullback is fixed
    by w -> -w.
    """
    _check_nonnegative(k)
    ring = QUADRIC_CHART_RING
    quad = Ideal([quadric_generator(k)])
    sigma = quotient_substitution()
    flip = SubstitutionMap(
        ring,
        ring,
        {**{n: ring.var(n) for n in ring.names}, "w": -ring.var("w")},
    )
    witnesses = []
    passed = True
    for gen in derive_f4_ideal(k).generators:
        pullback = sigma.apply(gen)
        member = contains(quad, pullback)
        even = flip.apply(pullback) == pullback
        passed = passed and member and even
        witnesses.append(
            {
                "generator": str(gen),
                "pullback": str(pullback),
                "in_quadric_ideal": member,
                "sign_invariant": even,
            }
        )
    return {"twist": k, "passed": passed, "witnesses": witnesses}


# -- singular locus certification ----------------------------------------------


def _affine_chart(gen: Polynomial, unit_var: str) -> tuple[VariableContext, Polynomial]:
    """Specialize one projective coordinate to 1; the base parameter becomes
    an ordinary (non-invertible) chart coordinate so the Jacobian ideal sees
    the central fiber."""
    src = gen.ring
    keep = tuple(n for n in src.names if n != unit_var)
    chart = VariableContext(keep)
    images = {n: chart.var(n) for n in keep}
    images[unit_var] = chart.one()
    sub = SubstitutionMap(src, chart, images)
    return chart, sub.apply(gen)


def _locus_of_chart(chart_ring: VariableContext, equation: Polynomial) -> dict:
    J = jacobian_ideal(Ideal([equation]), chart_ring.names)
    if contains_one(J):
        return {"status": "smooth"}
    vanishes_at_origin = all(
        any(exp) for g in J.generators for exp in g.terms
    )
    powers = {}
    bound = max(2, equation.total_degree())
    for name in chart_ring.names:
        found = None
        for m in range(1, bound + 1):
            if contains(J, chart_ring.monomial(1, {name: m})):
                found = m
                break
        powers[name] = found
    if vanishes_at_origin and all(v is not None for v in powers.values()):
        return {"status": "single_point_origin", "vanishing_powers": powers}
    return {"status": "singular", "vanishing_powers": powers}


def quadric_singular_loci(k: int) -> dict:
    """Per affine chart: smooth, or singular exactly at the chart origin.

    The four standard charts set one projective coordinate to 1; the only
    singular chart for twist >= 2 is w = 1, where the locus is the single
    point x = y = z = l = 0.  For twist 0 and 1 every chart is smooth: on
    w = 1 the equation 4xz - y^2 - l^k has the partial -1 in l when k = 1,
    and when k = 0 its partials vanish only at x = y = z = 0, off the chart.
    """
    _check_nonnegative(k)
    gen = quadric_generator(k)
    charts = {}
    passed = True
    for unit_var in ("x", "y", "z", "w"):
        chart_ring, equation = _affine_chart(gen, unit_var)
        result = _locus_of_chart(chart_ring, equation)
        charts[unit_var] = result
        expected = "single_point_origin" if unit_var == "w" and k >= 2 else "smooth"
        passed = passed and result["status"] == expected
    return {"twist": k, "passed": passed, "charts": charts}
