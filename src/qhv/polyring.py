"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero rational
coefficients, each an ``int`` when it is an integer and a ``Fraction``
otherwise, attached to a :class:`VariableContext` that fixes the variable
set and which variables are invertible; monomials are ordered grevlex
(:func:`grevlex`).  Invertible (Laurent) variables may carry negative
exponents; all other variables are restricted to exponents >= 0.
Everything is immutable and exact: a coefficient that is not a
``numbers.Rational`` (a float, say) is refused, and there is no floating
point anywhere in this package.  The Groebner engine of :mod:`qhv.ideals`
computes in the polynomial ring and refuses negative exponents.

The module also owns every change of variables: substitution maps, whose
images may be Laurent monomial multiples (:class:`SubstitutionMap`; the
monomial ones come from :meth:`VariableContext.monomial_map`), and
:func:`convert_context`.  Beside them are partial derivatives and printing:
``str`` (:func:`format_polynomial`, e.g. ``4*x*z - y^2 - l^3*w^2``) is the
canonical form that reports carry; there is no text reader.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]
#: A stored coefficient: an ``int`` when integral, else a ``Fraction``.
Coefficient = int | Fraction


def grevlex(exp: Exponent) -> tuple:
    """The grevlex sort key of every ring: the larger monomial has the smaller key."""
    return (-sum(exp), exp[::-1])


class PolyError(ValueError):
    """Base error for polynomial construction and arithmetic."""


class ContextMismatch(PolyError):
    """Operands live in different variable contexts."""


class VariableContext(tuple):
    """Ordered variable set with invertibility flags, ordered grevlex.

    The pair ``(names, invertible)``: a tuple of names and the frozenset of
    the invertible ones.  Contexts compare and hash by value, so two
    independently built contexts with the same data are interchangeable.
    """

    __slots__ = ()

    def __new__(cls, names: Iterable[str], invertible: Iterable[str] = frozenset()):
        names, invertible = tuple(names), frozenset(invertible)
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names}")
        unknown = invertible - set(names)
        if unknown:
            raise PolyError(f"invertible variables not in context: {sorted(unknown)}")
        return tuple.__new__(cls, (names, invertible))

    names = property(itemgetter(0))
    invertible = property(itemgetter(1))

    # -- bookkeeping -------------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r} in context {self.names}") from None

    def extend(self, names: Iterable[str], invertible: Iterable[str] = ()) -> "VariableContext":
        return VariableContext(self.names + tuple(names), self.invertible | frozenset(invertible))

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self.names): value})

    def var(self, name: str) -> "Polynomial":
        return self.monomial(1, {name: 1})

    def monomial(self, coeff, powers: Mapping[str, int]) -> "Polynomial":
        exp = [0] * len(self.names)
        for name, e in powers.items():
            exp[self.index(name)] = e
        return Polynomial(self, {tuple(exp): coeff})

    def from_terms(self, terms: Mapping[Exponent, Rational]) -> "Polynomial":
        return Polynomial(self, dict(terms))

    def monomial_map(self, target: "VariableContext", powers: Mapping) -> "SubstitutionMap":
        """The map into ``target`` sending each variable named in ``powers`` to
        the coefficient-1 target monomial with the exponents ``powers`` gives
        it (``{}`` is 1), and every other variable to its namesake."""
        images = {n: target.monomial(1, e) for n, e in powers.items()}
        images.update((n, target.var(n)) for n in self.names if n not in powers)
        return SubstitutionMap(self, target, images)


def _exact(c) -> Coefficient:
    """The rational c as an ``int`` when it is an integer, else as a ``Fraction``."""
    if type(c) is not Fraction:
        if not isinstance(c, Rational):
            raise PolyError(f"coefficient {c!r} is not rational")
        c = Fraction(c)
    n, d = c.as_integer_ratio()
    return n if d == 1 else c


def _check_exponent(ring: VariableContext, exp: Exponent):
    """Raise unless exp has one entry per variable of ring, negative ones
    only on invertible variables."""
    if len(exp) != len(ring.names):
        raise PolyError(f"exponent vector {exp} does not match {ring.names}")
    for name, e in zip(ring.names, exp):
        if e < 0 and name not in ring.invertible:
            raise PolyError(f"negative exponent on non-invertible variable {name!r}")


class Polynomial:
    """Immutable sparse polynomial over Q attached to a VariableContext.

    The constructor drops zero coefficients, so stored terms never have
    one; arithmetic only accumulates and leaves cancellation to it.  It
    stores an integral coefficient as ``int`` and any other as a
    ``Fraction``, and raises :class:`PolyError` on a coefficient that is not
    a ``numbers.Rational``.  Exponents on non-invertible variables are >= 0.
    Equality is exact equality of the normalized term maps within one
    context.  The printed form is cached on first use; equality and hashing
    ignore it.
    """

    __slots__ = ("ring", "terms", "_text")

    def __init__(self, ring: VariableContext, terms: Mapping[Exponent, Rational]):
        n = len(ring.names)
        clean: dict[Exponent, Coefficient] = {}
        for exp, c in terms.items():
            if type(c) is not int:
                c = _exact(c)
            if c:
                if len(exp) != n or n and min(exp) < 0:
                    _check_exponent(ring, exp)
                clean[exp] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - guards immutability
        raise AttributeError("Polynomial is immutable")

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def leading_term(self) -> tuple[Exponent, Coefficient]:
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        exp = min(self.terms, key=grevlex)
        return exp, self.terms[exp]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ContextMismatch(
                    f"contexts differ: {self.ring.names} vs {other.ring.names}"
                )
            return other
        return self.ring.const(other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out[exp] + c if exp in out else c
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out: dict[Exponent, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                out[exp] = out[exp] + c1 * c2 if exp in out else c1 * c2
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int):
            raise PolyError("polynomial powers must be integers")
        if power < 0:
            # the constructor rejects a negative exponent on a plain variable
            if len(self.terms) != 1:
                raise PolyError("negative power of a polynomial that is not one term")
            ((exp, coeff),) = self.terms.items()
            return Polynomial(self.ring, {tuple(e * power for e in exp): Fraction(coeff) ** power})
        result = self.ring.one()
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            object.__setattr__(self, "_text", format_polynomial(self))
            return self._text

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


# -- derivations of the ring structure --------------------------------------


def derivative(p: Polynomial, name: str) -> Polynomial:
    """Partial derivative, valid for Laurent exponents; exp -> exp - e_i merges no terms."""
    i = p.ring.index(name)
    return Polynomial(
        p.ring, {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in p.terms.items() if e[i]}
    )


# -- substitution -----------------------------------------------------------

#: Where a monomial map sends one source variable: the variable's index, the
#: image's coefficient (``None`` for 1) and the image's exponent as sparse
#: ``(target index, power)`` pairs.
MonomialImage = tuple[int, Coefficient | None, tuple[tuple[int, int], ...]]


def map_exponents(
    terms: Mapping[Exponent, Coefficient], images: Sequence[MonomialImage], width: int
) -> dict[Exponent, Coefficient]:
    """Terms under a monomial map, computed on exponents.

    A term ``c x^e`` goes to ``c prod(c_i^e_i)`` at the exponent
    ``sum(e_i exp_i)``, where ``c_i x^exp_i`` is the image of the i-th
    variable; ``width`` is the number of target variables.  A variable with
    no entry in ``images`` must not occur.  Terms that land on one exponent
    are added, so the result may hold zero coefficients, which
    :class:`Polynomial` drops.
    """
    out: dict[Exponent, Coefficient] = {}
    for exp, c in terms.items():
        nexp = [0] * width
        for i, ci, image in images:
            e = exp[i]
            if e:
                if ci is not None:
                    c = c * (ci**e if e > 0 else Fraction(ci) ** e)
                for j, v in image:
                    nexp[j] += e * v
        key = tuple(nexp)
        out[key] = out[key] + c if key in out else c
    return out


class SubstitutionMap(tuple):
    """Simultaneous substitution sending each source variable to a polynomial.

    Every source variable must be assigned; images live in one target
    context (which may equal the source).  Images of invertible source
    variables must be unit monomials so that negative exponents resolve.
    ``_monomial`` is the map on exponents when every image is a single
    term, else None; it follows from the rest, so maps are equal exactly
    when their source, target and assignments are.
    """

    __slots__ = ()

    def __new__(
        cls,
        source: VariableContext,
        target: VariableContext,
        assignments: Mapping[str, Polynomial],
    ):
        assignments = dict(assignments)
        missing = set(source.names) - set(assignments)
        if missing:
            raise PolyError(f"unassigned variables: {sorted(missing)}")
        extra = set(assignments) - set(source.names)
        if extra:
            raise PolyError(f"assignments for unknown variables: {sorted(extra)}")
        for name, img in assignments.items():
            if img.ring != target:
                raise PolyError(f"image of {name!r} lives outside the target context")
            # Invertible variables need single-term images so negative powers
            # can resolve; inverting a non-invertible monomial fails at apply
            # time, when a negative exponent actually occurs.
            if name in source.invertible and len(img.terms) != 1:
                raise PolyError(
                    f"invertible variable {name!r} must map to a unit monomial, got "
                    f"{format_polynomial(img)}"
                )
        monomial = None
        if all(len(img.terms) == 1 for img in assignments.values()):
            monomial = []
            for i, name in enumerate(source.names):
                ((exp, coeff),) = assignments[name].terms.items()
                image = tuple((j, v) for j, v in enumerate(exp) if v)
                monomial.append((i, None if coeff == 1 else coeff, image))
            monomial = tuple(monomial)
        return tuple.__new__(cls, (source, target, assignments, monomial))

    source = property(itemgetter(0))
    target = property(itemgetter(1))
    assignments = property(itemgetter(2))
    _monomial = property(itemgetter(3))

    def __hash__(self):
        return hash((self.source, self.target))

    def __call__(self, name: str) -> Polynomial:
        return self.assignments[name]

    def apply(self, p: Polynomial) -> Polynomial:
        """The image of p under the substitution.

        When every image is a single term, the map is applied on exponents
        by :func:`map_exponents` and no polynomial is multiplied.  Otherwise
        each term is expanded as a product of powers of the images.  Either
        way a negative exponent that lands on a non-invertible target
        variable raises :class:`PolyError`.
        """
        if p.ring != self.source:
            raise ContextMismatch("polynomial does not live in the substitution source")
        if self._monomial is not None:
            return Polynomial(
                self.target, map_exponents(p.terms, self._monomial, len(self.target.names))
            )
        return self._expand(p)

    def _expand(self, p: Polynomial) -> Polynomial:
        """The generic route: every term as a product of powers of the images."""
        result = self.target.zero()
        for exp, coeff in p.terms.items():
            term = self.target.const(coeff)
            for name, e in zip(self.source.names, exp):
                if e:
                    term = term * self.assignments[name] ** e
            result = result + term
        return result


def convert_context(p: Polynomial, target: VariableContext) -> Polynomial:
    """Rewrite p in a context that holds every variable of its support (else
    ``index`` raises): the namesake monomial map, applied on exponents."""
    images = [(i, None, ((target.index(name), 1),)) for i, name in enumerate(p.ring.names)
              if name in target.names or any(exp[i] for exp in p.terms)]
    return Polynomial(target, map_exponents(p.terms, images, len(target.names)))


# -- text format -------------------------------------------------------------


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms in descending monomial order."""
    if not p.terms:
        return "0"
    pieces = []
    for exp in sorted(p.terms, key=grevlex):
        coeff = p.terms[exp]
        factors = []
        for name, e in zip(p.ring.names, exp):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
