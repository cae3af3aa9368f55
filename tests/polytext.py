"""Read polynomials in the form ``str`` prints: terms joined by `` + `` or
`` - ``, each a ``*``-product of integers, fractions ``p/q``, names and powers
``name^e`` (``e`` may be negative).  Term order is free, so tests can write a
polynomial the way a report prints it.
"""

import re
from fractions import Fraction

from qhv.polyring import PolyError, Polynomial, VariableContext

_TERM_SEP = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"(\d+)(?:/(\d+))?|([A-Za-z_]\w*)(?:\^(-?\d+))?")


class ParseError(PolyError):
    """Text that is not in the printed form."""


def parse(ring: VariableContext, text: str) -> Polynomial:
    """The polynomial of ``ring`` that ``text`` writes."""
    first, *rest = _TERM_SEP.split(text)
    sign = "-" if first.startswith("-") else "+"
    terms = [(sign, first.removeprefix("-"))] + list(zip(rest[::2], rest[1::2]))
    result = ring.zero()
    for sign, body in terms:
        coeff, powers = Fraction(-1 if sign == "-" else 1), {}
        for factor in body.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ParseError(f"cannot read {factor!r} in {text!r}")
            num, den, name, e = m.groups()
            if name is None:
                coeff *= Fraction(int(num), int(den or 1))
            else:
                powers[name] = powers.get(name, 0) + int(e or 1)
        result = result + ring.monomial(coeff, powers)
    return result
