"""Exact rational arithmetic helpers.

All solver arithmetic in this package is exact, on one rule: a value is a
Python int when it is integral and a ``fractions.Fraction`` otherwise.
Fractions are made only here: by ``rat`` for fractional input ('p/q'
weights) and by ``ratio`` for the simplex's non-integral results.  Code
that tests a fractional point keeps it as an int vector over one scale
(``packing.GPolymatroidSystem.check_point``).
Integral data such as b, unit capacities, integer weights and every
integral LP coefficient, bound, vertex, dual and objective stay int from
instance load through the simplex to the dual certificate; ``rat``,
``rat_str`` and ``is_integral`` take an int without building a Fraction.
A malformed number is an ``InputError``, whichever layer reads it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

Q = Fraction


def rat(value):
    """An int, Fraction or 'p'/'p/q' string as an exact number: an int when
    integral (so "4/2" reads as 2), else a Fraction.  A string is ASCII
    [+-]?[0-9]+ with an optional /[0-9]+, surrounding whitespace allowed.
    Anything else, a float or a bool included, is ``InputError``: a float
    holds a binary value, not the decimal written, and a bool is no number."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", value.strip())
        if match is None:
            raise InputError("not a rational: %r" % value)
        num, den = map(int, match.groups(default="1"))
        if den == 0:
            raise InputError("zero denominator: %r" % value)
        return ratio(num, den)
    if not isinstance(value, Q):
        raise InputError("not a rational: %r" % (value,))
    return value.numerator if value.denominator == 1 else value


def ratio(p: int, q: int):
    """p/q for ints p and q != 0: an int when q divides p, else a Fraction."""
    whole, rest = divmod(p, q)
    return Q(p, q) if rest else whole


def rat_str(value) -> str:
    """Serialize a rational as 'p' or 'p/q' (exact, no float round trip)."""
    value = rat(value)
    if type(value) is int:
        return str(value)
    return "%d/%d" % (value.numerator, value.denominator)


def is_integral(value) -> bool:
    return type(rat(value)) is int
