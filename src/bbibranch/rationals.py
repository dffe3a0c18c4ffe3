"""Exact rational arithmetic helpers.

All solver arithmetic in this package is exact, on one rule: a value is a
Python int when it is integral and a ``fractions.Fraction`` otherwise.
A Fraction enters only here: through ``rat``, for fractional input ('p/q'
weights), and through ``ratio``, which divides rationals, for the simplex's
non-integral pivots and results.  Arithmetic on Fractions stays exact
(the simplex's tableau entries, for one); results are read back through
``rat`` or ``ratio``, so an integral one is an int.  Code that tests a
fractional point keeps it as an int vector over one scale
(``packing.GPolymatroidSystem.check_point``).
Integral data such as b, unit capacities, integer weights and every
integral LP coefficient, bound, vertex, dual and objective stay int from
instance load through the simplex to the dual certificate; ``rat``,
``rat_str`` and ``is_integral`` take an int without building a Fraction.
A malformed number is an ``InputError``, whichever layer reads it.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import InputError

Q = Fraction


def rat(value):
    """An int, Fraction or 'p'/'p/q' string as an exact number: an int when
    integral (so "4/2" reads as 2), else a Fraction.  A string is ASCII
    [+-]?[0-9]+ with an optional /[0-9]+, surrounding whitespace allowed.
    Anything else, a float or a bool included, is ``InputError``: a float
    holds a binary value, not the decimal written, and a bool is no number.
    So is a string of more digits than ``int`` reads from text
    (``sys.get_int_max_str_digits``, 4300 by default), named in the message."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", value.strip())
        if match is None:
            raise InputError("not a rational: %r" % value)
        try:
            num, den = map(int, match.groups(default="1"))
        except ValueError:  # past sys.get_int_max_str_digits()
            raise InputError("too many digits: more than %d"
                             % sys.get_int_max_str_digits()) from None
        if den == 0:
            raise InputError("zero denominator: %r" % value)
        return ratio(num, den)
    if not isinstance(value, Q):
        raise InputError("not a rational: %r" % (value,))
    return value.numerator if value.denominator == 1 else value


def ratio(p, q):
    """p/q for rationals p and q != 0, each an int or a Fraction: an int
    when the quotient is integral, else a Fraction.  This and ``rat`` are
    where a Fraction enters; arithmetic on one stays exact."""
    whole, rest = divmod(p, q)
    return Q(p, q) if rest else whole


def rat_str(value) -> str:
    """Serialize a rational as 'p' or 'p/q' (exact, no float round trip)."""
    value = rat(value)
    if type(value) is int:
        return _digits(value)
    return "%s/%s" % (_digits(value.numerator), _digits(value.denominator))


def _digits(n: int) -> str:
    """n in decimal.  str(n) refuses more than sys.get_int_max_str_digits()
    digits, which a sum of weights at that limit can reach; a Decimal holds
    n exactly and prints it without the limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def is_integral(value) -> bool:
    return type(rat(value)) is int
