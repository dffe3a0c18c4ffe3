"""Exact rational arithmetic helpers.

All solver arithmetic in this package is exact, on one rule: a value is a
Python int when it is integral and a ``fractions.Fraction`` otherwise.
Values become fractions in two places only: ``rat`` for fractional input,
and the simplex (``lpsolve.RationalLP`` and its results).  Integral data
such as b, unit capacities and integer weights stay int through max-flow,
matroid intersection and the b-branching oracles.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction
ZERO = Q(0)
ONE = Q(1)


def rat(value):
    """An int, Fraction or 'p/q' string as an exact number: an int when
    integral (so "4/2" reads as 2), else a Fraction."""
    value = parse_rat(value) if isinstance(value, str) else Q(value)
    return value.numerator if value.denominator == 1 else value


def parse_rat(text: str) -> Q:
    """Parse 'p' or 'p/q' into an exact rational."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        return Q(int(parts[0]))
    if len(parts) == 2:
        num, den = int(parts[0]), int(parts[1])
        if den == 0:
            raise ValueError("zero denominator: %r" % text)
        return Q(num, den)
    raise ValueError("not a rational: %r" % text)


def rat_str(value) -> str:
    """Serialize a rational as 'p' or 'p/q' (exact, no float round trip)."""
    value = Q(value)
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    return "%d/%d" % (num, den)


def is_integral(value) -> bool:
    return Q(value).denominator == 1
