"""Exact rational arithmetic helpers.

All solver arithmetic in this package is exact.  gmpy2's mpq is used when
available (it is faster for the rational work around the simplex: LP data,
results, max-flow capacities and weights); the stdlib Fraction is a drop-in
fallback with the same numerator/denominator API.  The simplex pivots
themselves run on Python ints and do not depend on the choice.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Q  # type: ignore[import-untyped]
except ImportError:  # pragma: no cover
    Q = Fraction

ZERO = Q(0)
ONE = Q(1)


def rat(value) -> "Q":
    """Coerce an int, Fraction, mpq or 'p/q' string to an exact rational."""
    if isinstance(value, str):
        return parse_rat(value)
    return Q(value)


def parse_rat(text: str) -> "Q":
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
