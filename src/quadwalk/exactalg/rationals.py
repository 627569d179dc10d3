"""Exact rational scalars.

Rationals are the stdlib Fraction: it already keeps fractions reduced
with a positive denominator, which is exactly the invariant we need.  On
top of that this module provides parsing/formatting for the "p/q" wire
format and sqrt_fraction, the exact square root of a rational square,
which is all QuadExt needs to decide questions about its selected root.
Parsing refuses a string past the interpreter's limit on the digits of
an int (sys.get_int_max_str_digits) with TooManyDigits, whose message
quotes only a prefix of the string: such input comes from outside and
may be thousands of digits long.  Results of valid input may pass it
too, so rat_to_string formats those through decimal.Decimal.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

INF = math.inf  # valuation of the zero element


class TooManyDigits(ValueError):
    """An integer string with more digits than int() parses."""


def parse_int(s: str) -> int:
    """int(s), raising TooManyDigits past the interpreter's digit limit."""
    try:
        return int(s)
    except ValueError:
        n, limit = sum(ch.isdigit() for ch in s), sys.get_int_max_str_digits()
        if limit and n > limit:
            raise TooManyDigits(f"too many digits ({n}, the limit is {limit}): "
                                f"{s.strip()[:20]!r}...") from None
        raise


def rat_from_string(s: str) -> Fraction:
    """Parse "p/q" or an integer string into a Fraction."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(parse_int(num), parse_int(den))
    return Fraction(parse_int(s))


def rat_to_string(r: Fraction) -> str:
    if r.denominator == 1:
        return _int_to_string(r.numerator)
    return f"{_int_to_string(r.numerator)}/{_int_to_string(r.denominator)}"


def _int_to_string(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the digit limit; Decimal has none, same digits
        from decimal import Decimal
        return str(Decimal(n))


def sqrt_fraction(r: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if r < 0:
        return None
    a = math.isqrt(r.numerator)
    b = math.isqrt(r.denominator)
    if a * a == r.numerator and b * b == r.denominator:
        return Fraction(a, b)
    return None
