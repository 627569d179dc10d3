"""Exact rational scalars and quadratic surds.

Rationals are the stdlib Fraction: it already keeps fractions reduced
with a positive denominator, which is exactly the invariant we need.  On
top of that this module provides parsing/formatting for the "p/q" wire
format and SqrtPair, an element a + b*sqrt(s) of a real or imaginary
quadratic number field (s a squarefree integer).  SqrtPair is what the
leading coefficient of a selected square root, and the leading terms
compared against it, live in.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf  # valuation of the zero element


def rat_from_string(s: str) -> Fraction:
    """Parse "p/q" or an integer string into a Fraction."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rat_to_string(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def sqrt_fraction(r: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if r < 0:
        return None
    a = math.isqrt(r.numerator)
    b = math.isqrt(r.denominator)
    if a * a == r.numerator and b * b == r.denominator:
        return Fraction(a, b)
    return None


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s * k**2 with s squarefree (sign carried by s).

    Trial division; the integers seen here are products of small weight
    numerators/denominators, so this never gets expensive.
    """
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, k = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    return sign * s * n, k


class SqrtPair:
    """a + b*sqrt(s) with a, b rational and s a squarefree integer.

    s may be negative (imaginary quadratic field) or 1 (plain rational,
    normalized to b = 0).  Mixing two different non-trivial s values is
    a bug and raises.
    """

    __slots__ = ("a", "b", "s")

    def __init__(self, a, b=0, s=1):
        a = Fraction(a)
        b = Fraction(b)
        s = int(s)
        if s == 1 or b == 0:
            a, b, s = a + b * (1 if s == 1 else 0), Fraction(0), 1
            # b*sqrt(s) with b == 0 contributes nothing regardless of s
        self.a, self.b, self.s = a, b, s

    @staticmethod
    def sqrt_of_rational(r: Fraction) -> "SqrtPair":
        """The canonical square root rho*sqrt(s), rho > 0, of r != 0."""
        if r == 0:
            return SqrtPair(0)
        s, k = squarefree_decompose(r.numerator * r.denominator)
        return SqrtPair(0, Fraction(k, r.denominator), s)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def _coerce(self, other):
        if isinstance(other, SqrtPair):
            return other
        return SqrtPair(other)

    def _check(self, other):
        if self.b != 0 and other.b != 0 and self.s != other.s:
            raise ValueError(f"incompatible surds sqrt({self.s}) and sqrt({other.s})")
        return self.s if self.b != 0 else other.s

    def __add__(self, other):
        other = self._coerce(other)
        s = self._check(other)
        return SqrtPair(self.a + other.a, self.b + other.b, s)

    __radd__ = __add__

    def __neg__(self):
        return SqrtPair(-self.a, -self.b, self.s)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.b != 0 and other.b != 0:
            if self.s != other.s:
                # sqrt(s1)*sqrt(s2) = g*sqrt(s3), still representable
                # only when both sides are pure; general mixing unsupported
                if self.a == 0 and other.a == 0:
                    s3, g = squarefree_decompose(self.s * other.s)
                    return SqrtPair(0, self.b * other.b * g, s3)
                raise ValueError("cannot multiply mixed surds from different fields")
            s = self.s
        else:
            s = self.s if self.b != 0 else other.s
        a = self.a * other.a + self.b * other.b * s
        b = self.a * other.b + self.b * other.a
        return SqrtPair(a, b, s)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SqrtPair(other)
        if not isinstance(other, SqrtPair):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return self.a == other.a and self.b == other.b and self.s == other.s

    def __repr__(self):
        if self.b == 0:
            return rat_to_string(self.a)
        bs = f"{rat_to_string(self.b)}*sqrt({self.s})"
        if self.a == 0:
            return bs
        return f"{rat_to_string(self.a)} + {bs}" if self.b > 0 else (
            f"{rat_to_string(self.a)} - {rat_to_string(-self.b)}*sqrt({self.s})"
        )
