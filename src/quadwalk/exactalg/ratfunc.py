"""The field Q(t) of rational functions in the formal series variable.

Every RatFunc is kept reduced (gcd of numerator and denominator is 1)
with a monic denominator, so representations are canonical and equality
is tuple comparison.  t is never specialized to a number anywhere in the
package; it stays a formal indeterminate, which realizes the standing
transcendence assumption on the series variable for free.

The operations keep that normal form without recomputing it where it
is already known: a sum or product with a zero operand returns the
other operand (or zero) as it stands, and negation flips the numerator
of a reduced fraction, which stays reduced with the same monic
denominator, so neither calls gcd.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ZeroDenominator
from .poly import Poly, poly_is_square
from .rationals import INF


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num)
        if den is None:
            den = Poly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            den = Poly.const(1)
        else:
            g = num.gcd(den)
            if g.degree and g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
            c = den.lc()
            if c != 1:
                num = num.scale(1 / c)
                den = den.scale(1 / c)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    # -- field operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero() or self.is_zero():
            return o if self.is_zero() else self
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        # -num/den is reduced with the same monic den: skip __init__
        out = object.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero() or self.is_zero():
            return self if self.is_zero() else o
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    # -- valuation data -------------------------------------------------

    def valuation(self):
        """Order of vanishing at t = 0 (INF for the zero function)."""
        if self.is_zero():
            return INF
        return self.num.valuation() - self.den.valuation()

    def low_coeff(self):
        """Leading Laurent coefficient at t = 0."""
        return self.num.low_coeff() / self.den.low_coeff()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RatFunc({self!s})"

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        num = str(self.num)
        if self.num.degree and self.num.degree > 0 and len(self.num.coeffs) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"


def ratfunc_is_square(f: RatFunc):
    """f = (a/b)**2 test; reduced forms make this componentwise."""
    ok_n, wn = poly_is_square(f.num)
    if not ok_n:
        return False, None
    ok_d, wd = poly_is_square(f.den)
    if not ok_d:
        return False, None
    return True, RatFunc(wn, wd)
