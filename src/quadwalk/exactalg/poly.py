"""Dense univariate polynomials over the rationals, in t.

Poly stores no variable name and always prints in t.  A caller that
keeps a coefficient vector in a catalytic variable (x or y) in a Poly
knows which variable it means; the Poly does not.

Coefficients are Fractions stored from degree 0 up with the trailing
(leading) zero coefficients stripped; the zero polynomial has an empty
coefficient tuple and degree None.  Degrees in this project stay tiny,
so everything is schoolbook arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rationals import INF, rat_to_string, sqrt_fraction


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def gen(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, c, k):
        return cls((0,) * k + (c,))

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def lc(self):
        if not self.coeffs:
            raise ValueError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def valuation(self):
        """Order of vanishing at 0; INF for the zero polynomial."""
        if not self.coeffs:
            return INF
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return Fraction(k)
        raise AssertionError

    def low_coeff(self):
        """Coefficient of the lowest-order nonzero term."""
        for c in self.coeffs:
            if c != 0:
                return c
        raise ValueError("low coefficient of zero polynomial")

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.lc())

    def scale(self, c):
        c = Fraction(c)
        return Poly([x * c for x in self.coeffs])

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t**k (k >= 0)."""
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs)

    def divmod(self, other):
        """Exact euclidean division over the field of fractions."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly.zero()
        r = self
        d = other.degree
        inv_lc = 1 / other.lc()
        while not r.is_zero() and r.degree >= d:
            k = r.degree - d
            c = r.lc() * inv_lc
            mono = Poly.monomial(c, k)
            q = q + mono
            r = r - mono * other
        return q, r

    def divexact(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def gcd(self, other):
        """Monic gcd, computed by a primitive PRS over the integers to
        keep intermediate coefficients small."""
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        a = _int_primitive(self.coeffs)
        b = _int_primitive(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = _int_prem(a, b)
            a, b = b, _int_content_free(r)
        return Poly([Fraction(c, a[-1]) for c in a])

    # -- comparisons & rendering --------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({self!s})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = rat_to_string(abs(c))
            else:
                mag = "" if abs(c) == 1 else rat_to_string(abs(c)) + "*"
                term = f"{mag}t" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


def _int_primitive(coeffs):
    """Fraction coefficients as a primitive integer list."""
    den = lcm(*(c.denominator for c in coeffs))
    return _int_content_free([c.numerator * (den // c.denominator) for c in coeffs])


def _int_content_free(coeffs):
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


def _int_prem(a, b):
    """Pseudo-remainder of integer coefficient lists (a, b nonzero)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        la = a[-1]
        if la == 0:
            a.pop()
            continue
        k = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[k + i] -= la * bc
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def poly_is_square(p: Poly):
    """Decide whether p is the square of a polynomial over Q.

    Returns (flag, witness); the witness w satisfies w*w == p when flag
    is True.  The square root is matched from the top coefficient down,
    and the match is then checked by squaring it.
    """
    if p.is_zero():
        return True, p
    d = p.degree
    if d % 2 == 1:
        return False, None
    lc_root = sqrt_fraction(p.lc())
    if lc_root is None:
        return False, None
    h = d // 2
    q = [Fraction(0)] * (h + 1)
    q[h] = lc_root
    for k in range(h - 1, -1, -1):
        acc = Fraction(0)
        for i in range(k + 1, h):
            acc += q[i] * q[k + h - i]
        q[k] = (p[k + h] - acc) / (2 * lc_root)
    w = Poly(q)
    if w * w == p:
        return True, w
    return False, None
