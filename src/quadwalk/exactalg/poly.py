"""Dense univariate polynomials over the rationals.

Coefficients are Fractions stored from degree 0 up with the trailing
(leading) zero coefficients stripped; the zero polynomial has an empty
coefficient tuple and degree None.  Degrees in this project stay tiny,
so everything is schoolbook arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import INF, rat_to_string, sqrt_fraction


class Poly:
    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs, var="t"):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var="t"):
        return cls((), var)

    @classmethod
    def const(cls, c, var="t"):
        return cls((c,), var)

    @classmethod
    def gen(cls, var="t"):
        return cls((0, 1), var)

    @classmethod
    def monomial(cls, c, k, var="t"):
        return cls((0,) * k + (c,), var)

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
        return Poly([x * c for x in self.coeffs], self.var)

    # -- ring operations ----------------------------------------------

    def _same_var(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.var)
        self._same_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)], self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_var(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by var**k (k >= 0)."""
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs, self.var)

    def divmod(self, other):
        """Exact euclidean division over the field of fractions."""
        self._same_var(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly.zero(self.var)
        r = self
        d = other.degree
        inv_lc = 1 / other.lc()
        while not r.is_zero() and r.degree >= d:
            k = r.degree - d
            c = r.lc() * inv_lc
            mono = Poly.monomial(c, k, self.var)
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
        self._same_var(other)
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
        return Poly([Fraction(c, a[-1]) for c in a], self.var)

    # -- comparisons & rendering --------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

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
                term = f"{mag}{self.var}" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


def _int_primitive(coeffs):
    """Fraction coefficients as a primitive integer list."""
    from math import gcd as igcd, lcm

    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = igcd(g, c)
    return [c // g for c in ints] if g > 1 else ints


def _int_content_free(coeffs):
    from math import gcd as igcd

    g = 0
    for c in coeffs:
        g = igcd(g, c)
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

    Returns (flag, witness); the witness q satisfies q*q == p when flag
    is True.  The degree-2 case is settled by its discriminant, higher
    even degrees by exact square-root extraction from the top.
    """
    if p.is_zero():
        return True, p
    d = p.degree
    if d % 2 == 1:
        return False, None
    lc_root = sqrt_fraction(p.lc())
    if lc_root is None:
        return False, None
    if d == 0:
        return True, Poly.const(lc_root, p.var)
    if d == 2:
        a, b, c = p[2], p[1], p[0]
        if b * b - 4 * a * c != 0:
            return False, None
        # p = a*(x + b/(2a))^2 with a a rational square
        w = Poly([b / (2 * lc_root), lc_root], p.var)
        return True, w
    # general even degree: match coefficients downwards, then verify
    h = d // 2
    q = [Fraction(0)] * (h + 1)
    q[h] = lc_root
    for k in range(h - 1, -1, -1):
        acc = Fraction(0)
        for i in range(k + 1, h):
            j = k + h - i
            if j <= h:
                acc += q[i] * q[j]
        q[k] = (p[k + h] - acc) / (2 * lc_root)
    w = Poly(q, p.var)
    if w * w == p:
        return True, w
    return False, None
