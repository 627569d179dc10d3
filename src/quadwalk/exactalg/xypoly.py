"""Bivariate (Laurent) polynomials in x, y over Q[t].

XYPoly is a sparse map (i, j) -> Poly in t.  Negative exponents are
allowed so the step Laurent polynomial and the gamma fractions fit
directly; reduction modulo the kernel, which needs honest polynomials,
first clears monomial denominators.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .ratfunc import RatFunc, ratfunc_is_square


class XYPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            if isinstance(c, (int, Fraction)):
                c = Poly.const(c)
            if not c.is_zero():
                clean[(int(key[0]), int(key[1]))] = c
        self.terms = clean

    @classmethod
    def monomial(cls, c, i, j):
        return cls({(i, j): c})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = XYPoly.monomial(other, 0, 0)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return XYPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return XYPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = XYPoly.monomial(other, 0, 0)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = XYPoly.monomial(other, 0, 0)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                p = c1 * c2
                s = out.get(k)
                out[k] = p if s is None else s + p
        return XYPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, XYPoly):
            return NotImplemented
        return self.terms == other.terms

    def shift(self, di, dj):
        return XYPoly({(i + di, j + dj): c for (i, j), c in self.terms.items()})

    def cleared(self):
        """(P, a, b) with P = self * x^a y^b a true polynomial."""
        if not self.terms:
            return self, 0, 0
        a = max(0, -min(i for i, _ in self.terms))
        b = max(0, -min(j for _, j in self.terms))
        return self.shift(a, b), a, b

    def deg_y(self):
        return max((j for _, j in self.terms), default=None)

    def deg_x(self):
        return max((i for i, _ in self.terms), default=None)

    def y_coeff(self, j):
        """Coefficient of y^j as an XYPoly in x alone."""
        return XYPoly({(i, 0): c for (i, jj), c in self.terms.items() if jj == j})

    def x_coeff(self, i):
        return XYPoly({(0, j): c for (ii, j), c in self.terms.items() if ii == i})

    def swap_xy(self):
        return XYPoly({(j, i): c for (i, j), c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            sx = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            sy = "" if j == 0 else ("y" if j == 1 else f"y^{j}")
            m = "*".join(s for s in (sx, sy) if s)
            cs = str(c)
            if ("+" in cs or "-" in cs.strip("-")) and m:
                cs = f"({cs})"
            parts.append(f"{cs}*{m}" if m else cs)
        return " + ".join(parts)


def reduce_mod(p: XYPoly, k: XYPoly) -> XYPoly:
    """Pseudo-remainder of p by k with respect to y.

    The result r has deg_y(r) < deg_y(k) and lc^m * p = q*k + r, so p
    vanishes on the (irreducible) curve k = 0 exactly when r does; for
    the kernel, whose fibers are honest degree-2 in y, r = 0 is the
    right test for an identity holding on the curve.
    """
    p, _, _ = p.cleared()
    k, _, _ = k.cleared()
    dk = k.deg_y()
    lead = k.y_coeff(dk)
    rem = p
    while not rem.is_zero():
        ry = rem.deg_y()
        if ry is None or ry < dk:
            break
        top = rem.y_coeff(ry)
        rem = lead * rem - top.shift(0, ry - dk) * k
    return rem


def xpoly_is_square(p: XYPoly):
    """Is an XYPoly in one variable a square over Q(t)?

    Degree-2 polynomials are decided by the discriminant-zero test; the
    leading coefficient must itself be a square in Q(t).
    """
    if p.deg_y() not in (None, 0):
        if p.deg_x() in (None, 0):
            p = p.swap_xy()
        else:
            raise ValueError("xpoly_is_square expects a univariate polynomial")
    coeffs = {}
    for (i, _), c in p.terms.items():
        coeffs[i] = RatFunc(c)
    if not coeffs:
        return True
    d = max(coeffs)
    if d % 2 == 1:
        return False
    zero = RatFunc(0)
    if d == 0:
        return ratfunc_is_square(coeffs[0])[0]
    if d == 2:
        a = coeffs.get(2, zero)
        b = coeffs.get(1, zero)
        c = coeffs.get(0, zero)
        if b * b - 4 * a * c != zero:
            return False
        return ratfunc_is_square(a)[0]
    # higher degrees never arise from the certificates this backs
    raise NotImplementedError("square test implemented through degree 2 in x")
