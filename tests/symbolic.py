"""sympy images of exactalg values, used as an independent oracle.

An element p + q*w of a quadratic extension maps to p + q*sqrt(D) with t
a positive symbol, so sympy's principal square root is the root whose
leading coefficient is rho*sqrt(s) with rho > 0 (i*sqrt(|s|) for s < 0),
the branch QuadExt selects.  sympy is a test dependency only.
"""

from fractions import Fraction

import sympy

t = sympy.Symbol("t", positive=True)


def rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def poly(p):
    return sum((rational(c) * t**k for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def ratfunc(f):
    return poly(f.num) / poly(f.den)


def elem(e):
    if e.ctx is None:
        return ratfunc(e.p)
    return ratfunc(e.p) + ratfunc(e.q) * sympy.sqrt(ratfunc(e.ctx.D))


def surd(c):
    """A SqrtPair a + b*sqrt(s)."""
    return rational(c.a) + rational(c.b) * sympy.sqrt(c.s)


def series_terms(expr, below):
    """{exponent: coefficient} of the nonzero terms of the Puiseux
    expansion of expr at t = 0 with exponent < below."""
    ser = sympy.expand(sympy.series(expr, t, 0, below).removeO())
    out = {}
    for term in sympy.Add.make_args(ser):
        c, e = term.as_coeff_exponent(t)
        out[e] = out.get(e, 0) + c
    out = {e: sympy.simplify(c) for e, c in out.items()}
    return {e: c for e, c in out.items() if c != 0}
