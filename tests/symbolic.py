"""sympy images of exactalg values, used as an independent oracle.

An element p + q*w of a quadratic extension maps to p + q*sqrt(D) with t
a positive symbol, so sympy's principal square root is the root whose
leading coefficient is the principal square root of the leading
coefficient c of D (i*sqrt(-c) for c < 0), the branch QuadExt selects.
sympy is a test dependency only.
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


def surd(c: Fraction):
    """The principal square root of a rational."""
    return sympy.sqrt(rational(c))


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


x, y = sympy.symbols("x y")


def residual_terms(model, series, order):
    """{(n, (i, j)): coefficient} of the nonzero terms of

        K Q - omega x y - c1 Q(x, 0) - c2 Q(0, y)   mod t^(order+1),

    built from the model's weights as the kernel equation states it:
    K = x y (1 - t S(x, y)), A = 1 - 1/a, B = 1 - 1/b, omega = 1 - A - B,
    c1 = A x y - t d_{1,-1} x^2 and c2 = B x y - t d_{-1,1} y^2.
    """
    def txy(expr):
        return sympy.Poly(expr, t, x, y, domain="QQ")

    def series_poly(keep):
        return sympy.Poly.from_dict(
            {(n, i, j): rational(c) for n, layer in enumerate(series.terms)
             for (i, j), c in layer.items() if keep(i, j)},
            t, x, y, domain="QQ")

    d = {s: rational(model.d(*s)) for s in model.stepset.steps}
    A = 1 - 1 / rational(model.a)
    B = 1 - 1 / rational(model.b)
    S = sum(c * x**i * y**j for (i, j), c in d.items())
    K = txy(sympy.expand(x * y * (1 - t * S)))
    c1 = txy(A * x * y - t * d[(1, -1)] * x**2)
    c2 = txy(B * x * y - t * d[(-1, 1)] * y**2)
    Q = series_poly(lambda i, j: True)
    Qx0 = series_poly(lambda i, j: j == 0)
    Q0y = series_poly(lambda i, j: i == 0)
    res = K * Q - txy((1 - A - B) * x * y) - c1 * Qx0 - c2 * Q0y
    return {(n, (i, j)): c for (n, i, j), c in res.terms() if n <= order and c != 0}
