"""Exact arithmetic foundation: rationals, polynomials and rational
functions in t, quadratic extensions of Q(t) with exact valuations,
truncated power series for the closed forms, and the bivariate helpers
the curve and classifier layers build on.

There is one indeterminate, t, and no value stores a variable name: a
Poly is a polynomial in t, an XYPoly keys its Poly coefficients by the
exponents of x and y, and the coefficients of a TSeries are coefficient
vectors in the catalytic variable (x or y), which only the caller names.
Every conversion into Q(t) goes through RatFunc(v), and every
conversion into Q(t)(sqrt(D)) through QuadExtElem(v), for v an int, a
Fraction, a Poly or (for QuadExtElem) a RatFunc.

A quadratic extension pins its square root by the leading coefficient c
of the radicand (the root leads with the principal square root of c),
so deciding its valuations and equalities takes exact rational square
roots only: no integer is ever factored.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
"""

from .poly import Poly, poly_is_square
from .puiseux import expand_ratfunc
from .quadext import QuadExt, QuadExtElem
from .ratfunc import RatFunc, ratfunc_is_square
from .rationals import INF, TooManyDigits, parse_int, rat_from_string, rat_to_string
from .tseries import TSeries
from .xypoly import XYPoly, reduce_mod, xpoly_is_square

__all__ = [
    "INF",
    "Poly",
    "QuadExt",
    "QuadExtElem",
    "RatFunc",
    "TSeries",
    "TooManyDigits",
    "XYPoly",
    "expand_ratfunc",
    "parse_int",
    "poly_is_square",
    "rat_from_string",
    "rat_to_string",
    "ratfunc_is_square",
    "reduce_mod",
    "xpoly_is_square",
]
