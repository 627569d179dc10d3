"""Exact arithmetic foundation: rationals, polynomials, rational
functions in t, quadratic extensions of Q(t) with exact valuations,
truncated power series for the closed forms, and the bivariate helpers
the curve and classifier layers build on.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
"""

from .poly import Poly, poly_is_square
from .puiseux import expand_ratfunc
from .quadext import QuadExt, QuadExtElem
from .ratfunc import RatFunc, ratfunc_is_square
from .rationals import INF, SqrtPair, rat_from_string, rat_to_string
from .tseries import TSeries
from .xypoly import XYPoly, reduce_mod, xpoly_is_square

__all__ = [
    "INF",
    "Poly",
    "QuadExt",
    "QuadExtElem",
    "RatFunc",
    "SqrtPair",
    "TSeries",
    "XYPoly",
    "expand_ratfunc",
    "poly_is_square",
    "rat_from_string",
    "rat_to_string",
    "ratfunc_is_square",
    "reduce_mod",
    "xpoly_is_square",
]
