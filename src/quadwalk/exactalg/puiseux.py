"""Power-series expansion of a rational function at t = 0.

The closed forms of the solvable models carry a ratio in Q(t) that is
regular at t = 0 and vanishes there; ClosedForm.expand reads c_0 from
expand_ratfunc to reject any other ratio.  (The module name is
historical; the benchmark tracer addresses expand_ratfunc by this
path.)
"""

from __future__ import annotations

from fractions import Fraction

from .ratfunc import RatFunc


def expand_ratfunc(f: RatFunc, order: int) -> list[Fraction]:
    """Coefficients c_0..c_order of the power series of f at t = 0.

    Raises ValueError when f has a pole at t = 0.
    """
    out = [Fraction(0)] * (order + 1)
    if f.is_zero():
        return out
    vn = int(f.num.valuation())
    vd = int(f.den.valuation())
    if vn < vd:
        raise ValueError(f"{f} has a pole at t = 0")
    v = vn - vd
    a = f.num.coeffs[vn:]
    b = f.den.coeffs[vd:]
    # series long division t^v a(t)/b(t), a and b with nonzero constant term
    inv_b0 = 1 / b[0]
    for k in range(order + 1 - v):
        acc = a[k] if k < len(a) else Fraction(0)
        for j in range(1, min(k, len(b) - 1) + 1):
            acc -= b[j] * out[v + k - j]
        out[v + k] = acc * inv_b0
    return out
