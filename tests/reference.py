"""Slow reference formulas the fast paths of quadwalk.curve and
quadwalk.model are tested against.

point_order computes the order of vanishing of a reciprocal-chart
polynomial at a smooth point of the kernel curve by expanding the curve
locally as an implicit tau-series y1 = phi(x1) (or x1 = phi(y1) where
the y1-tangent is vertical) and finding the first nonzero coefficient
of P along it.  It knows nothing of fiber polynomials or discriminants,
so it is an independent check on the orders curve_divisor reads off the
root multiplicities.  iota_by_field_division is the involution written
as a division in the quadratic extension, the form the Q(t)-scalar map
replaced.  kernel_by_poly_arithmetic builds K = xy(1 - t S) through
XYPoly/Poly products, negation and subtraction from the step Laurent
polynomial S, the form the term-by-term kernel replaced.

The rest are oracles the package itself never needs: the involution in
its product-of-roots form (iota1_quotient_form), the valuation dynamics
of one sigma step (step_valuation_forward), the bivaluation an orbit
profile certifies at any index (valuation_at), and a parser for the
enumerator's JSON (series_from_json).
"""

import json


from quadwalk.curve import (
    CurvePoint,
    _coordinate_zeros,
    _linear_fiber_zeros,
    _monomial_content,
    curve_equation,
    evaluate_xy,
    laurent_to_reciprocal,
)
from quadwalk.enumerator import SeriesTruncation
from quadwalk.errors import OffCurveInput, UnsupportedDivisorInput
from quadwalk.exactalg import INF, Poly, QuadExtElem, RatFunc, XYPoly, rat_from_string
from quadwalk.model import ALL_STEPS, Model
from quadwalk.sigmadist import Bivaluation, OrbitProfile


def kernel_by_poly_arithmetic(model):
    """xy - xy t S, with S = sum of d_v x^i y^j over the steps v = (i, j)."""
    S = XYPoly({(i, j): Poly.const(model.d(i, j)) for (i, j) in ALL_STEPS if model.d(i, j)})
    t = Poly.gen()
    xy = XYPoly.monomial(1, 1, 1)
    return xy - XYPoly({(i + 1, j + 1): c * t for (i, j), c in S.terms.items()})


def iota_by_field_division(model, pt, which):
    """iota1 (which = 1) or iota2 (which = 2) of pt, dividing z - t c
    by t d as field elements."""
    t = RatFunc(Poly.gen())
    if which == 1:
        s = (pt.x1 - t * model.d(1, 0)) / (t * model.d(1, -1))
        return CurvePoint(pt.x1, s - pt.y1)
    s = (pt.y1 - t * model.d(0, 1)) / (t * model.d(-1, 1))
    return CurvePoint(s - pt.x1, pt.y1)


def iota1_quotient_form(model: Model, pt: CurvePoint) -> QuadExtElem:
    """y1 image by the product-of-roots formula; needs y1 != 0."""
    num = (
        QuadExtElem(model.d(-1, 1)) * pt.x1 * pt.x1
        + QuadExtElem(model.d(0, 1)) * pt.x1
        + QuadExtElem(model.d(1, 1))
    )
    return num / (QuadExtElem(model.d(1, -1)) * pt.y1)


def step_valuation_forward(v: Bivaluation) -> Bivaluation:
    """One sigma step on valuations alone, valid when both half-steps
    keep the controlling coordinate strictly negative; ValueError
    otherwise.

    iota1 sends (i, j) to (i, 2i - j) when i < 0; iota2 then needs the
    new second component negative and sends it to (2(2i-j) - i, 2i - j).
    """
    i, j = v.vx, v.vy
    if i == INF or i >= 0:
        raise ValueError(f"first component of {v} is not negative")
    j2 = 2 * i - j if j != INF else INF
    if j2 == INF or j2 >= 0:
        raise ValueError("iota2 component after iota1 is not negative")
    return Bivaluation(2 * j2 - i, j2)


def valuation_at(profile: OrbitProfile, n: int) -> Bivaluation:
    """Bivaluation of sigma^n of the base point: explicit inside
    [bwd_start, fwd_start], on a certified tail beyond it."""
    if n in profile.valuations:
        return profile.valuations[n]
    if n > profile.fwd_start:
        start, k = profile.fwd_start, n - profile.fwd_start
    else:
        start, k = profile.bwd_start, profile.bwd_start - n
    v0 = profile.valuations[start]
    d = abs(v0.vx - v0.vy)
    return Bivaluation(v0.vx - 2 * d * k, v0.vy - 2 * d * k)


def series_from_json(text: str) -> SeriesTruncation:
    """Inverse of SeriesTruncation.to_json."""
    terms = [{(int(i), int(j)): rat_from_string(c) for i, j, c in entries}
             for entries in json.loads(text)]
    return SeriesTruncation(order=len(terms) - 1, terms=terms)


def _series_eval_xy(p: XYPoly, xs: list, ys: list, m: int):
    """Evaluate p on truncated tau-series coordinates (lists of field
    elements, index = power of the local parameter)."""
    zero = QuadExtElem(0)
    out = [zero for _ in range(m + 1)]
    cache = {"x": {}, "y": {}}

    def pow_series(base, n, tag):
        if n == 0:
            return [QuadExtElem(1)] + [zero] * m
        store = cache[tag]
        if n in store:
            return store[n]
        half = pow_series(base, n // 2, tag)
        res = _series_mul(half, half, m)
        if n % 2:
            res = _series_mul(res, base, m)
        store[n] = res
        return res

    for (i, j), c in sorted(p.terms.items()):
        coeff = QuadExtElem(c)
        term = _series_mul(pow_series(xs, i, "x"), pow_series(ys, j, "y"), m)
        for k in range(m + 1):
            out[k] = out[k] + coeff * term[k]
    return out


def _series_mul(a, b, m):
    zero = QuadExtElem(0)
    out = [zero for _ in range(m + 1)]
    for i, ai in enumerate(a):
        if i > m or ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j > m:
                break
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def point_order(model: Model, P: XYPoly, pt: CurvePoint, max_depth: int = 16) -> int:
    """Order of vanishing of P (reciprocal-chart polynomial) at a smooth
    point of the curve, via the implicit local parametrization."""
    C = curve_equation(model)
    Cy = evaluate_xy(_partial(C, "y"), pt.x1, pt.y1)
    if not Cy.is_zero():
        param_x = True
    else:
        Cx = evaluate_xy(_partial(C, "x"), pt.x1, pt.y1)
        if Cx.is_zero():
            raise OffCurveInput("singular point reached; only Omega is singular")
        param_x = False
        C = C.swap_xy()
        P = P.swap_xy()
        pt = CurvePoint(pt.y1, pt.x1)
        Cy = Cx
    m = 4
    while m <= max_depth:
        ys = _implicit_series(model, C, pt, m)
        xs = [pt.x1, QuadExtElem(1)] + [QuadExtElem(0)] * (m - 1)
        vals = _series_eval_xy(P, xs, ys, m)
        for k, v in enumerate(vals):
            if not v.is_zero():
                return k
        m *= 2
    raise UnsupportedDivisorInput(
        f"vanishing order exceeds probe depth {max_depth}"
    )


def _partial(p: XYPoly, var: str) -> XYPoly:
    out = {}
    for (i, j), c in p.terms.items():
        if var == "x" and i > 0:
            out[(i - 1, j)] = c.scale(i)
        elif var == "y" and j > 0:
            out[(i, j - 1)] = c.scale(j)
    return XYPoly(out)


def _implicit_series(model: Model, C: XYPoly, pt: CurvePoint, m: int):
    """y1 = phi(x1) on the curve near pt, as a tau = x1 - x1(pt) series."""
    Cy0 = evaluate_xy(_partial(C, "y"), pt.x1, pt.y1)
    inv = Cy0.inverse()
    xs = [pt.x1, QuadExtElem(1)] + [QuadExtElem(0)] * (m - 1)
    ys = [pt.y1] + [QuadExtElem(0)] * m
    for k in range(1, m + 1):
        res = _series_eval_xy(C, xs, ys, k)
        ck = -(res[k] * inv)
        ys[k] = ck
    return ys


def reference_divisor(model, h, memo=None):
    """Divisor of h with every order computed by point_order.

    The candidates are all zeros of x1, of y1 and of the non-monomial
    factor of the numerator, each counted once; the order of h at each
    is ord(P) - a ord(x1) - b ord(y1) for h = P / (x1^a y1^b).  memo, a
    list, keeps (P, point, order) across calls on the same model.
    """
    memo = [] if memo is None else memo
    P, a, b = laurent_to_reciprocal(h)
    core, _, _ = _monomial_content(P)
    cands = [pt for pt, _ in _coordinate_zeros(model, "x1") + _coordinate_zeros(model, "y1")]
    if core.deg_x() or core.deg_y():
        swap = not (core.deg_y() == 1 and core.y_coeff(1).deg_x() == 0)
        cands += [pt for pt, _ in _linear_fiber_zeros(model, core, swap)]
    x1, y1 = XYPoly.monomial(1, 1, 0), XYPoly.monomial(1, 0, 1)
    out = []
    for pt in cands:
        if any(pt == q for q, _ in out):
            continue
        order = _order(model, P, pt, memo)
        if a:
            order -= a * _order(model, x1, pt, memo)
        if b:
            order -= b * _order(model, y1, pt, memo)
        out.append((pt, order))
    return [(pt, m) for pt, m in out if m != 0]


def _order(model, P, pt, memo):
    """point_order, skipping the series where P does not vanish."""
    for Q, q, n in memo:
        if Q == P and q == pt:
            return n
    n = point_order(model, P, pt) if evaluate_xy(P, pt.x1, pt.y1).is_zero() else 0
    memo.append((P, pt, n))
    return n
