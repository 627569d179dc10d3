"""The kernel curve, its involutions, and the critical points.

Everything works in the reciprocal chart: a point ([1:x1],[1:y1]) of the
projective completion has x1 = 1/x, y1 = 1/y, and the affine equation

    C(x1, y1) = x1 y1 - t (d1m1 y1^2 + dm11 x1^2 + d10 y1 + d01 x1 + d11)

is the kernel K of the model rewritten in that chart: curve_equation
derives it from K and states no coefficient of its own.  It covers the
whole curve except the singular corner Omega (x = y = 0), which no
orbit ever visits.  Coordinates at infinity in the original (x, y)
chart are just zero values of x1, y1 here, so the involutions can be
evaluated with Vieta's formulas -- over a fixed fiber the two roots of
the quadratic have an explicit sum, hence

    iota1 (x1, y1) = (x1, (x1 - t d10)/(t d1m1) - y1)
    iota2 (x1, y1) = ((y1 - t d01)/(t dm11) - x1, y1)

with no division by a vanishing coordinate anywhere.  These agree with
the product-of-roots (quotient) form whenever the latter is defined.
The divisor 1/(t d) is a scalar of Q(t), so each involution is a
Q(t)-scalar map on the two parts of z = p + q w: p goes to
(p - t c)/(t d) and q to q/(t d), and no field inverse is taken.

Each point is checked to lie on the curve once, where it is built:
critical_points checks P1..P4 and critical_sets the eight images.  The
involutions and the orbit walk take a point on the curve and check
nothing, so every point downstream is one of these checked objects or
an exact image of one.  The check (on_curve) clears
denominators instead of normalising in Q(t): writing each coordinate as
(P + Q w)/L with P, Q, L in Q[t] and w^2 = Dn/Dd the radicand of its
extension, C(x1, y1) Lx^2 Ly^2 Dd = R + Dd S w with R, S built from
polynomial products and sums alone.  The point is on the curve iff
R = S = 0, exactly, because the radicand is not a square in Q(t), so 1
and w are linearly independent over Q(t).  evaluate_xy stays as the
generic evaluator and as the reference the tests compare with.

Critical points: the zeros of gamma1 on the curve satisfy, for A != 0,
the quadratic obtained by substituting y1 = A x1 / (t d1m1) into C = 0;
for A = 0 they are the two points with y = infinity, whose x1 values
solve dm11 x1^2 + d01 x1 + d11 = 0 (the top coefficient of the kernel in
y).  The zeros of gamma2 are the same computation with x and y swapped,
so one helper serves both, called with the weights mirrored.  The
labels P1/P2 (and P3/P4) are fixed deterministically: higher
t-valuation of x1 first for rational roots, the selected square-root
branch first for conjugate roots.  Any consumer quoting externally
computed entries must allow the swap within each pair.

Divisors: the functions whose divisors the classifier needs factor into
monomials in x1, y1 and one factor P linear in one coordinate with a
constant coefficient, say P = c1 y1 + c0(x1).  Its zero set is the graph
y1 = -c0(x1)/c1, so the order of P at a common zero with the curve is
the intersection number there, which is the multiplicity of the root
x1 of the fiber polynomial C(x1, -c0(x1)/c1) (Fulton, Algebraic Curves,
ch. 3).  With C = C0 + C1 y1 + C2 y1^2 it is c1^2 C0 - c1 c0 C1 +
c0^2 C2 over c1^2, built from XYPoly products and divided by c1^2 once
per coefficient.  That polynomial has degree <= 2: the order is 2 at
the root of a vanishing discriminant, 1 otherwise and on a linear
fiber.  The same holds for x1 itself on the fiber C(0, y1), and for
y1.  No local series is expanded.
"""

from __future__ import annotations

from .errors import (
    DegenerateWeights,
    IdenticallyZeroOnCurve,
    OffCurveInput,
    UnsupportedDivisorInput,
)
from .exactalg import (
    INF,
    Poly,
    QuadExt,
    QuadExtElem,
    RatFunc,
    XYPoly,
    ratfunc_is_square,
    reduce_mod,
)
from .model import Model


class CurvePoint:
    """Affine reciprocal-chart point; coordinates are exact algebraic
    functions of t (elements of Q(t) or one quadratic extension)."""

    __slots__ = ("x1", "y1")
    def __init__(self, x1: QuadExtElem, y1: QuadExtElem):
        self.x1, self.y1 = x1, y1

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return self.x1.equals(other.x1) and self.y1.equals(other.y1)

    def __repr__(self):
        return f"CurvePoint(x1={self.x1!r}, y1={self.y1!r})"


def curve_equation(model: Model) -> XYPoly:
    """C(x1, y1), the kernel K in the reciprocal chart, as an XYPoly
    whose (i, j) key means x1^i y1^j."""
    return laurent_to_reciprocal(model.K)[0]


def evaluate_xy(p: XYPoly, x_val: QuadExtElem, y_val: QuadExtElem) -> QuadExtElem:
    total = QuadExtElem(0)
    xpow = {0: QuadExtElem(1)}
    ypow = {0: QuadExtElem(1)}
    for (i, j), c in sorted(p.terms.items()):
        if i not in xpow:
            xpow[i] = x_val**i
        if j not in ypow:
            ypow[j] = y_val**j
        total = total + QuadExtElem(c) * xpow[i] * ypow[j]
    return total


def _cleared(c: QuadExtElem):
    """(P, Q, L) in Q[t] with c = (P + Q w)/L, read off the stored
    numerators and denominators without any gcd."""
    p, q = c.p, c.q
    if q.is_zero():
        return p.num, q.num, p.den
    return p.num * q.den, q.num * p.den, p.den * q.den


def on_curve(model: Model, pt: CurvePoint) -> bool:
    """Exact test of C(x1, y1) = 0, fraction-free.

    With x1 = (Px + Qx w)/Lx, y1 = (Py + Qy w)/Ly and w^2 = Dn/Dd, the
    product C(x1, y1) Lx^2 Ly^2 Dd equals R + Dd S w for polynomials R,
    S in Q[t] built from the numerators by ring operations alone.  1 and
    w are linearly independent over Q(t) (QuadExt refuses a square
    radicand), so the point is on the curve iff R = S = 0.  Coordinates
    in distinct extensions raise ValueError.
    """
    ctx = pt.x1._join_ctx(pt.y1)
    px, qx, lx = _cleared(pt.x1)
    py, qy, ly = _cleared(pt.y1)
    # common denominator L: x1 = (U + U' w)/L, y1 = (V + V' w)/L, and
    # L^2 C is the homogenised curve equation at (U + U' w, V + V' w, L)
    u, v, el = px * ly, py * lx, lx * ly
    a, b = model.d(1, -1), model.d(-1, 1)
    c, e, f = model.d(1, 0), model.d(0, 1), model.d(1, 1)
    rat = u * v - (
        v * (v.scale(a) + el.scale(c)) + u * (u.scale(b) + el.scale(e)) + (el * el).scale(f)
    ).shift(1)
    if ctx is None:
        return rat.is_zero()
    u2, v2 = qx * ly, qy * lx
    rad_sq = u2 * v2 - (v2 * v2.scale(a) + u2 * u2.scale(b)).shift(1)
    s = u * v2 + u2 * v - (
        v * v2.scale(2 * a) + u * u2.scale(2 * b) + el * (v2.scale(c) + u2.scale(e))
    ).shift(1)
    if not s.is_zero():
        return False
    return (rat * ctx.D.den + rad_sq * ctx.D.num).is_zero()


def _require_on_curve(model: Model, pt: CurvePoint):
    if not on_curve(model, pt):
        raise OffCurveInput(f"point {pt!r} does not satisfy the kernel equation")


def _fiber_sum(z: QuadExtElem, c, d) -> QuadExtElem:
    """(z - t c)/(t d), the sum of the two roots over a fiber, as a
    Q(t)-scalar map on the parts of z = p + q w: p goes to
    (p - t c)/(t d) and q to q/(t d), each normalised once."""
    def over_td(num, den):
        return RatFunc(num, den.shift(1).scale(d))

    p, q = z.p, z.q
    p = over_td(p.num - p.den.shift(1).scale(c), p.den)
    if q.is_zero():
        return QuadExtElem(p)
    return QuadExtElem(p, over_td(q.num, q.den), z.ctx)


def apply_iota1(model: Model, pt: CurvePoint) -> CurvePoint:
    """First involution: keeps x1, swaps the two y1 roots of its fiber."""
    s = _fiber_sum(pt.x1, model.d(1, 0), model.d(1, -1))
    return CurvePoint(pt.x1, s - pt.y1)


def apply_iota2(model: Model, pt: CurvePoint) -> CurvePoint:
    """Second involution: keeps y1, swaps the two x1 roots of its fiber."""
    s = _fiber_sum(pt.y1, model.d(0, 1), model.d(-1, 1))
    return CurvePoint(s - pt.x1, pt.y1)


def apply_sigma(model: Model, pt: CurvePoint) -> CurvePoint:
    return apply_iota2(model, apply_iota1(model, pt))


def apply_sigma_inverse(model: Model, pt: CurvePoint) -> CurvePoint:
    return apply_iota1(model, apply_iota2(model, pt))


# -- critical points ----------------------------------------------------


def _discriminant_factors(model: Model):
    t = Poly.gen()
    A = model.A
    f1 = Poly.const(model.d(1, -1))
    f2 = (t * t).scale(model.d(1, -1) * model.d(-1, 1)) + Poly.const(A * (A - 1))
    f3 = (
        (t * t).scale(
            model.d(0, 1) ** 2 * model.d(1, -1)
            + model.d(1, 0) ** 2 * model.d(-1, 1)
            - 4 * model.d(1, 1) * model.d(1, -1) * model.d(-1, 1)
        )
        + t.scale(model.d(0, 1) * model.d(1, 0))
        + Poly.const(model.d(1, 1))
    )
    return f1, f2, f3


def _solve_quadratic(a2: RatFunc, a1: RatFunc, a0: RatFunc):
    """(r1, r2, m): both roots of a2 z^2 + a1 z + a0 (a2 != 0), as
    QuadExtElem, and the multiplicity m of each, 2 when the discriminant
    vanishes (then r1 = r2) and 1 otherwise."""
    if a2.is_zero():
        raise ValueError("leading coefficient vanished")
    disc = a1 * a1 - 4 * a2 * a0
    if disc.is_zero():
        r = QuadExtElem(-a1 / (2 * a2))
        return r, r, 2
    ok, w0 = ratfunc_is_square(disc)
    if ok:
        r1 = QuadExtElem((-a1 + w0) / (2 * a2))
        r2 = QuadExtElem((-a1 - w0) / (2 * a2))
        return (*_order_rational_pair(r1, r2), 1)
    ctx = QuadExt(disc)
    w = QuadExtElem.sqrt(ctx)
    inv = QuadExtElem(1 / (2 * a2))
    return (-QuadExtElem(a1) + w) * inv, (-QuadExtElem(a1) - w) * inv, 1


def _fiber_roots(a2: RatFunc, a1: RatFunc, a0: RatFunc):
    """The distinct roots of a fiber quadratic with their multiplicities."""
    r1, r2, m = _solve_quadratic(a2, a1, a0)
    return [(r1, 2)] if m == 2 else [(r1, 1), (r2, 1)]


def _order_rational_pair(r1, r2):
    """Deterministic labels: higher valuation first, then coefficients."""
    v1, v2 = r1.valuation(), r2.valuation()
    if v1 != v2:
        return (r1, r2) if (v2 != INF and (v1 == INF or v1 > v2)) else (r2, r1)
    k1 = (r1.p.num.coeffs, r1.p.den.coeffs)
    k2 = (r2.p.num.coeffs, r2.p.den.coeffs)
    return (r1, r2) if k1 >= k2 else (r2, r1)


def _gamma1_zeros(A, d1m1, dm11, d10, d01, d11):
    """The two zeros of gamma1 on the curve as (x1, y1) pairs.  Called
    with the weights mirrored (B, dm11, d1m1, d01, d10, d11) it gives the
    zeros of gamma2 as (y1, x1) pairs."""
    t = Poly.gen()
    tt = t * t
    if A != 0:
        a2 = RatFunc(tt.scale(d1m1 * dm11) + Poly.const(A**2 - A))
        a1 = RatFunc(tt.scale(d01 * d1m1) + t.scale(A * d10))
        a0 = RatFunc(tt.scale(d11 * d1m1))
        r1, r2, _ = _solve_quadratic(a2, a1, a0)
        slope = QuadExtElem(RatFunc(Poly.const(A), t.scale(d1m1)))
        return (r1, slope * r1), (r2, slope * r2)
    r1, r2, _ = _solve_quadratic(RatFunc(dm11), RatFunc(d01), RatFunc(d11))
    zero = QuadExtElem(0)
    return (r1, zero), (r2, zero)


def critical_points(model: Model):
    """(P1, P2, P3, P4): the zeros on the curve of gamma1 and gamma2."""
    f1, f2, f3 = _discriminant_factors(model)
    if f1.is_zero() or f2.is_zero() or f3.is_zero():
        raise DegenerateWeights("discriminant factor vanishes identically")
    d = model.d
    p1, p2 = (CurvePoint(x1, y1) for x1, y1 in
              _gamma1_zeros(model.A, d(1, -1), d(-1, 1), d(1, 0), d(0, 1), d(1, 1)))
    p3, p4 = (CurvePoint(x1, y1) for y1, x1 in
              _gamma1_zeros(model.B, d(-1, 1), d(1, -1), d(0, 1), d(1, 0), d(1, 1)))
    for p in (p1, p2, p3, p4):
        _require_on_curve(model, p)
    return p1, p2, p3, p4


class CriticalSets:
    """The four ordered critical lists; rows of M1/M2 use the minus
    lists, columns the plus lists, in exactly this order."""

    __slots__ = ("L1_minus", "L1_plus", "L2_minus", "L2_plus")
    def __init__(self, L1_minus: list, L1_plus: list, L2_minus: list, L2_plus: list):
        self.L1_minus, self.L1_plus = L1_minus, L1_plus
        self.L2_minus, self.L2_plus = L2_minus, L2_plus


def critical_sets(model: Model) -> CriticalSets:
    """Each distinct point is built once and shared by the lists that
    use it; P1..P4 were checked by critical_points, the eight images
    are checked here."""
    p1, p2, p3, p4 = critical_points(model)
    i1 = lambda q: apply_iota1(model, q)
    i2 = lambda q: apply_iota2(model, q)
    i1p1, i1p2, i2p3, i2p4 = i1(p1), i1(p2), i2(p3), i2(p4)
    sp1, sp2 = i2(i1p1), i2(i1p2)  # sigma = iota2 . iota1
    si3, si4 = i1(i2p3), i1(i2p4)  # sigma^-1 = iota1 . iota2
    for p in (i1p1, i1p2, i2p3, i2p4, sp1, sp2, si3, si4):
        _require_on_curve(model, p)
    return CriticalSets(
        L1_minus=[p1, p2, i2p3, i2p4],
        L1_plus=[i1p1, i1p2, si3, si4],
        L2_minus=[sp1, sp2, i2p3, i2p4],
        L2_plus=[i1p1, i1p2, p3, p4],
    )


# -- zeros and divisors of curve functions ------------------------------


def laurent_to_reciprocal(h: XYPoly):
    """Rewrite h(x, y) in the chart x = 1/x1, y = 1/y1: returns (P, a, b)
    with h = P(x1, y1) / (x1^a y1^b)."""
    flipped = XYPoly({(-i, -j): c for (i, j), c in h.terms.items()})
    return flipped.cleared()


def curve_divisor(model: Model, h: XYPoly):
    """Divisor of h on the curve punctured at Omega, as a list of
    (CurvePoint, order) with nonzero integer orders."""
    P, a, b = laurent_to_reciprocal(h)
    C = curve_equation(model)
    if reduce_mod(P, C).is_zero():
        raise IdenticallyZeroOnCurve(f"{h!r} vanishes on the whole curve")
    entries = _poly_zeros(model, P)
    if a:
        entries += [(pt, -a * m) for pt, m in _coordinate_zeros(model, "x1")]
    if b:
        entries += [(pt, -b * m) for pt, m in _coordinate_zeros(model, "y1")]
    return _merge_divisor(entries)


def curve_zeros(model: Model, h):
    """Zeros with multiplicity on the curve minus Omega of h, or of a
    product of factors when h is a list (divisors add per factor)."""
    factors = h if isinstance(h, (list, tuple)) else [h]
    total = []
    for f in factors:
        total += curve_divisor(model, f)
    merged = _merge_divisor(total)
    return [(pt, m) for pt, m in merged if m > 0]


def _merge_divisor(entries):
    merged = []
    for pt, m in entries:
        for k, (q, n) in enumerate(merged):
            if q == pt:
                merged[k] = (q, n + m)
                break
        else:
            merged.append((pt, m))
    return [(pt, m) for pt, m in merged if m != 0]


def _monomial_content(P: XYPoly):
    if P.is_zero():
        raise ValueError("zero polynomial has no divisor")
    c = min(i for i, _ in P.terms)
    d = min(j for _, j in P.terms)
    return P.shift(-c, -d), c, d


def _poly_zeros(model: Model, P: XYPoly):
    """Zero divisor of a polynomial in the reciprocal coordinates.

    Handles monomials times a factor that is linear in one coordinate
    with a constant leading coefficient; those are the only shapes the
    gamma functions and their decoupling companions produce.
    """
    P, c, d = _monomial_content(P)
    entries = []
    if c:
        entries += [(pt, c * m) for pt, m in _coordinate_zeros(model, "x1")]
    if d:
        entries += [(pt, d * m) for pt, m in _coordinate_zeros(model, "y1")]
    if P.deg_x() == 0 and P.deg_y() == 0:
        return entries
    if P.deg_y() == 1 and P.y_coeff(1).deg_x() == 0:
        entries += _linear_fiber_zeros(model, P, swap=False)
    elif P.deg_x() == 1 and P.x_coeff(1).deg_y() == 0:
        entries += _linear_fiber_zeros(model, P, swap=True)
    else:
        raise UnsupportedDivisorInput(
            "factor is not linear-with-constant-coefficient in either "
            "reciprocal coordinate"
        )
    return entries


def _linear_fiber_zeros(model: Model, P: XYPoly, swap: bool):
    """Common zeros of C and P = c1*y1 + c0(x1) (or roles swapped).

    P vanishes on the graph y1 = -c0(x1)/c1, so the order of P at a
    common zero is the multiplicity of its x1 as a root of the fiber
    polynomial C(x1, -c0(x1)/c1), of degree <= 2 (Fulton, ch. 3).
    """
    C = curve_equation(model)
    if swap:
        P = P.swap_xy()
        C = C.swap_xy()
    c1 = P.y_coeff(1).terms[(0, 0)]
    c0 = P.y_coeff(0)
    fiber = C.y_coeff(0) * (c1 * c1) - C.y_coeff(1) * c0 * c1 + C.y_coeff(2) * c0 * c0
    if fiber.is_zero():
        raise UnsupportedDivisorInput("substituted fiber equation vanished")
    deg = fiber.deg_x()
    if deg > 2:
        raise UnsupportedDivisorInput("fiber equation has degree > 2")
    a0, a1, a2 = (RatFunc(fiber.terms.get((i, 0), Poly.zero()), c1 * c1) for i in range(3))
    if deg == 2:
        roots = _fiber_roots(a2, a1, a0)
    elif deg == 1:
        roots = [(QuadExtElem(-a0 / a1), 1)]
    else:
        roots = []
    out = []
    for r, m in roots:
        c0_r = QuadExtElem(0)
        for (k, _), v in c0.terms.items():
            c0_r = c0_r + QuadExtElem(v) * (r**k if k else QuadExtElem(1))
        val = -(c0_r / QuadExtElem(c1))  # y1 = -c0(x1)/c1
        out.append((CurvePoint(val, r) if swap else CurvePoint(r, val), m))
    return out


def _coordinate_zeros(model: Model, which: str):
    """Zero divisor of the coordinate function x1 (or y1) on the curve:
    the roots of C(0, y1) (or C(x1, 0)), each with its multiplicity."""
    if which == "x1":
        a2, a1, a0 = model.d(1, -1), model.d(1, 0), model.d(1, 1)
    else:
        a2, a1, a0 = model.d(-1, 1), model.d(0, 1), model.d(1, 1)
    roots = _fiber_roots(RatFunc(a2), RatFunc(a1), RatFunc(a0))
    zero = QuadExtElem(0)
    return [(CurvePoint(zero, r) if which == "x1" else CurvePoint(r, zero), m)
            for r, m in roots]
