"""Kernel curve: involutions, critical points against published closed
forms, divisors of the gamma functions."""

from fractions import Fraction as F

import pytest
import sympy

from quadwalk.classifier import _u_lambda
from quadwalk.curve import (
    CurvePoint,
    _poly_zeros,
    _require_on_curve,
    _solve_quadratic,
    apply_iota1,
    apply_iota2,
    apply_sigma,
    apply_sigma_inverse,
    critical_points,
    critical_sets,
    curve_divisor,
    curve_zeros,
    curve_equation,
    evaluate_xy,
    laurent_to_reciprocal,
    on_curve,
)
from quadwalk.errors import OffCurveInput
from quadwalk.exactalg import (
    INF,
    Poly,
    QuadExt,
    QuadExtElem,
    RatFunc,
    XYPoly,
)
from quadwalk.model import make_model
from tests import symbolic
from tests.conftest import SUPPORTS, random_model
from tests.reference import iota1_quotient_form, iota_by_field_division, reference_divisor

T = Poly.gen()


def test_curve_point_is_unhashable():
    one = QuadExtElem(RatFunc(1))
    assert CurvePoint(one, one) == CurvePoint(x1=one, y1=one)
    with pytest.raises(TypeError):
        hash(CurvePoint(one, one))


def test_critical_point_closed_form_s1():
    # generic A: x1(P2) = -d01 d1m1 t^2 / (d1m1 dm11 t^2 + A^2 - A),
    # y1(P2) = -A d01 t / (same), from the worked S1 example
    m = make_model("S1", a=5, b=2)
    _, p2, _, _ = critical_points(m)
    G = RatFunc((T * T) + Poly.const(F(-4, 25)))
    assert p2.x1.equals(QuadExtElem(RatFunc(-(T * T)) / G))
    assert p2.y1.equals(QuadExtElem(RatFunc(T.scale(F(-4, 5))) / G))


def test_critical_points_satisfy_defining_equations():
    for tag, a, b in (("S3", 2, 2), ("S5", 3, F(3, 2)), ("S2", F(4, 3), 5)):
        m = make_model(tag, a=a, b=b)
        p1, p2, p3, p4 = critical_points(m)
        g1 = XYPoly({(1, 0): Poly.const(m.A), (0, 1): -T.scale(m.d(1, -1))})
        g2 = XYPoly({(0, 1): Poly.const(m.B), (1, 0): -T.scale(m.d(-1, 1))})
        for p in (p1, p2):
            assert on_curve(m, p)
            assert evaluate_xy(g1, p.x1, p.y1).is_zero()
        for p in (p3, p4):
            assert on_curve(m, p)
            assert evaluate_xy(g2, p.x1, p.y1).is_zero()


def test_critical_points_a_zero():
    # A = 0: the zeros of gamma1 sit at y = infinity; v(P2) = (0, oo)
    m = make_model("S1", a=1, b=2)
    p1, p2, _, _ = critical_points(m)
    assert p2.x1.valuation() == 0 and p2.y1.valuation() == INF
    assert p1.x1.is_zero() and p1.y1.is_zero()  # the (oo, oo) point


def test_iota_paper_value():
    m = make_model("S1", a=5, b=2)
    _, p2, _, _ = critical_points(m)
    i1p2 = apply_iota1(m, p2)
    G = RatFunc((T * T) + Poly.const(F(-4, 25)))
    assert i1p2.y1.equals(QuadExtElem(RatFunc(T.scale(F(4, 5) - 1)) / G))
    assert i1p2.x1.equals(p2.x1)  # iota1 preserves x


def test_involutions_and_quotient_form(rng):
    for tag in SUPPORTS:
        m = random_model(tag, rng)
        pts = critical_points(m)
        for p in pts:
            q = apply_iota1(m, p)
            assert on_curve(m, q)
            assert apply_iota1(m, q) == p
            r = apply_iota2(m, p)
            assert on_curve(m, r)
            assert apply_iota2(m, r) == p
            assert r.y1.equals(p.y1)
            assert apply_sigma_inverse(m, apply_sigma(m, p)) == p
            if not p.y1.is_zero():
                assert iota1_quotient_form(m, p).equals(q.y1)


def test_orbit_stays_on_curve(s3_unit):
    p = critical_points(s3_unit)[0]
    cur = p
    for _ in range(10):
        cur = apply_sigma(s3_unit, cur)
        assert on_curve(s3_unit, cur)
        assert apply_iota1(s3_unit, cur).x1.equals(cur.x1)


def _on_curve_reference(m, pt):
    return evaluate_xy(curve_equation(m), pt.x1, pt.y1).is_zero()


def _mixed_points(m):
    """Curve points with one rational and one irrational coordinate: the
    fibers over x1 = 1 and y1 = 1.  Their discriminants 1 - 2ct + ... and
    1 - 2et + ... are non-squares, with t-discriminants 16 a (b + e + f)
    and 16 b (a + c + f) nonzero because a = d1m1 and b = dm11 are."""
    t = RatFunc(Poly.gen())
    one = QuadExtElem(RatFunc(1))
    ys = _solve_quadratic(-t * m.d(1, -1), 1 - t * m.d(1, 0),
                          -t * (m.d(-1, 1) + m.d(0, 1) + m.d(1, 1)))[:2]
    xs = _solve_quadratic(-t * m.d(-1, 1), 1 - t * m.d(0, 1),
                          -t * (m.d(1, -1) + m.d(1, 0) + m.d(1, 1)))[:2]
    return [CurvePoint(one, y) for y in ys] + [CurvePoint(x, one) for x in xs]


def _off_curve_variants(m, pt):
    """Perturbations of a curve point that leave the curve: x1 + t^3,
    2 y1, x1 conjugated, and the swapped point.  Changing one coordinate
    stays on the curve only when the new value is the other root of its
    fiber, i.e. the image under an involution; swapping stays on it only
    when x1 = y1 or (a - b)(x1 + y1) = e - c, because C(y1, x1) - C(x1,
    y1) = -t (x1 - y1)((a - b)(x1 + y1) + c - e)."""
    t3 = QuadExtElem(RatFunc(T * T * T))
    moved = [CurvePoint(pt.x1 + t3, pt.y1), CurvePoint(pt.x1, pt.y1 * 2)]
    if not pt.x1.q.is_zero():
        moved.append(CurvePoint(QuadExtElem(pt.x1.p, -pt.x1.q, pt.x1.ctx), pt.y1))
    fiber = (pt, apply_iota1(m, pt), apply_iota2(m, pt))
    out = [q for q in moved if q not in fiber]
    a, b, c, e = m.d(1, -1), m.d(-1, 1), m.d(1, 0), m.d(0, 1)
    if not (pt.x1 == pt.y1 or ((a - b) * (pt.x1 + pt.y1) + (c - e)).is_zero()):
        out.append(CurvePoint(pt.y1, pt.x1))
    return out


def _over_fractional_radicand(pt):
    """pt written over the radicand D/(1 + t)^2, whose selected root is
    +-w/(1 + t); either sign gives a curve point, as conjugate points lie
    on the curve together."""
    g = RatFunc(Poly([1, 1]))
    ctx = QuadExt((pt.x1.ctx or pt.y1.ctx).D / (g * g))
    return CurvePoint(*(QuadExtElem(c.p, c.q * g, ctx) for c in (pt.x1, pt.y1)))


def test_on_curve_matches_reference(rng):
    # the fraction-free check against evaluate_xy: true on critical
    # sets, sigma orbits, mixed rational/irrational points and points
    # over a radicand with a denominator, false on perturbations of the
    # critical and mixed points
    for tag in SUPPORTS:
        m = random_model(tag, rng)
        s = critical_sets(m)
        pts = s.L1_minus + s.L1_plus + s.L2_minus[:2] + _mixed_points(m)
        assert any(p.x1.q.is_zero() != p.y1.q.is_zero() for p in pts)
        off = [q for p in pts for q in _off_curve_variants(m, p)]
        # w^2 = -(b + e + f)/a gives C(1, w) = (1 - ct) w: only the
        # radical part is nonzero
        radicand = RatFunc(-(m.d(-1, 1) + m.d(0, 1) + m.d(1, 1)) / m.d(1, -1))
        off.append(CurvePoint(QuadExtElem(RatFunc(1)), QuadExtElem.sqrt(QuadExt(radicand))))
        pts += [_over_fractional_radicand(p) for p in pts
                if not (p.x1.q.is_zero() and p.y1.q.is_zero())]
        for base in (s.L1_minus[0], s.L2_plus[2]):  # P1, P3
            fwd = bwd = base
            for _ in range(3):
                fwd = apply_sigma(m, fwd)
                bwd = apply_sigma_inverse(m, bwd)
                pts += [fwd, bwd]
        for p in pts:
            assert on_curve(m, p) and _on_curve_reference(m, p)
        for q in off:
            assert not on_curve(m, q) and not _on_curve_reference(m, q), (tag, q)


def test_off_curve_rejected(s3_unit):
    one = QuadExtElem(RatFunc(1))
    p1 = critical_points(s3_unit)[0]
    mixed = _mixed_points(s3_unit)[0]
    for bad in ([CurvePoint(one, one)] + _off_curve_variants(s3_unit, p1)
                + _off_curve_variants(s3_unit, mixed)):
        assert not on_curve(s3_unit, bad)
        with pytest.raises(OffCurveInput):
            _require_on_curve(s3_unit, bad)


def test_critical_sets_structure():
    m = make_model("S3", a=2, b=2)
    s = critical_sets(m)
    p1, p2, p3, p4 = critical_points(m)
    assert s.L1_minus[0] == p1 and s.L1_minus[1] == p2
    # L1+ = iota1(L1-) elementwise
    for lhs, rhs in zip(s.L1_plus, [apply_iota1(m, q) for q in s.L1_minus]):
        assert lhs == rhs
    # L2+ shares the first two entries with L1+
    assert s.L2_plus[0] == s.L1_plus[0] and s.L2_plus[1] == s.L1_plus[1]
    assert s.L2_plus[2] == p3 and s.L2_plus[3] == p4


def test_gamma_divisors(rng):
    for tag in ("S1", "S3", "S4"):
        m = random_model(tag, rng)
        p1, p2, p3, p4 = critical_points(m)
        z1 = curve_zeros(m, m.gamma1_xy())
        assert sum(mult for _, mult in z1) == 2
        assert all(any(pt == q for q in (p1, p2)) for pt, _ in z1)
        z2 = curve_zeros(m, m.gamma2_xy())
        assert sum(mult for _, mult in z2) == 2
        assert all(any(pt == q for q in (p3, p4)) for pt, _ in z2)


def test_edge_divisor_fact():
    # B = 1/2 on S1: u*gamma2 vanishes exactly at {P4, i2 P4}
    m = make_model("S1", a=5, b=2)
    _, _, p3, p4 = critical_points(m)
    u = XYPoly({(0, 0): Poly.const(F(1, 2)), (1, -1): -T})
    zeros = curve_zeros(m, [u, m.gamma2_xy()])
    expected = [p4, apply_iota2(m, p4)]
    assert len(zeros) == 2 and all(mult == 1 for _, mult in zeros)
    assert all(any(pt == q for q in expected) for pt, _ in zeros)


def test_discriminant_product_nonzero(rng):
    from quadwalk.curve import _discriminant_factors

    for tag in SUPPORTS:
        m = random_model(tag, rng)
        f1, f2, f3 = _discriminant_factors(m)
        prod = (T * T).scale(16) * f1 * f2 * f3
        assert not prod.is_zero()


def test_point_equality_across_extensions():
    # P1/P2 live in one extension, P3/P4 in another; no spurious matches
    m = make_model("S3", a=F(3, 2), b=F(5, 2))
    p1, p2, p3, p4 = critical_points(m)
    assert p1 != p2
    for p in (p1, p2):
        for q in (p3, p4):
            assert p != q
    assert p1 == p1 and p3 == p3
    with pytest.raises(ValueError):
        on_curve(m, CurvePoint(p1.x1, p3.y1))


def test_coordinate_expansion_satisfies_minimal_polynomial():
    # the sympy images p + q*sqrt(D) of the critical coordinates satisfy
    # the kernel and the gamma equations exactly, and the expansion of an
    # irrational coordinate kills its minimal polynomial z^2 - 2p z + N,
    # N = norm()
    m = make_model("S3", a=F(3, 2), b=F(5, 2))
    t = symbolic.t
    d = {k: symbolic.rational(m.d(*k)) for k in ((1, -1), (-1, 1), (1, 0), (0, 1), (1, 1))}
    A, B = symbolic.rational(m.A), symbolic.rational(m.B)
    pts = critical_points(m)
    for k, p in enumerate(pts):
        x1, y1 = symbolic.elem(p.x1), symbolic.elem(p.y1)
        kernel = x1 * y1 - t * (d[1, -1] * y1**2 + d[-1, 1] * x1**2 + d[1, 0] * y1
                                + d[0, 1] * x1 + d[1, 1])
        gamma = A * x1 - t * d[1, -1] * y1 if k < 2 else B * y1 - t * d[-1, 1] * x1
        for expr in (kernel, gamma):
            assert sympy.cancel(sympy.radsimp(expr)) == 0
    coord = pts[0].x1
    assert not coord.q.is_zero()
    x = symbolic.elem(coord)
    trace, norm = symbolic.ratfunc(coord.p * 2), symbolic.ratfunc(coord.norm())
    assert symbolic.series_terms(x * x - trace * x + norm, 6) == {}


def test_ramified_discriminant_coordinates():
    # a < 1 can kill the t^2 coefficient of the discriminant, leaving
    # odd valuation: coordinates ramify (half-integer exponents) with
    # leading surd coefficients, and everything stays exact
    m = make_model("S5", a=F(1, 2), b=3, d10=4, d11=2)
    p1, p2, _, _ = critical_points(m)
    assert p1.x1.ctx is not None and p1.x1.ctx.half_val == F(3, 2)
    assert p1 != p2  # conjugates differ from the t^(3/2) term on
    terms = symbolic.series_terms(symbolic.elem(p1.x1), 3)
    assert set(terms) == {1, sympy.Rational(3, 2), 2, sympy.Rational(5, 2)}
    assert terms[1].is_rational and terms[2].is_rational
    # the t^(3/2) coefficient lies in Q*i*sqrt(2) and is the one the
    # selected branch predicts
    branch = symbolic.rational(p1.x1.q.low_coeff()) * symbolic.surd(p1.x1.ctx.c)
    assert (branch / (sympy.I * sympy.sqrt(2))).is_rational
    assert sympy.simplify(terms[sympy.Rational(3, 2)] - branch) == 0
    conj = symbolic.series_terms(symbolic.elem(p2.x1), 3)
    assert conj == {e: (c if e.is_integer else -c) for e, c in terms.items()}


def test_merged_critical_points():
    # a double zero of gamma1 is allowed: P1 = P2 as points
    m = make_model("S4", a=1, b=3, d01=2)  # A = 0, d01^2 = 4 dm11 d11
    p1, p2, p3, p4 = critical_points(m)
    assert p1 == p2 and p3 != p4
    sets = critical_sets(m)
    assert sets.L1_minus[0] == sets.L1_minus[1]
    # S1 at B = 0: gamma2's zeros merge at the double-infinite point,
    # which is also a zero of gamma1
    m = make_model("S1", a=3, b=1)
    p1, p2, p3, p4 = critical_points(m)
    assert p3 == p4 and p3.x1.is_zero() and p3.y1.is_zero()
    assert p3 == p1


def _same_elem(a, b):
    return a.p == b.p and a.q == b.q and a.ctx is b.ctx


def test_involutions_match_field_division(rng):
    # the Q(t)-scalar maps give the same normal form, part by part and
    # in the same extension, as dividing by t d in the field
    for tag in SUPPORTS:
        m = random_model(tag, rng)
        s = critical_sets(m)
        pts = s.L1_minus + s.L1_plus + s.L2_minus + s.L2_plus
        for base in (s.L1_minus[0], s.L2_plus[2]):  # P1, P3
            fwd = bwd = base
            for _ in range(3):
                fwd = apply_sigma(m, fwd)
                bwd = apply_sigma_inverse(m, bwd)
                pts += [fwd, bwd]
        assert any(not p.x1.q.is_zero() for p in pts) or tag in ("S1", "S2")
        for p in pts:
            for which, iota in ((1, apply_iota1), (2, apply_iota2)):
                got, ref = iota(m, p), iota_by_field_division(m, p, which)
                assert _same_elem(got.x1, ref.x1) and _same_elem(got.y1, ref.y1), (tag, which, p)


X1 = XYPoly.monomial(1, -1, 0)  # 1/x = x1
Y1 = XYPoly.monomial(1, 0, -1)  # 1/y = y1


def _divisor_functions(m):
    """gamma1, gamma2, x gamma1, y gamma2, the coordinates x1 and y1,
    and u_lambda for lambda in {1/2, A, 1/3} where d11 = 0."""
    x, y = XYPoly.monomial(1, 1, 0), XYPoly.monomial(1, 0, 1)
    fs = [m.gamma1_xy(), m.gamma2_xy(), x * m.gamma1_xy(), y * m.gamma2_xy(), X1, Y1]
    if m.d(1, 1) == 0:
        fs += [_u_lambda(m, lam) for lam in (F(1, 2), m.A, F(1, 3))]
    return fs


def _divisor_cases(rng):
    """(model, functions): one pool-weighted model per support and the
    S1 edge case (b = 2) with every function above, and S5 with x1 = 0
    meeting the curve at the split rational roots y1 = -1, -2 of
    y1^2 + 3 y1 + 2 with the coordinates alone."""
    models = [random_model(tag, rng) for tag in SUPPORTS] + [make_model("S1", a=5, b=2)]
    split = make_model("S5", a=2, b=3, d10=3, d11=2)
    return [(m, _divisor_functions(m)) for m in models] + [(split, [X1, Y1])]


def _same_divisor(got, ref):
    return len(got) == len(ref) and all(
        sum(1 for q, n in ref if q == p and n == k) == 1 for p, k in got)


def test_divisor_matches_point_order(rng):
    # orders read off root multiplicities against the implicit-series
    # orders of the reference, zeros and poles alike; the reference takes
    # its candidate points from the same fiber roots, so each point is
    # also checked to lie on the curve
    for m, functions in _divisor_cases(rng):
        memo = []
        for h in functions:
            got = curve_divisor(m, h)
            assert all(on_curve(m, pt) for pt, _ in got), (m, h, got)
            assert _same_divisor(got, reference_divisor(m, h, memo)), (m, h, got)


def test_divisor_special_orders():
    zero = QuadExtElem(RatFunc(0))
    # S1 (d10 = d11 = 0): x1 = 0 meets the curve only at (0, 0), doubly
    m = make_model("S1", a=5, b=2)
    assert curve_divisor(m, X1) == [(CurvePoint(zero, zero), 2)]
    # a split rational discriminant: two simple rational zeros
    m = make_model("S5", a=2, b=3, d10=3, d11=2)
    got = curve_divisor(m, X1)
    assert [k for _, k in got] == [1, 1]
    assert sorted(pt.y1.p.num[0] for pt, _ in got) == [-2, -1]
    assert all(pt.x1.is_zero() for pt, _ in got)


SX, SY = sympy.symbols("x1 y1")


def _sym_xy(P):
    return sum(symbolic.poly(c) * SX**i * SY**j for (i, j), c in P.terms.items())


def test_divisor_orders_are_resultant_multiplicities(rng):
    # every numerator P here is x1, y1 or linear in y1 (or x1) with a
    # constant coefficient: the order at each common zero with C is the
    # multiplicity of its x1 (or y1) as a root of Res(C, P) in that
    # fiber variable, and the orders add up to the resultant's degree
    for m, functions in _divisor_cases(rng):
        C = _sym_xy(curve_equation(m))
        for h in functions:
            P = laurent_to_reciprocal(h)[0]
            by_x1 = P.deg_y() == 1 and P.y_coeff(1).deg_x() == 0
            var, elim = (SX, SY) if by_x1 else (SY, SX)
            res = sympy.Poly(sympy.resultant(C, _sym_xy(P), elim), var)
            zeros = _poly_zeros(m, P)
            assert sum(k for _, k in zeros) == res.degree()
            for pt, k in zeros:
                root = symbolic.elem(pt.x1 if by_x1 else pt.y1)
                expr = res.as_expr()
                for j in range(k + 1):
                    val = sympy.cancel(sympy.radsimp(expr.subs(var, root)))
                    assert (val == 0) == (j < k), (m, h, j, k)
                    expr = sympy.diff(expr, var)
