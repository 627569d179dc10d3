"""Foundation layer: polynomials, rational functions, quadratic
extensions, series expansion, square tests."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import Phase, given, settings, strategies as st

from quadwalk.curve import critical_points
from quadwalk.errors import ContractViolation, SurdClassMismatch, ZeroDenominator
from quadwalk.exactalg import (
    INF,
    Poly,
    QuadExt,
    QuadExtElem,
    RatFunc,
    XYPoly,
    expand_ratfunc,
    poly_is_square,
    xpoly_is_square,
)
from quadwalk.model import make_model
from tests import symbolic

T = Poly.gen()


def rf(num, den=None):
    return RatFunc(num if isinstance(num, Poly) else Poly(num),
                   None if den is None else (den if isinstance(den, Poly) else Poly(den)))


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polys(max_degree=4):
    return st.lists(small_fracs, min_size=0, max_size=max_degree + 1).map(Poly)


# -- Poly ---------------------------------------------------------------


def test_poly_basics():
    p = Poly([1, 2, 1])
    assert p.degree == 2
    assert str(p) == "t^2 + 2*t + 1"
    assert Poly.zero().degree is None
    assert (p - p).is_zero()
    assert p * Poly.zero() == Poly.zero()


def test_poly_divmod_exact():
    p = (T + 1) * (T * T - 2) + Poly([F(1, 3)])
    q, r = p.divmod(T + 1)
    assert q == T * T - 2
    assert r == Poly([F(1, 3)])


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys(2))
def test_poly_gcd_divides_both(a, b, g):
    h = (a * g).gcd(b * g)
    if h.is_zero():
        assert (a * g).is_zero() and (b * g).is_zero()
        return
    assert (a * g).divmod(h)[1].is_zero()
    assert (b * g).divmod(h)[1].is_zero()
    # the common factor g divides the gcd
    if not (a * g).is_zero() and not (b * g).is_zero():
        assert h.divmod(g.monic())[1].is_zero()


# -- is_square ----------------------------------------------------------


def test_is_square_examples():
    ok, w = poly_is_square(T * T + 2 * T + 1)
    assert ok and w in (T + 1, -(T + 1))
    # degrees 0 and 2 take the general path: a leading coefficient that
    # is no rational square (-4, 2), or a top-down root whose square
    # misses the constant term (2t for 4t^2 + 1)
    for p in (Poly([1, 0, -4]), Poly([1, 0, 4]), Poly([2])):
        assert poly_is_square(p) == (False, None)
    assert poly_is_square(Poly([F(4, 9)])) == (True, Poly([F(2, 3)]))
    assert poly_is_square(Poly([1, -4, 4])) == (True, Poly([-1, 2]))


@settings(max_examples=60, deadline=None)
@given(polys())
def test_is_square_of_square(p):
    ok, w = poly_is_square(p * p)
    assert ok
    assert w * w == p * p


@settings(max_examples=40, deadline=None)
@given(polys(3))
def test_square_times_irreducible_is_not_square(p):
    irred = T * T + 1  # no rational roots, not a rational square
    ok, _ = poly_is_square(p * p * irred)
    assert ok == p.is_zero()


def test_is_square_xpoly_degree_one():
    # 1/4 - c t^2 - c' t^2 x with c' != 0: degree 1 in x, never a square
    p = XYPoly(
        {(0, 0): Poly([F(1, 4), 0, -2]), (1, 0): -(T * T).scale(3)}
    )
    assert xpoly_is_square(p) is False


# -- RatFunc ------------------------------------------------------------


def test_ratfunc_normalize_examples():
    f = RatFunc(T * T + T, T)
    assert f.num == T + 1 and f.den == Poly([1])
    z = RatFunc(Poly.zero(), Poly([1, 1]))
    assert z.num.is_zero() and z.den == Poly([1])
    g = RatFunc(T.scale(2), Poly([4]))
    assert g.num == T.scale(F(1, 2)) and g.den == Poly([1])


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(T, Poly.zero())


def test_t_valuation_examples():
    assert rf([0, 0, 1, 1]).valuation() == 2
    assert RatFunc(0).valuation() == INF
    # x1 coordinate of the S1 critical point: valuation 2
    num = -(T * T)
    den = (T * T) + Poly.const(F(-4, 25))  # d's = 1, A = 4/5: A^2 - A = -4/25
    assert RatFunc(num, den).valuation() == 2


@settings(max_examples=60, deadline=None)
@given(polys(3), polys(3), polys(2), polys(2))
def test_valuation_is_additive(an, ad, bn, bd):
    if an.is_zero() or bn.is_zero() or ad.is_zero() or bd.is_zero():
        return
    f, g = RatFunc(an, ad), RatFunc(bn, bd)
    assert (f * g).valuation() == f.valuation() + g.valuation()
    s = f + g
    vf, vg = f.valuation(), g.valuation()
    if vf != vg:
        assert s.valuation() == min(vf, vg)
    else:
        assert s.is_zero() or s.valuation() >= vf


# -- series expansion and quadratic extensions ----------------------------


def test_puiseux_binomial():
    # the selected root of 1 + t is 1 + t/2 - t^2/8 + ...
    w = QuadExtElem.sqrt(QuadExt(RatFunc(Poly([1, 1]))))
    assert w.ctx.half_val == 0 and w.ctx.c == 1
    assert symbolic.series_terms(symbolic.elem(w), 3) == {
        0: 1, 1: sympy.Rational(1, 2), 2: sympy.Rational(-1, 8)}
    assert (w - QuadExtElem(RatFunc(Poly([1, F(1, 2)])))).valuation() == 2


def test_puiseux_geometric():
    assert expand_ratfunc(RatFunc(T, Poly([1, -1])), 3) == [0, 1, 1, 1]
    with pytest.raises(ValueError):
        expand_ratfunc(RatFunc(Poly.const(1), T), 3)


def test_puiseux_sqrt_against_square_oracle():
    # sqrt(t^2 (1 - 4 t^2)) with leading term +t: sympy's principal root
    # expands as t - 2 t^3 - 2 t^5 - ...
    D = RatFunc(Poly([0, 0, 1, 0, -4]))
    w = QuadExtElem.sqrt(QuadExt(D))
    assert w.ctx.half_val == 1 and w.ctx.c == 1
    terms = symbolic.series_terms(symbolic.elem(w), 6)
    assert terms == {1: 1, 3: -2, 5: -2}
    assert w.valuation() == 1 and (w - QuadExtElem(RatFunc(T))).valuation() == 3


@settings(max_examples=25, deadline=None)
@given(polys(2), polys(2))
def test_puiseux_respects_products(pn, qn):
    # the map p + q*w -> p + q*sqrt(1 + t) is a ring homomorphism
    ctx = QuadExt(RatFunc(Poly([1, 1])))
    u = QuadExtElem(RatFunc(pn), RatFunc(1), ctx)
    v = QuadExtElem(RatFunc(qn, Poly([1, -1])), RatFunc(2), ctx)
    img = symbolic.elem
    for got, want in ((u * v, img(u) * img(v)), (u / v, img(u) / img(v))):
        assert sympy.cancel(sympy.radsimp(img(got) - want)) == 0


@settings(max_examples=30, deadline=None)
@given(polys(2), polys(2), polys(2), polys(2))
def test_quadext_valuation_multiplicative(p1, q1, p2, q2):
    ctx = QuadExt(RatFunc(Poly([1, 0, 0, 2])))  # sqrt(1 + 2t^3)
    u = QuadExtElem(RatFunc(p1), RatFunc(q1), ctx)
    v = QuadExtElem(RatFunc(p2), RatFunc(q2), ctx)
    if u.is_zero() or v.is_zero():
        return
    assert (u * v).valuation() == u.valuation() + v.valuation()
    s = u + v
    if not s.is_zero():
        assert s.valuation() >= min(u.valuation(), v.valuation())


def test_quadext_valuation_with_cancellation():
    # p + q*w with matching leading terms: valuation jumps to the norm
    D = RatFunc(Poly([1, 1]))  # sqrt(1+t) = 1 + t/2 - ...
    ctx = QuadExt(D)
    w = QuadExtElem.sqrt(ctx)
    u = QuadExtElem(RatFunc(-1)) + w  # = t/2 - t^2/8 + ...
    assert u.valuation() == 1
    # leading term t/2: subtracting it leaves -t^2/8 + ...
    assert (u - QuadExtElem(RatFunc(T.scale(F(1, 2))))).valuation() == 2


def _sympy_valuation_check(e):
    """valuation() is the exponent of the first nonzero term of sympy's
    series of p + q*sqrt(D); without cancellation the leading
    coefficient is the one the selected branch predicts."""
    v = e.valuation()
    terms = symbolic.series_terms(symbolic.elem(e), math.floor(v) + 2)
    assert min(terms) == v, (e, terms)
    lead = sympy.Integer(0)
    if not e.p.is_zero() and e.p.valuation() == v:
        lead += symbolic.rational(e.p.low_coeff())
    if not e.q.is_zero() and e.q.valuation() + e.ctx.half_val == v:
        lead += symbolic.rational(e.q.low_coeff()) * symbolic.surd(e.ctx.c)
    if lead != 0:
        assert sympy.simplify(terms[v] - lead) == 0, (e, terms)


def test_valuation_matches_sympy_series():
    # critical coordinates, unramified (S3) and ramified (S5; its t^(3/2)
    # branch term is pinned in test_ramified_discriminant_coordinates)
    coords = []
    for m in (make_model("S3", a=F(3, 2), b=F(5, 2)),
              make_model("S5", a=F(1, 2), b=3, d10=4, d11=2)):
        coords += [c for p in critical_points(m) for c in (p.x1, p.y1)]
    w = QuadExtElem.sqrt(QuadExt(RatFunc(Poly([1, 1]))))
    cancelling = QuadExtElem(RatFunc(-1)) + w  # -1 + sqrt(1 + t)
    # leading coefficient the square of a 20-digit prime: -p + sqrt(p^2 (1 + t))
    p = 10**19 + 51
    wp = QuadExtElem.sqrt(QuadExt(RatFunc(Poly([p * p, p * p]))))
    tall = QuadExtElem(RatFunc(-p)) + wp
    for e in coords + [cancelling, tall]:
        _sympy_valuation_check(e)
    assert cancelling.valuation() == 1 and tall.valuation() == 1


# no shrink phase: shrinking through sympy series made a failure cost
# minutes and hundreds of MB; the failing example is reported unshrunk
@settings(max_examples=20, deadline=None,
          phases=tuple(p for p in Phase if p is not Phase.shrink))
@given(polys(2), polys(2), polys(2), st.booleans())
def test_valuation_matches_sympy_series_random(qn, rn, dn, deep):
    # p = -q + t r makes the leading terms of p and q*sqrt(1 + t) cancel;
    # with r = -q/2 + t r' the next terms cancel as well
    ctx = QuadExt(RatFunc(Poly([1, 1])))
    q = qn if not qn.is_zero() else Poly([1])
    r = q.scale(F(-1, 2)) + rn.shift(1) if deep else rn
    den = Poly([1]) + dn.shift(1)
    e = QuadExtElem(RatFunc(-q + r.shift(1), den), RatFunc(q, den), ctx)
    _sympy_valuation_check(e)


def test_quadext_equality_across_radicands():
    # sqrt(4(1+t)) over one context equals 2*sqrt(1+t) over another, and
    # sqrt(-4(1+t)) = 2i sqrt(1+t) equals 2*sqrt(-(1+t))
    for sign in (1, -1):
        w1 = QuadExtElem.sqrt(QuadExt(RatFunc(Poly([4 * sign, 4 * sign]))))
        w2 = QuadExtElem.sqrt(QuadExt(RatFunc(Poly([sign, sign]))))
        assert w1.equals(QuadExtElem(RatFunc(0), RatFunc(2), w2.ctx))
        assert not w1.equals(QuadExtElem(RatFunc(0), RatFunc(-2), w2.ctx))
        assert not w1.equals(w2)


def test_surd_class_mismatch_is_contract_violation():
    # sqrt(4(1+t)) = 2 sqrt(1+t); a context of 1 + t that claims the
    # leading coefficient 2 would lead its root with sqrt(2), which no
    # square root of 1 + t does: a broken contract, not an AssertionError
    w1 = QuadExtElem.sqrt(QuadExt(RatFunc(Poly([4, 4]))))
    ctx = QuadExt(RatFunc(Poly([1, 1])))
    ctx.c = F(2)
    with pytest.raises(SurdClassMismatch) as exc:
        w1.equals(QuadExtElem(RatFunc(0), RatFunc(2), ctx))
    assert isinstance(exc.value, ContractViolation)


def test_root_selector_consistency():
    # a square radicand has no extension: its roots are rational
    with pytest.raises(ValueError):
        QuadExt(RatFunc(Poly([0, 0, 9])))
    # the selected branch leads with the principal square root of the
    # radicand's leading coefficient c
    sqrt2, i = sympy.sqrt(2), sympy.I
    for lc, branch in ((2, sqrt2), (-2, i * sqrt2), (F(-9, 2), sympy.Rational(3, 2) * i * sqrt2)):
        ctx = QuadExt(RatFunc(Poly([0, 0, lc])))
        assert ctx.half_val == 1 and ctx.c == lc and symbolic.surd(ctx.c) == branch
        w = QuadExtElem.sqrt(ctx)
        assert symbolic.series_terms(symbolic.elem(w), 2) == {1: branch}
        assert not w.q.is_zero() and w != -w


# -- fast paths with a rational operand ----------------------------------
#
# Each expected value is built by the RatFunc constructor from Poly
# products, which normalises from scratch, and compared part by part.


def _assert_parts(e, p, q, ctx):
    assert (e.p.num, e.p.den) == (p.num, p.den)
    assert (e.q.num, e.q.den) == (q.num, q.den)
    assert e.ctx is ctx


FAST_CTX = QuadExt(RatFunc(Poly([1, 1])))
FAST_ELEMS = [
    QuadExtElem(rf([1, 2], [0, 3]), rf([F(1, 2), 0, 1], [1, 1]), FAST_CTX),
    QuadExtElem(rf([0, 0, -3], [2, 1]), rf([0, 1], [5]), FAST_CTX),
    QuadExtElem(rf([0]), rf([7], [0, 1, 1]), FAST_CTX),
]
FAST_RATS = [rf([1, 1], [0, 2]), rf([0, 0, F(-2, 3)]), rf([3], [1, 1]), rf([5])]


@pytest.mark.parametrize("e", FAST_ELEMS)
@pytest.mark.parametrize("r", FAST_RATS)
def test_rational_times_radical_both_orders(e, r):
    expect_p = RatFunc(e.p.num * r.num, e.p.den * r.den)
    expect_q = RatFunc(e.q.num * r.num, e.q.den * r.den)
    for got in (e * QuadExtElem(r), QuadExtElem(r) * e, e * r, r * e):
        _assert_parts(got, expect_p, expect_q, FAST_CTX)
        got_sym, e_sym = symbolic.elem(got), symbolic.elem(e)
        assert sympy.cancel(sympy.radsimp(got_sym - e_sym * symbolic.ratfunc(r))) == 0
    zero = e * QuadExtElem(RatFunc(0))
    assert zero.is_zero() and zero.ctx is None and zero.p.den == Poly.const(1)


@pytest.mark.parametrize("r", FAST_RATS)
def test_inverse_of_rational_element(r):
    inv = QuadExtElem(r).inverse()
    _assert_parts(inv, RatFunc(r.den, r.num), RatFunc(0), None)
    assert (QuadExtElem(r) * inv).equals(QuadExtElem(RatFunc(1)))
    with pytest.raises(ZeroDivisionError):
        QuadExtElem(RatFunc(0)).inverse()


@pytest.mark.parametrize("e", FAST_ELEMS)
@pytest.mark.parametrize("r", FAST_RATS)
def test_add_zero_radical_part(e, r):
    expect_p = RatFunc(e.p.num * r.den + r.num * e.p.den, e.p.den * r.den)
    for got in (e + QuadExtElem(r), QuadExtElem(r) + e, e + r, e - (-r)):
        _assert_parts(got, expect_p, e.q, FAST_CTX)
    # radical parts that cancel leave a rational element
    _assert_parts(e + (r - e), r, RatFunc(0), None)


@pytest.mark.parametrize("f", FAST_RATS + [rf([0])])
def test_ratfunc_zero_operands(f):
    zero = RatFunc(0)
    for got in (f + zero, zero + f, f - zero):
        assert (got.num, got.den) == (f.num, f.den)
    for got in (f * zero, zero * f):
        assert got.is_zero() and got.den == Poly.const(1)


@pytest.mark.parametrize("f", FAST_RATS + [rf([0]), rf([0, 0, 4], [6, 0, 2])])
def test_ratfunc_negation_normal_form(f):
    g = -f
    assert g.den.lc() == 1
    assert g.num.gcd(g.den).degree in (None, 0)
    ref = RatFunc(-f.num, f.den)
    assert (g.num, g.den) == (ref.num, ref.den)
    assert g == ref and hash(g) == hash(ref)
