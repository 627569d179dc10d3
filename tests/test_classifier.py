"""Decision layer: identity battery, homogeneous table, pole
confinement, the edge case, final verdicts and closed forms."""

import random
import sys
from fractions import Fraction as F

import pytest
import sympy

from quadwalk import classifier, curve, sigmadist
from quadwalk.classifier import (
    Classification,
    ClosedForm,
    HomStatus,
    _sq_form,
    _u_lambda,
    algebraic_closed_forms,
    classify,
    edge_case_checks,
    homogeneous_analysis,
    inhomogeneous_analysis,
    rational_closed_forms,
    verify_closed_form,
    verify_identity_lemmas,
)
from quadwalk.curve import critical_sets
from quadwalk.enumerator import axis_series_to_poly, enumerate_walks, specialize
from quadwalk.errors import OracleMismatch
from quadwalk.exactalg import Poly, RatFunc, TSeries, expand_ratfunc
from quadwalk.model import make_model
from quadwalk.sigmadist import build_matrices
from tests import symbolic
from tests.conftest import SUPPORTS, ab_from_AB, random_model


def test_identity_lemmas_hold(rng):
    # five weightings per support family, residuals must vanish
    for _ in range(5):
        m = random_model("S2", rng)
        names = [r["identity"] for r in verify_identity_lemmas(m)]
        assert any(n.startswith("u-complement") for n in names)
        assert any(n.startswith("u-x-product") for n in names)
        assert any(n.startswith("u-y-product") for n in names)

        m = random_model("S3", rng)
        names = [r["identity"] for r in verify_identity_lemmas(m)]
        assert "x-side-square" in names and "y-side-square" in names

        m = random_model("S1", rng, b=2)  # B = 1/2: edge identities
        names = [r["identity"] for r in verify_identity_lemmas(m)]
        assert "edge-u-square" in names and "edge-y-product" in names


def test_y_side_forms_mirror_x_side():
    # the y side is the x side of the x/y-mirrored model (d(i, j) read as
    # d(j, i)) with x and y swapped; S2 and S5 are their own mirrors, and
    # d10 != d01 here.  classify reaches the y square form only on S3,
    # where d10 = d01 = 0, so this is where its d10 is checked.
    swap = {"d1m1": "dm11", "dm11": "d1m1", "d10": "d01", "d01": "d10", "d11": "d11"}
    for tag, w in (("S2", dict(d1m1=2, dm11=F(1, 3), d10=3, d01=F(5, 2))),
                   ("S5", dict(d1m1=2, dm11=F(1, 3), d10=3, d01=F(5, 2), d11=7))):
        m = make_model(tag, a=3, b=F(5, 4), **w)
        mirror = make_model(tag, a=F(5, 4), b=3, **{swap[k]: v for k, v in w.items()})
        assert _sq_form(m, "y") == _sq_form(mirror, "x").swap_xy()
        assert _u_lambda(m, F(1, 3), "y") == _u_lambda(mirror, F(1, 3)).swap_xy()


def _hom(tag, A, B):
    a, b = ab_from_AB(A, B)
    m = make_model(tag, a=a, b=b)
    M1, _ = build_matrices(m)
    return homogeneous_analysis(m, M1)


def test_homogeneous_table_cells():
    # (0,0): signed (+,+) everywhere
    for tag in ("S1", "S3", "S5"):
        h = _hom(tag, 0, 0)
        assert h.kind == "no-solution" and h.signs == (1, 1)
    # (0,1/2): S1 (-,+); S2 bottom row 4; S3 (+,-); S4, S5 bottom row 4
    assert _hom("S1", 0, F(1, 2)).signs == (-1, 1)
    assert _hom("S2", 0, F(1, 2)).bot_row == 4
    assert _hom("S3", 0, F(1, 2)).signs == (1, -1)
    assert _hom("S4", 0, F(1, 2)).bot_row == 4
    assert _hom("S5", 0, F(1, 2)).bot_row == 4
    # (1/2,0): S1 (-,+); S2 row 2; S3, S4 (-,+); S5 row 2
    assert _hom("S1", F(1, 2), 0).signs == (-1, 1)
    assert _hom("S2", F(1, 2), 0).bot_row == 2
    assert _hom("S3", F(1, 2), 0).signs == (-1, 1)
    assert _hom("S4", F(1, 2), 0).signs == (-1, 1)
    assert _hom("S5", F(1, 2), 0).bot_row == 2
    # (1/2,1/2): S1, S2 (+,+); S3 genuine solution; S4, S5 bottom row 4
    assert _hom("S1", F(1, 2), F(1, 2)).signs == (1, 1)
    assert _hom("S2", F(1, 2), F(1, 2)).signs == (1, 1)
    sol = _hom("S3", F(1, 2), F(1, 2))
    assert sol.kind == "solution" and sol.solution == ("1/gamma1", "-1/gamma2")
    assert _hom("S4", F(1, 2), F(1, 2)).bot_row == 4
    assert _hom("S5", F(1, 2), F(1, 2)).bot_row == 4
    # A+B = 1 away from (1/2,1/2): S1, S2 (+,+); S3..S5 row 2
    assert _hom("S1", F(1, 3), F(2, 3)).signs == (1, 1)
    assert _hom("S2", F(2, 3), F(1, 3)).signs == (1, 1)
    assert _hom("S4", F(1, 3), F(2, 3)).bot_row == 2
    # A generic: row 2; B generic: row 4
    assert _hom("S1", F(4, 5), F(1, 3)).bot_row == 2
    assert _hom("S3", F(4, 5), 0).bot_row == 2
    assert _hom("S1", F(1, 2), F(4, 5)).bot_row == 4
    assert _hom("S4", 0, F(4, 5)).bot_row == 4


def test_homogeneous_certificates_present():
    h = _hom("S3", F(1, 2), F(1, 2))
    certs = {c["certificate"] for c in h.certificates}
    assert "x-side-square-nonsquare" in certs
    assert "y-side-square-nonsquare" in certs
    h = _hom("S1", 0, F(1, 2))
    certs = {c["certificate"] for c in h.certificates}
    assert "edge-u-square-nonsquare" in certs


def test_inhomogeneous_examples():
    for tag, A, B, expected in (
        ("S4", F(1, 4), F(1, 3), "h2-confined"),
        ("S4", 0, 0, "h2-confined"),
        ("S5", F(1, 3), F(1, 4), "h2-confined"),
        ("S2", F(1, 4), F(1, 3), "h1-confined"),
        ("S1", F(4, 5), F(1, 2), "edge-case"),
    ):
        a, b = ab_from_AB(A, B)
        m = make_model(tag, a=a, b=b)
        M1, M2 = build_matrices(m)
        assert inhomogeneous_analysis(m, M1, M2) == expected


def test_edge_case_checks():
    m = make_model("S1", a=5, b=2)
    sets = critical_sets(m)
    _, M2 = build_matrices(m, sets)
    report = edge_case_checks(m, M2, sets)
    assert report["matrix_fact"]["value"] == 1
    with pytest.raises(ValueError):  # A = 1/2 refused, whatever the matrix
        edge_case_checks(make_model("S1", a=2, b=2), M2, sets)


def test_classify_theorem_cases(s1_rational, s3_unit):
    c = classify(s1_rational)
    assert c.verdict == "Rational" and c.closed_forms is not None
    c = classify(s3_unit)
    assert c.verdict == "Algebraic"
    c = classify(make_model("S5", a=1, b=1))
    assert c.verdict == "NotDAlgebraic" and c.closed_forms is None
    rules = [e["rule"] for e in c.trail]
    assert "homogeneous-no-solution" in rules


@pytest.mark.parametrize("tag", SUPPORTS)
def test_each_point_checked_once_where_built(tag, monkeypatch):
    # on_curve runs once per distinct critical-set point, inside
    # critical_points/critical_sets, and every orbit base is one of the
    # checked objects: the involutions and orbit_profile check nothing
    checked, bases, built = [], [], []
    on_curve, orbit_profile = curve.on_curve, sigmadist.orbit_profile
    make_sets = classifier.critical_sets

    def counting_on_curve(model, pt):
        checked.append(pt)
        return on_curve(model, pt)

    def recording_orbit_profile(model, pt):
        bases.append(pt)
        return orbit_profile(model, pt)

    def recording_critical_sets(model):
        built.append(make_sets(model))
        return built[-1]

    # every module that imported on_curve holds its own alias
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("quadwalk") and getattr(mod, "on_curve", None) is on_curve:
            monkeypatch.setattr(mod, "on_curve", counting_on_curve)
    monkeypatch.setattr(sigmadist, "orbit_profile", recording_orbit_profile)
    monkeypatch.setattr(classifier, "critical_sets", recording_critical_sets)
    assert classify(make_model(tag, a=2, b=3)).verdict != "Rational"
    (sets,) = built
    points = {id(p): p for p in sets.L1_minus + sets.L1_plus + sets.L2_minus + sets.L2_plus}
    assert len(points) == 12
    assert len(checked) == 12 and {id(p) for p in checked} == points.keys()
    assert bases and all(id(b) in points for b in bases)


def test_classify_edge_case_trail():
    c = classify(make_model("S1", a=5, b=2))
    assert c.verdict == "NotDAlgebraic"
    assert any(e["rule"] == "edge-case-S1-half" for e in c.trail)


def test_closed_form_rational_series(s1_rational):
    fx, fy = rational_closed_forms(s1_rational)
    ser = fx.expand(4)
    # [t^2] Q(x,0) = 9/2 x for a=3, b=3/2, unit weights
    assert ser.coefficient(2) == Poly([0, F(9, 2)])
    assert ser.coefficient(0) == Poly([1])


def test_closed_form_algebraic_series(s3_unit):
    fx, fy = algebraic_closed_forms(s3_unit)
    ser = fx.expand(4)
    assert ser.coefficient(2) == Poly([0, 0, 2])
    assert ser.coefficient(4) == Poly([0, 0, 8, 0, 6])
    assert ser.coefficient(0) == Poly([1])


def test_verify_closed_form_oracle(s1_rational, s3_unit):
    rep = verify_closed_form(s1_rational, order=16)
    assert rep["checked"] == ["Qx0", "Q0y"]
    rep = verify_closed_form(s3_unit, order=16)
    assert rep["checked"] == ["Qx0", "Q0y"]
    weighted = make_model("S3", a=2, b=2, d11=2, d1m1=F(1, 2), dm11=3)
    verify_closed_form(weighted, order=10)


def test_verify_closed_form_catches_mismatch(s1_rational):
    c = classify(s1_rational)
    fx, fy = c.closed_forms["Qx0"], c.closed_forms["Q0y"]
    broken = Classification(verdict=c.verdict, closed_forms={"Qx0": fy, "Q0y": fx},
                            trail=c.trail)
    with pytest.raises(OracleMismatch) as err:
        verify_closed_form(s1_rational, order=8, classification=broken)
    # Qx0 is checked first, and the walks agree with fx: the check fails
    # at the first t-order where the swapped forms differ
    sx, sy = fx.expand(8), fy.expand(8)
    first = next(n for n in range(9) if sx.coefficient(n) != sy.coefficient(n))
    assert err.value.n == first == 1
    # [t] Q(x, 0) is 0 (no one-step walk ends on the x-axis), while fy
    # gives (3/2) x: both coefficient lists are quoted
    assert sy.coefficient(1) == Poly([0, F(3, 2)]) and sx.coefficient(1).is_zero()
    assert "at t^1 (Qx0: closed form [0, 3/2] vs walks [])" in str(err.value)


def test_rational_family_weight_invariance(rng):
    # any positive step weights keep the a+b=ab family rational
    for _ in range(3):
        for tag in ("S1", "S2"):
            m = random_model(tag, rng, a=4, b=F(4, 3))
            c = classify(m)
            assert c.verdict == "Rational"
            verify_closed_form(m, order=8, classification=c)


def test_closed_form_nonnegative_coefficients(s3_unit, s1_rational):
    for m in (s3_unit, s1_rational):
        c = classify(m)
        for form in c.closed_forms.values():
            ser = form.expand(10)
            for k in range(11):
                assert all(cc >= 0 for cc in ser.coefficient(k).coeffs)


@pytest.mark.parametrize("tag", ["S1", "S2", "S3", "S4", "S5"])
def test_three_quarters_regime(tag):
    # the B = 3/4 (and A = 3/4) generic rows never gap
    for A, B in ((F(3, 4), F(1, 3)), (F(1, 3), F(3, 4))):
        a, b = ab_from_AB(A, B)
        c = classify(make_model(tag, a=a, b=b))
        assert c.verdict == "NotDAlgebraic" and c.trail


def test_merged_points_classify():
    # double zero of gamma1 (P1 = P2) still classifies cleanly
    c = classify(make_model("S4", a=1, b=3, d01=2))
    assert c.verdict == "NotDAlgebraic"
    c = classify(make_model("S1", a=3, b=1))
    assert c.verdict == "NotDAlgebraic"


@pytest.mark.parametrize(
    "m",
    [
        # ramified discriminant: a < 1 kills the t^2 leading coefficient
        make_model("S5", a=F(1, 2), b=3, d10=4, d11=2),
        # boundary-weight-free A = 0 with an algebraic weight coincidence
        make_model("S4", a=1, b=F(5, 2), d01=2),
        make_model("S5", a=1, b=F(3, 2), d01=2),
        make_model("S5", a=F(3, 2), b=1, d10=2),
        # edge family reached with negative A
        make_model("S1", a=F(1, 2), b=2),
    ],
    ids=["ramified", "S4-A0-coincidence", "S5-A0", "S5-B0", "edge-negative-A"],
)
def test_adversarial_weight_regimes(m):
    c = classify(m)
    assert c.verdict == "NotDAlgebraic" and c.trail


def test_solution_pair_cancels_identically(s3_unit):
    # gamma1 * (1/gamma1) + gamma2 * (-1/gamma2) = 0: cleared form says
    # g1 * g2 - g2 * g1 vanishes as a polynomial identity
    g1, g2 = s3_unit.gamma1_xy(), s3_unit.gamma2_xy()
    assert (g1 * g2 - g2 * g1).is_zero()
    sol = _hom("S3", F(1, 2), F(1, 2))
    assert sol.solution == ("1/gamma1", "-1/gamma2")


def test_classification_json_deterministic(s3_unit):
    a = classify(s3_unit).to_json()
    b = classify(s3_unit).to_json()
    assert a == b and '"verdict": "Algebraic"' in a


def _body_series(form, order):
    """The reference expansion: 1 - var^p ratio(t) as a TSeries, whose
    inverse() or inv_sqrt() is the form."""
    p = 1 if form.kind == "geometric" else 2
    coeffs = [Poly.monomial(-c, p) for c in expand_ratfunc(form.ratio, order)]
    body = TSeries.const(1, order) + TSeries(coeffs, order)
    return body.inverse() if form.kind == "geometric" else body.inv_sqrt()


def _solvable_forms(rng):
    """Closed forms of random S1/S2 models on a + b = ab and random S3
    models at a = b = 2."""
    for tag in ("S1", "S2"):
        a = 1 + rng.choice((F(1, 3), F(2, 5), F(3), F(7, 2)))
        yield from rational_closed_forms(random_model(tag, rng, a=a, b=a / (a - 1)))
    yield from algebraic_closed_forms(random_model("S3", rng, a=2, b=2))


def test_expand_matches_series_inverse():
    # the recurrence against the direct series inverse and inverse
    # square root of 1 - var^p ratio
    rng = random.Random(20261018)
    for form in _solvable_forms(rng):
        for order in (0, 1, 12, 30):
            assert form.expand(order) == _body_series(form, order), (form.to_string(), order)


def test_expand_matches_sympy_series():
    rng = random.Random(5)
    for form in _solvable_forms(rng):
        var = sympy.Symbol(form.var)
        ratio = symbolic.ratfunc(form.ratio)
        expr = (1 / (1 - var * ratio) if form.kind == "geometric"
                else 1 / sympy.sqrt(1 - var**2 * ratio))
        want = sympy.expand(sympy.series(expr, symbolic.t, 0, 11).removeO())
        got = form.expand(10)
        for k in range(11):
            have = sum(symbolic.rational(c) * var**i
                       for i, c in enumerate(got.coefficient(k).coeffs))
            assert sympy.expand(want.coeff(symbolic.t, k) - have) == 0, (form.to_string(), k)


@pytest.mark.parametrize("kind", ("geometric", "inverse-sqrt"))
def test_expand_rejects_pole_and_nonzero_constant_term(kind):
    t = Poly.gen()
    for ratio in (RatFunc(Poly.const(1), t), RatFunc(Poly([1, 1]), Poly([1, -1]))):
        with pytest.raises(ValueError):
            ClosedForm(kind, "x", ratio).expand(5)
        with pytest.raises(ValueError):
            _body_series(ClosedForm(kind, "x", ratio), 5)


def test_hom_status_certificates_not_shared():
    a, b = HomStatus(kind="no-solution"), HomStatus(kind="no-solution")
    assert a.certificates == [] and a.certificates is not b.certificates
    a.certificates.append({"certificate": "x", "holds": True})
    assert b.to_jsonable() == {"kind": "no-solution", "certificates": []}
