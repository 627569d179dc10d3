"""Model layer: supports, weights, kernel, gamma functions, JSON."""

import random
from fractions import Fraction as F

import pytest

from quadwalk.errors import InvalidSupport, ModelFormatError, NonPositiveWeight
from quadwalk.exactalg import Poly, XYPoly
from quadwalk.model import (
    ALL_STEPS,
    StepSet,
    Weighting,
    build_model,
    functional_equation_coeffs,
    make_model,
    model_from_json,
    model_to_json,
)
from tests.conftest import SUPPORTS, random_model
from tests.reference import kernel_by_poly_arithmetic

T = Poly.gen()


def test_supports():
    assert StepSet("S1").steps == frozenset({(1, -1), (-1, 1), (0, 1)})
    assert StepSet("S2").steps == StepSet("S1").steps | {(1, 0)}
    assert StepSet("S3").steps == frozenset({(1, -1), (-1, 1), (1, 1)})
    assert StepSet("S4").steps == StepSet("S3").steps | {(0, 1)}
    assert len(StepSet("S5").steps) == 5
    with pytest.raises(InvalidSupport):
        StepSet("S6")


def test_build_model_s3_kernel():
    m = make_model("S3", a=2, b=2)
    assert m.A == F(1, 2) and m.B == F(1, 2) and m.omega == 0
    # hand expansion of xy(1 - t S) for S3
    expected = XYPoly(
        {(1, 1): Poly.const(1), (2, 2): -T, (2, 0): -T, (0, 2): -T}
    )
    assert m.K == expected


def test_build_model_examples():
    m = make_model("S1", a=3, b=F(3, 2))
    assert (m.A, m.B, m.omega) == (F(2, 3), F(1, 3), 0)
    m = make_model("S5", a=1, b=1)
    assert (m.A, m.B, m.omega) == (0, 0, 1)


def test_model_validation():
    ss = StepSet("S3")
    with pytest.raises(InvalidSupport):
        build_model(ss, Weighting(d={(1, -1): F(1), (-1, 1): F(1)}, a=F(1), b=F(1)))
    with pytest.raises(InvalidSupport):
        build_model(
            ss,
            Weighting(
                d={(1, -1): F(1), (-1, 1): F(1), (1, 1): F(1), (1, 0): F(2)},
                a=F(1), b=F(1),
            ),
        )
    with pytest.raises(NonPositiveWeight):
        make_model("S3", d1m1=0)
    with pytest.raises(NonPositiveWeight):
        make_model("S3", a=-2)


def test_gamma_functions():
    # A = 0 collapses gamma1 to -t d1m1 / y
    assert make_model("S1", a=1, b=2).gamma1_xy() == XYPoly({(0, -1): -T})
    # B = 0 collapses gamma2 to -t dm11 / x
    assert make_model("S1", a=2, b=1).gamma2_xy() == XYPoly({(-1, 0): -T})
    g1 = make_model("S3", a=2, b=2).gamma1_xy()
    assert g1 == XYPoly({(-1, 0): Poly.const(F(1, 2)), (0, -1): -T})


def test_functional_equation_coeffs():
    m = make_model("S1", a=1, b=1)
    K, omega_xy, c1, c2 = functional_equation_coeffs(m)
    assert omega_xy == XYPoly.monomial(1, 1, 1)  # omega = 1
    m = make_model("S1", a=3, b=F(3, 2))  # a + b = ab
    _, omega_xy, c1, c2 = functional_equation_coeffs(m)
    assert omega_xy.is_zero()
    # x^2 y gamma1 = A x y - t d1m1 x^2 cleared to a polynomial
    assert c1 == XYPoly({(1, 1): Poly.const(F(2, 3)), (2, 0): -T})


def test_model_invariants_grid(rng):
    for tag in SUPPORTS:
        m = random_model(tag, rng)
        assert m.omega == 1 - m.A - m.B
        assert m.K.terms[(1, 1)] == Poly.const(1)
        assert all(i + j <= 4 for (i, j) in m.K.terms)
        # K(0,0) = 0: no constant or single-variable monomials at all
        assert all(i >= 1 or j >= 1 for (i, j) in m.K.terms)
        assert not m.gamma1_xy().is_zero() and not m.gamma2_xy().is_zero()


def test_json_round_trip():
    text = ('{"stepset": "S1", "weights": {"1,-1": "1/2", "-1,1": "2", '
            '"0,1": "1"}, "a": "3", "b": "3/2"}')
    m = model_from_json(text)
    assert m.d(1, -1) == F(1, 2) and m.a == 3
    again = model_from_json(model_to_json(m))
    assert model_to_json(again) == model_to_json(m)


@pytest.mark.parametrize(
    "bad",
    [
        '{"stepset": "S1", "weights": {}, "a": "1", "b": "1", "extra": 1}',
        '{"stepset": "S9", "weights": {}, "a": "1", "b": "1"}',
        '{"stepset": "S1", "weights": {"9,9": "1"}, "a": "1", "b": "1"}',
        '{"stepset": "S1", "weights": {"1,-1": "1.5"}, "a": "1", "b": "1"}',
        '{"stepset": "S1", "weights": {"1,-1": "1", "-1,1": "1", "0,1": "1"}, "a": "0", "b": "1"}',
        'not json at all',
        '{"stepset": "S1", "weights": {"1,-1": true, "-1,1": "1", "0,1": "1"}, "a": "1", "b": "1"}',
        '{"stepset": ["S1"], "weights": {}, "a": "1", "b": "1"}',
        # past int()'s digit limit, as a string and as a JSON integer
        pytest.param('{"stepset": "S1", "weights": {"1,-1": "1", "-1,1": "1", "0,1": "%s"}, '
                     '"a": "1", "b": "1"}' % ("7" * 4400), id="too-many-digits-string"),
        pytest.param('{"stepset": "S1", "weights": {"1,-1": "1", "-1,1": "1", "0,1": 1}, '
                     '"a": %s, "b": "1"}' % ("7" * 4400), id="too-many-digits-integer"),
    ],
)
def test_json_rejects_malformed(bad):
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(bad)
    assert len(str(exc.value)) < 200
    assert ("too many digits" in str(exc.value)) == (len(bad) > 4300)


def _tall_model(tag, rng):
    # weights and boundary weights of height up to 300
    rat = lambda: F(rng.randint(1, 300), rng.randint(1, 300))
    d = {s: rat() for s in sorted(StepSet(tag).steps)}
    return build_model(StepSet(tag), Weighting(d=d, a=rat(), b=rat()))


@pytest.mark.parametrize("tag", SUPPORTS)
def test_kernel_matches_poly_arithmetic(tag, rng):
    for draw in (random_model, _tall_model):
        for _ in range(25):
            m = draw(tag, rng)
            ref = kernel_by_poly_arithmetic(m)
            assert m.K.terms == ref.terms
            assert list(m.K.terms) == list(ref.terms)


def test_stepset_value_semantics():
    with pytest.raises(InvalidSupport):
        StepSet("S9")
    assert StepSet("S3") == StepSet("S3") and hash(StepSet("S3")) == hash(StepSet("S3"))
    assert StepSet("S3") != StepSet("S4") and StepSet("S3") != "S3"
    assert len({StepSet("S1"), StepSet("S1"), StepSet("S2")}) == 2


def test_random_model_draw_ignores_step_iteration_order(monkeypatch):
    """A seed pins the model random_model draws, even when the support's
    steps iterate in another order (here: reversed)."""
    def draw():
        rng = random.Random(20240831)
        return [random_model(tag, rng) for tag in SUPPORTS for _ in range(2)]

    before = draw()
    steps = StepSet.steps
    monkeypatch.setattr(StepSet, "steps", property(lambda ss: tuple(steps.fget(ss))[::-1]))
    for m, n in zip(before, draw(), strict=True):
        assert (m.weighting.d, m.a, m.b) == (n.weighting.d, n.a, n.b)


def test_weighting_builds_the_same_model():
    d = {(1, -1): F(1, 2), (-1, 1): 2, (0, 1): "1"}
    for w in (Weighting(d=d, a=3, b=F(3, 2)), Weighting(d, 3, F(3, 2))):
        m = build_model(StepSet("S1"), w)
        assert repr(m) == "Model(S1, d[1,-1]=1/2, d[-1,1]=2, d[0,1]=1, a=3, b=3/2)"
        assert model_to_json(m) == (
            '{"a": "3", "b": "3/2", "stepset": "S1", '
            '"weights": {"-1,1": "2", "0,1": "1", "1,-1": "1/2"}}'
        )
        assert list(m.weighting.d) == list(ALL_STEPS)
        assert all(type(v) is F for v in m.weighting.d.values())
        assert m.weighting.d[(1, 0)] == 0 and m.weighting.d[(1, 1)] == 0
        assert (m.A, m.B, m.omega) == (F(2, 3), F(1, 3), 0)
        expected = {(1, 1): 1, (2, 0): T.scale(F(-1, 2)), (0, 2): T.scale(-2), (1, 2): -T}
        assert m.K == XYPoly(expected)
        assert list(m.K.terms) == [(1, 1), (2, 0), (0, 2), (1, 2)]
