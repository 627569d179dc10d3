"""Walk enumeration oracle: hand-counted values, a second independent
counter, and the functional-equation residual that pins the contact
convention."""

import itertools
import random
from fractions import Fraction as F

import pytest

from quadwalk.enumerator import (
    SeriesTruncation,
    enumerate_walks,
    functional_equation_residual,
    specialize,
)
from quadwalk.errors import ResidualNonZero
from quadwalk.model import StepSet, Weighting, build_model, make_model
from tests import symbolic
from tests.conftest import SUPPORTS, random_model
from tests.reference import series_from_json


def brute_force_walks(model, order):
    """Independent oracle: explicit iteration over all step sequences.

    Exponential, so only usable for tiny orders; shares no code with
    the layered dynamic program.
    """
    steps = sorted(model.stepset.steps)
    terms = [{(0, 0): F(1)}]
    for n in range(1, order + 1):
        layer = {}
        for seq in itertools.product(steps, repeat=n):
            x = y = 0
            w = F(1)
            ok = True
            for (dx, dy) in seq:
                x += dx
                y += dy
                if x < 0 or y < 0:
                    ok = False
                    break
                w *= model.d(dx, dy)
                if y == 0:
                    w *= model.a
                if x == 0:
                    w *= model.b
            if ok:
                layer[(x, y)] = layer.get((x, y), F(0)) + w
        terms.append(layer)
    return terms


def reference_walks(model, order):
    """Reference dynamic program: the same layers as enumerate_walks,
    with one Fraction product and sum per walk extension."""
    a, b = model.a, model.b
    steps = [(s, model.d(*s)) for s in sorted(model.stepset.steps)]
    layer = {(0, 0): F(1)}
    terms = [dict(layer)]
    for _ in range(order):
        new = {}
        for (i, j), wt in layer.items():
            for (di, dj), dv in steps:
                ni, nj = i + di, j + dj
                if ni < 0 or nj < 0:
                    continue
                w = wt * dv
                if nj == 0:
                    w *= a
                if ni == 0:
                    w *= b
                key = (ni, nj)
                prev = new.get(key)
                new[key] = w if prev is None else prev + w
        layer = new
        terms.append(dict(layer))
    return SeriesTruncation(order=order, terms=terms)


def _height_model(tag, locus, rng, height=300):
    """Step and boundary weights p/q with 1 <= p, q <= height on a locus:
    a = 1, b = 1, a + b = ab, a = b = 2, b = 2 or generic."""
    def draw():
        return F(rng.randint(1, height), rng.randint(1, height))

    d = {s: draw() for s in sorted(StepSet(tag).steps)}
    a, b = draw(), draw()
    if locus == "a=1":
        a = F(1)
    elif locus == "b=1":
        b = F(1)
    elif locus == "a+b=ab":
        a = 1 + draw()
        b = a / (a - 1)
    elif locus == "a=b=2":
        a = b = F(2)
    elif locus == "b=2":
        b = F(2)
    return build_model(StepSet(tag), Weighting(d=d, a=a, b=b))


LOCI = ("a=1", "b=1", "a+b=ab", "a=b=2", "b=2", "generic")


@pytest.mark.parametrize("tag", SUPPORTS)
def test_matches_reference_dp(tag):
    # the scaled-integer layers give byte-identical output at order 30
    rng = random.Random(f"reference-dp:{tag}")
    for locus in LOCI:
        m = _height_model(tag, locus, rng)
        # compared outside the assert: pytest's diff of two such strings
        # (about a megabyte each) would take minutes on a failure
        identical = enumerate_walks(m, 30).to_json() == reference_walks(m, 30).to_json()
        assert identical, (tag, locus)


def test_hand_counted_s3():
    m = make_model("S3")
    s = enumerate_walks(m, 2)
    assert s[0] == {(0, 0): 1}
    assert s[1] == {(1, 1): 1}  # only (1,1) is legal from the origin
    assert s[2] == {(2, 2): 1, (2, 0): 1, (0, 2): 1}


def test_hand_counted_s3_weighted_contacts():
    m = make_model("S3", a=2, b=3)
    s = enumerate_walks(m, 2)
    # (1,1)(1,-1) lands on the x-axis (weight a); (1,1)(-1,1) on the y-axis
    assert s[2] == {(2, 2): 1, (2, 0): 2, (0, 2): 3}


def test_specialization_examples(s1_rational):
    s = enumerate_walks(s1_rational, 2)
    assert specialize(s, "y=0")[2] == {1: F(9, 2)}
    m = make_model("S1", a=1, b=1)
    s = enumerate_walks(m, 1)
    assert specialize(s, "x=0")[1] == {1: 1}
    assert specialize(s, "x=1,y=1")[0] == 1


def test_matches_brute_force(rng):
    for tag in ("S1", "S3", "S5"):
        m = random_model(tag, rng)
        dp = enumerate_walks(m, 4)
        explicit = brute_force_walks(m, 4)
        for n in range(5):
            assert dp[n] == explicit[n], (tag, n)


def test_plain_counting_at_unit_weights(rng):
    # with a = b = 1 and d = 1 the coefficients are plain walk counts
    for tag in SUPPORTS:
        m = make_model(tag)
        s = enumerate_walks(m, 6)
        for layer in s.terms:
            for c in layer.values():
                assert c.denominator == 1 and c >= 0


def test_coefficients_nonnegative(rng):
    for tag in SUPPORTS:
        m = random_model(tag, rng)
        s = enumerate_walks(m, 6)
        assert all(c >= 0 for layer in s.terms for c in layer.values())


def test_monotone_in_step_weights():
    base = make_model("S5", a=2, b=2)
    bigger = make_model("S5", a=2, b=2, d11=2)
    s0 = enumerate_walks(base, 5)
    s1 = enumerate_walks(bigger, 5)
    for n in range(6):
        for key, c in s0[n].items():
            assert s1[n].get(key, F(0)) >= c


def test_residual_zero_examples():
    half = {name: F(1, 2) for name in ("d1m1", "dm11", "d10", "d01", "d11")}
    for tag, a, b, w in (("S3", 2, 2, {}), ("S1", 1, 1, {}), ("S5", 2, 3, half)):
        m = make_model(tag, a=a, b=b, **w)
        functional_equation_residual(m, enumerate_walks(m, 8))


def test_residual_zero_random_grid(rng):
    for tag in SUPPORTS:
        for _ in range(2):
            m = random_model(tag, rng)
            functional_equation_residual(m, enumerate_walks(m, 6))


def _tampered(series, how):
    terms = [dict(layer) for layer in series.terms]
    if how == "changed":
        key = sorted(terms[17])[len(terms[17]) // 2]
        terms[17][key] += F(1, 7)
    elif how == "changed twice":  # two nonzero monomials in the first row
        keys = sorted(terms[17])
        terms[17][keys[1]] -= F(2, 3)
        terms[17][keys[-2]] += F(1, 5)
    elif how == "dropped":
        del terms[11][sorted(terms[11])[3]]
    else:  # an extra monomial no 12-step walk reaches
        terms[12][(20, 3)] = F(5, 3)
    return SeriesTruncation(order=series.order, terms=terms)


@pytest.mark.parametrize("how", ("changed", "changed twice", "dropped", "extra"))
def test_residual_nonzero_on_tampered_series(how):
    # the error names the first nonzero coefficient of the kernel
    # equation in (n, sorted monomial) order, as sympy computes it
    rng = random.Random(f"tampered:{how}")
    order = 18
    for tag in ("S2", "S5"):
        m = _height_model(tag, "generic", rng, height=20)
        series = _tampered(enumerate_walks(m, order), how)
        want = symbolic.residual_terms(m, series, order)
        (n, monomial), value = min(want.items())
        with pytest.raises(ResidualNonZero) as exc:
            functional_equation_residual(m, series)
        err = exc.value
        assert (err.n, err.monomial) == (n, monomial), (tag, how)
        assert type(err.value) is F and symbolic.rational(err.value) == value


def test_residual_order_below_series_order():
    # rows above the requested order are not read: a change at t^17
    # passes at order 16 and fails at order 17 exactly where sympy says
    m = _height_model("S4", "generic", random.Random("order-below"), height=20)
    series = _tampered(enumerate_walks(m, 18), "changed")
    assert not any(functional_equation_residual(m, series, order=16))
    (n, monomial), value = min(symbolic.residual_terms(m, series, 17).items())
    assert n == 17
    with pytest.raises(ResidualNonZero) as exc:
        functional_equation_residual(m, series, order=17)
    assert (exc.value.n, exc.value.monomial) == (n, monomial)
    assert symbolic.rational(exc.value.value) == value


def test_series_json_round_trip(s3_unit):
    s = enumerate_walks(s3_unit, 4)
    again = series_from_json(s.to_json())
    assert again.order == s.order and again.terms == s.terms
    assert s.to_json() == again.to_json()


def test_order_thirty_within_budget():
    # exact rationals at N = 30 are supposed to stay cheap
    import time

    start = time.time()
    m = make_model("S5", a=F(5, 2), b=F(3, 2), d1m1=F(1, 2), d11=F(2, 3))
    s = enumerate_walks(m, 30)
    assert time.time() - start < 60
    assert s[30]


def test_s3_parity():
    # S3 steps change i+j by 0 or +2, so i+j stays even
    s = enumerate_walks(make_model("S3"), 7)
    for layer in s.terms:
        for (i, j) in layer:
            assert (i + j) % 2 == 0
