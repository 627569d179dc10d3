import random
from fractions import Fraction

import pytest

from quadwalk.model import StepSet, Weighting, build_model, make_model

SUPPORTS = ("S1", "S2", "S3", "S4", "S5")

WEIGHT_POOL = [
    Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
    Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
]


def draw_weights(stepset, rng):
    """One WEIGHT_POOL draw per step, in sorted step order, so that a seed
    pins the weights whatever order the support's frozenset iterates in."""
    return {s: rng.choice(WEIGHT_POOL) for s in sorted(stepset.steps)}


def random_model(tag, rng, a=None, b=None):
    ss = StepSet(tag)
    d = draw_weights(ss, rng)
    a = rng.choice(WEIGHT_POOL) if a is None else Fraction(a)
    b = rng.choice(WEIGHT_POOL) if b is None else Fraction(b)
    return build_model(ss, Weighting(d=d, a=a, b=b))


def ab_from_AB(A, B):
    return 1 / (1 - Fraction(A)), 1 / (1 - Fraction(B))


@pytest.fixture
def rng():
    return random.Random(20240831)


@pytest.fixture
def s3_unit():
    return make_model("S3", a=2, b=2)


@pytest.fixture
def s1_rational():
    return make_model("S1", a=3, b=Fraction(3, 2))
