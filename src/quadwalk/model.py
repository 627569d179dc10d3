"""The five genus-zero weighted models.

A model is a step set S1..S5, positive rational step weights d_v, and
boundary (Boltzmann) weights a, b > 0.  Internally all algebra uses
A = 1 - 1/a and B = 1 - 1/b.  The kernel K(x, y) = xy(1 - t S(x, y)),
with S the weighted step Laurent polynomial, is written term by term:
xy, then -d_v t x^(i+1) y^(j+1) for each step v = (i, j); S is not
stored.  gamma1 = A/x - t d_{1,-1}/y and gamma2 = B/y - t d_{-1,1}/x are
defined once, by gamma1_xy and gamma2_xy; the boundary blocks of the
kernel equation and the classifier's x gamma1 and y gamma2 are their
monomial shifts.  The supports always contain (1,-1) and (-1,1):

    S1 = {(1,-1), (-1,1), (0,1)}
    S2 = S1 + {(1,0)}
    S3 = {(1,-1), (-1,1), (1,1)}
    S4 = S3 + {(0,1)}
    S5 = all five steps
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidSupport, ModelFormatError, NonPositiveWeight
from .exactalg import Poly, TooManyDigits, XYPoly, parse_int, rat_from_string, rat_to_string

ALL_STEPS = ((1, -1), (-1, 1), (1, 0), (0, 1), (1, 1))
_ZERO = Fraction(0)

_SUPPORTS = {
    "S1": frozenset({(1, -1), (-1, 1), (0, 1)}),
    "S2": frozenset({(1, -1), (-1, 1), (0, 1), (1, 0)}),
    "S3": frozenset({(1, -1), (-1, 1), (1, 1)}),
    "S4": frozenset({(1, -1), (-1, 1), (1, 1), (0, 1)}),
    "S5": frozenset(ALL_STEPS),
}


class StepSet:
    __slots__ = ("tag",)
    def __init__(self, tag: str):
        if tag not in _SUPPORTS:
            raise InvalidSupport(f"unknown step set {tag!r}")
        self.tag = tag

    def __eq__(self, other):
        return self.tag == other.tag if isinstance(other, StepSet) else NotImplemented

    def __hash__(self):
        return hash(self.tag)

    @property
    def steps(self) -> frozenset:
        return _SUPPORTS[self.tag]

    def __contains__(self, step):
        return tuple(step) in self.steps

    def __str__(self):
        return self.tag


class Weighting:
    """Step weights (0 exactly on absent steps) and boundary weights."""

    __slots__ = ("d", "a", "b")
    def __init__(self, d: dict, a: Fraction, b: Fraction):
        self.d, self.a, self.b = d, a, b


class Model:
    """A validated weighted model with its derived kernel data."""

    def __init__(self, stepset: StepSet, weighting: Weighting):
        self.stepset = stepset
        self.weighting = weighting
        a, b = weighting.a, weighting.b
        self.a, self.b = a, b
        self.A = 1 - 1 / a
        self.B = 1 - 1 / b
        self.omega = 1 - self.A - self.B
        self.K = _kernel(weighting)

    # step weights by name, 0 when absent (build_model fills all five)
    def d(self, i, j) -> Fraction:
        return self.weighting.d[(i, j)]

    @property
    def tag(self):
        return self.stepset.tag

    def gamma1_xy(self) -> XYPoly:
        """gamma_1 = A/x - t d_{1,-1}/y as a Laurent polynomial."""
        t = Poly.gen()
        return XYPoly({(-1, 0): Poly.const(self.A), (0, -1): -t.scale(self.d(1, -1))})

    def gamma2_xy(self) -> XYPoly:
        """gamma_2 = B/y - t d_{-1,1}/x, the mirror of gamma_1."""
        t = Poly.gen()
        return XYPoly({(0, -1): Poly.const(self.B), (-1, 0): -t.scale(self.d(-1, 1))})

    def __repr__(self):
        ws = ", ".join(
            f"d[{i},{j}]={rat_to_string(self.d(i, j))}"
            for (i, j) in ALL_STEPS
            if (i, j) in self.stepset
        )
        return (
            f"Model({self.tag}, {ws}, a={rat_to_string(self.a)}, "
            f"b={rat_to_string(self.b)})"
        )


def _kernel(w: Weighting) -> XYPoly:
    terms = {(1, 1): 1}
    for (i, j) in ALL_STEPS:
        c = w.d[(i, j)]
        if c:
            terms[(i + 1, j + 1)] = Poly((0, -c))
    return XYPoly(terms)


def build_model(stepset, weighting) -> Model:
    """Validate support and weights, then populate the derived fields."""
    if isinstance(stepset, str):
        stepset = StepSet(stepset)
    d = {tuple(k): Fraction(v) for k, v in weighting.d.items()}
    for step, val in d.items():
        if step not in ALL_STEPS:
            raise InvalidSupport(f"step {step} is not a small genus-zero step")
        if step in stepset.steps:
            if val <= 0:
                raise NonPositiveWeight(f"step {step} needs a positive weight")
        elif val != 0:
            raise InvalidSupport(f"step {step} is absent from {stepset.tag}")
    for step in stepset.steps:
        if step not in d:
            raise InvalidSupport(f"step {step} of {stepset.tag} has no weight")
    a, b = Fraction(weighting.a), Fraction(weighting.b)
    if a <= 0 or b <= 0:
        raise NonPositiveWeight("boundary weights must be positive")
    w = Weighting(d={s: d.get(s, _ZERO) for s in ALL_STEPS}, a=a, b=b)
    return Model(stepset, w)


def make_model(tag, a=1, b=1, **step_weights) -> Model:
    """Convenience builder: unit weights on the support by default.

    Step weights may be overridden per step with keywords d11, d1m1,
    dm11, d10, d01 (m encodes a minus sign).
    """
    names = {"d1m1": (1, -1), "dm11": (-1, 1), "d10": (1, 0), "d01": (0, 1), "d11": (1, 1)}
    ss = StepSet(tag)
    weights = {s: Fraction(1) for s in ss.steps}
    for name, val in step_weights.items():
        step = names[name]
        weights[step] = Fraction(val)
    return build_model(ss, Weighting(d=weights, a=Fraction(a), b=Fraction(b)))


def functional_equation_coeffs(model: Model):
    """The four polynomial coefficient blocks of the kernel equation:

        K(x,y) Q(x,y) = omega*x*y + [x^2 y gamma1] Q(x,0) + [x y^2 gamma2] Q(0,y)

    with all fractions cleared (x^2 y gamma1 = A x y - t d_{1,-1} x^2 and
    symmetrically for gamma2).
    """
    omega_xy = XYPoly.monomial(Poly.const(model.omega), 1, 1)
    return model.K, omega_xy, model.gamma1_xy().shift(2, 1), model.gamma2_xy().shift(1, 2)


# -- JSON wire format --------------------------------------------------

_STEP_KEYS = {f"{i},{j}": (i, j) for (i, j) in ALL_STEPS}


def model_from_json(text: str) -> Model:
    """Parse the model JSON schema.

    {"stepset": "S1".."S5", "weights": {"1,-1": "p/q", ...},
     "a": "p/q", "b": "p/q"} -- rationals are "p/q" strings, integer
    strings or JSON integers (not booleans or floats); unknown keys
    anywhere are rejected.
    """
    try:
        obj = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise ModelFormatError("not valid JSON: nested too deeply") from None
    except TooManyDigits as e:
        raise ModelFormatError(str(e)) from None
    if not isinstance(obj, dict):
        raise ModelFormatError("model document must be a JSON object")
    unknown = set(obj) - {"stepset", "weights", "a", "b"}
    if unknown:
        raise ModelFormatError(f"unknown keys: {sorted(unknown)}")
    for key in ("stepset", "weights", "a", "b"):
        if key not in obj:
            raise ModelFormatError(f"missing key {key!r}")
    if not isinstance(obj["stepset"], str) or obj["stepset"] not in _SUPPORTS:
        raise ModelFormatError(f"unknown stepset {obj['stepset']!r}")
    weights = {}
    if not isinstance(obj["weights"], dict):
        raise ModelFormatError("weights must be an object")
    for key, val in obj["weights"].items():
        if key not in _STEP_KEYS:
            raise ModelFormatError(f"unknown weight key {key!r}")
        weights[_STEP_KEYS[key]] = _parse_rat(val, f"weights[{key}]")
    a = _parse_rat(obj["a"], "a")
    b = _parse_rat(obj["b"], "b")
    try:
        return build_model(obj["stepset"], Weighting(d=weights, a=a, b=b))
    except (InvalidSupport, NonPositiveWeight) as e:
        raise ModelFormatError(str(e)) from None


def _parse_rat(val, where) -> Fraction:
    # bool is an int subclass, so JSON true would otherwise parse as 1
    if isinstance(val, int) and not isinstance(val, bool):
        return Fraction(val)
    if isinstance(val, str):
        try:
            return rat_from_string(val)
        except TooManyDigits as e:
            raise ModelFormatError(f"{where}: {e}") from None
        except (ValueError, ZeroDivisionError):
            pass
    raise ModelFormatError(f"{where}: expected 'p/q', an integer string or an integer, "
                           f"got {val!r}")


def model_to_json(model: Model) -> str:
    doc = {
        "stepset": model.tag,
        "weights": {
            f"{i},{j}": rat_to_string(model.d(i, j))
            for (i, j) in ALL_STEPS
            if (i, j) in model.stepset
        },
        "a": rat_to_string(model.a),
        "b": rat_to_string(model.b),
    }
    return json.dumps(doc, sort_keys=True)
