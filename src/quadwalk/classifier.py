"""Classification of Q(x, y): rational, algebraic, or not D-algebraic.

The verdict is never a bare table lookup: every branch re-derives the
evidence it rests on.

* Homogeneous side: for each weight cell the analysis either exhibits a
  signed multiplicative splitting of gamma1/gamma2 (with every minus
  sign certified by a non-squareness test of the exact polynomial whose
  square root the function is) or points at an all-bottom row of M1,
  cross-checked against the computed matrix.  A genuine solution exists
  only for S3 at A = B = 1/2.

* Inhomogeneous side: pole confinement follows from the sign pattern of
  M1 or M2; the one stubborn family (S1, B = 1/2, A != 1/2) is settled
  by two computational facts: the unique nonnegative M2 entry is
  delta(i2 P4, P4) = 1, and u*gamma2 vanishes exactly at {P4, i2 P4}.

* Solvable cases produce closed forms for Q(x,0) and Q(0,y) that
  verify_closed_form expands as exact t-series and compares coefficient
  by coefficient against the walk enumeration.

Each locus is one predicate that every stage calls: _on_rational_curve
(S1/S2, A + B = 1), _in_algebraic_cell (S3, A = B = 1/2) and
_on_edge_line (S1, B = 1/2); the edge case is the edge line off
A = 1/2.  The y-side square certificate mirrors the x side (d1m1 <->
dm11, d10 <-> d01, x <-> y), so one function serves both sides.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .curve import CriticalSets, critical_sets, curve_zeros
from .enumerator import axis_series_to_poly, enumerate_walks, specialize
from .errors import (
    CoverageGap,
    EvidenceFailed,
    IdentityFailed,
    OracleMismatch,
    TableCellMismatch,
)
from .exactalg import (
    Poly,
    RatFunc,
    TSeries,
    XYPoly,
    expand_ratfunc,
    rat_to_string,
    reduce_mod,
    xpoly_is_square,
)
from .model import Model
from .sigmadist import DistanceMatrix, build_matrices

HALF = Fraction(1, 2)


# -- the loci the verdict turns on, each stated once ----------------------


def _on_rational_curve(model: Model) -> bool:  # a + b = ab
    return model.tag in ("S1", "S2") and model.A + model.B == 1


def _in_algebraic_cell(model: Model) -> bool:  # a = b = 2
    return model.tag == "S3" and model.A == HALF and model.B == HALF


def _on_edge_line(model: Model) -> bool:  # b = 2, where the edge identities hold
    return model.tag == "S1" and model.B == HALF


def _is_edge_case(model: Model) -> bool:
    return _on_edge_line(model) and model.A != HALF


def _u_lambda(model: Model, lam: Fraction, side: str = "x") -> XYPoly:
    """(1 - lam) - t d10 x - t d1m1 x/y; defined for d11 = 0 supports.
    The y side is its mirror, (1 - lam) - t d01 y - t dm11 y/x."""
    t, d = Poly.gen(), model.d
    lin, cross = (d(1, 0), d(1, -1)) if side == "x" else (d(0, 1), d(-1, 1))
    u = XYPoly({(0, 0): Poly.const(1 - lam), (1, 0): -t.scale(lin), (1, -1): -t.scale(cross)})
    return u if side == "x" else u.swap_xy()


def _residual_check(model: Model, name: str, diff: XYPoly) -> dict:
    r = reduce_mod(diff, model.K)
    if not r.is_zero():
        raise IdentityFailed(name, repr(r))
    return {"identity": name, "residual": "0"}


# -- the identity battery ------------------------------------------------


def verify_identity_lemmas(model: Model, lambdas=None) -> list:
    """Verify, as exact congruences modulo the kernel, every splitting
    identity available on this support; returns the report entries."""
    report = []
    if model.d(1, 1) == 0:
        for lam in lambdas if lambdas is not None else (model.A, HALF):
            u = _u_lambda(model, lam)
            rx, ry = _u_products(model, lam)
            xg1, yg2 = model.gamma1_xy().shift(1, 0), model.gamma2_xy().shift(0, 1)
            # antisymmetric complement: u_lam = -(lam - t d01 y - t dm11 y/x)
            for name, diff in (("u-complement", u + _u_lambda(model, 1 - lam, "y")),
                               ("u-x-product", (xg1 + (lam - model.A)) * u - rx),
                               ("u-y-product", -(yg2 + (1 - lam - model.B)) * u - ry)):
                report.append(_residual_check(model, f"{name}(lam={lam})", diff))
    if model.d(1, 0) == 0 and model.d(0, 1) == 0:
        report += [_side_square(model, "x"), _side_square(model, "y")]
    if _on_edge_line(model):
        report += _edge_identities(model)
    return report


def _u_products(model: Model, lam: Fraction) -> tuple:
    """(x gamma1 + lam - A) u_lam and -(y gamma2 + 1 - lam - B) u_lam on
    the curve; both are lam (1 - lam) - t^2 d1m1 dm11 less one term."""
    t = Poly.gen()
    d = model.d
    const = Poly.const(lam * (1 - lam)) - (t * t).scale(d(1, -1) * d(-1, 1))
    x_term = t.scale(lam * d(1, 0)) + (t * t).scale(d(1, -1) * d(0, 1))
    y_term = t.scale((1 - lam) * d(0, 1)) + (t * t).scale(d(-1, 1) * d(1, 0))
    return XYPoly({(0, 0): const, (1, 0): -x_term}), XYPoly({(0, 0): const, (0, 1): -y_term})


def _side_square(model: Model, side: str) -> dict:
    """(x gamma1 + 1/2 - A)^2 is the x-side square form on the curve;
    the y side is its mirror, (y gamma2 + 1/2 - B)^2."""
    if side == "x":
        g = model.gamma1_xy().shift(1, 0) + (HALF - model.A)
    else:
        g = model.gamma2_xy().shift(0, 1) + (HALF - model.B)
    return _residual_check(model, f"{side}-side-square", g * g - _sq_form(model, side))


def _edge_identities(model: Model) -> list:
    """S1 with B = 1/2: with u = u_(1/2), u^2 is the x-side square form
    and -y gamma2 u is the edge mu form on the curve, which is the u-y
    product at lam = 1/2 since d10 = 0."""
    u = _u_lambda(model, HALF)
    yg2 = model.gamma2_xy().shift(0, 1)
    mu = _u_products(model, HALF)[1]
    return [_residual_check(model, "edge-u-square", u * u - _sq_form(model, "x")),
            _residual_check(model, "edge-y-product", -(yg2 * u) - mu)]


def _sq_form(model: Model, side: str) -> XYPoly:
    """1/4 - t^2 d1m1 dm11 - t^2 d1m1 d01 x - t^2 d1m1 d11 x^2: the
    square of x*gamma1 on the curve when A = 1/2 and d10 = 0.  The y
    side is the same form with d1m1 <-> dm11 and d10 <-> d01, in y."""
    t2 = Poly.monomial(1, 2)
    d = model.d
    lead, cross = (d(1, -1), d(0, 1)) if side == "x" else (d(-1, 1), d(1, 0))
    form = XYPoly(
        {
            (0, 0): Poly.const(Fraction(1, 4)) - t2.scale(d(1, -1) * d(-1, 1)),
            (1, 0): -t2.scale(lead * cross),
            (2, 0): -t2.scale(lead * d(1, 1)),
        }
    )
    return form if side == "x" else form.swap_xy()


# -- homogeneous analysis -------------------------------------------------


class HomStatus:
    """Outcome for the homogeneous decoupling equation.

    kind is "solution" (only S3 with A = B = 1/2, pair 1/gamma1 and
    -1/gamma2) or "no-solution" with either a bottom-row witness or a
    signed splitting whose signs are not both minus.
    """

    __slots__ = ("kind", "bot_row", "signs", "solution", "certificates")
    def __init__(self, kind, bot_row=None, signs=None, solution=None, certificates=None):
        self.kind, self.bot_row, self.signs, self.solution = kind, bot_row, signs, solution
        self.certificates = [] if certificates is None else certificates

    def to_jsonable(self):
        out = {"kind": self.kind}
        if self.bot_row is not None:
            out["bot_row"] = self.bot_row
        if self.signs is not None:
            out["signs"] = [("+" if s > 0 else "-") for s in self.signs]
        if self.solution is not None:
            out["solution"] = list(self.solution)
        out["certificates"] = self.certificates
        return out


def _split_gamma1(model: Model):
    """Signed splitting of gamma1 (iota1 parity, iota2 parity), or None.

    Returns (eps11, eps12, certificates); the minus sign is certified by a
    non-squareness check of the explicit polynomial.
    """
    if model.A == 0:
        # gamma1 = -t d1m1 / y is a function of y alone
        return 1, 1, [{"certificate": "gamma1-pure-y", "holds": True}]
    if model.A == HALF and model.d(1, 0) == 0:
        return -1, 1, _square_split(model, "x")
    return None


def _split_gamma2(model: Model):
    if model.B == 0:
        return 1, 1, [{"certificate": "gamma2-pure-x", "holds": True}]
    if model.B == HALF and model.d(0, 1) == 0:
        return 1, -1, _square_split(model, "y")
    if _on_edge_line(model):
        _edge_identities(model)
        if xpoly_is_square(_sq_form(model, "x")):
            raise TableCellMismatch("edge u^2 is a square; sign cannot be -")
        # gamma2 = (1/u) * (-mu/y): first factor iota1-odd, second pure y
        return -1, 1, [
            {"certificate": "edge-u-square-nonsquare", "holds": True},
            {"certificate": "edge-y-product-identity", "holds": True},
        ]
    return None


def _square_split(model: Model, side: str) -> list:
    """The minus sign of the x (or y) side: its square identity holds and
    its square form is not a square in Q(t)[x] (or Q(t)[y])."""
    _side_square(model, side)
    if xpoly_is_square(_sq_form(model, side)):
        raise TableCellMismatch(f"{side}-side square form is a square; sign cannot be -")
    return [{"certificate": f"{side}-side-square-nonsquare", "holds": True}]


def _verified_bot_row(model: Model, M1: DistanceMatrix, row: int) -> HomStatus:
    entries = M1.entries[row - 1]
    if any(e is not None for e in entries):
        raise TableCellMismatch(
            f"expected row {row} of M1 to be all bottom, got {entries}"
        )
    return HomStatus(
        kind="no-solution",
        bot_row=row,
        certificates=[{"certificate": f"M1-row-{row}-all-bot", "holds": True}],
    )


def homogeneous_analysis(model: Model, M1: DistanceMatrix) -> HomStatus:
    """Reproduce the homogeneous-equation table cell for this model,
    with its witness verified (bottom row against M1, signs against
    identity and non-squareness certificates)."""
    A, B = model.A, model.B
    if _on_rational_curve(model):
        certs = verify_identity_lemmas(model, lambdas=(A,))
        return HomStatus(
            kind="no-solution",
            signs=(1, 1),
            certificates=[{"certificate": "u-split-both-even", "holds": True}]
            + certs,
        )
    if A in (0, HALF) and B in (0, HALF):
        s1 = _split_gamma1(model)
        s2 = _split_gamma2(model)
        if s2 is None:
            return _verified_bot_row(model, M1, 4)
        if s1 is None:
            return _verified_bot_row(model, M1, 2)
        signs = (s1[0] * s2[0], s1[1] * s2[1])
        certs = s1[2] + s2[2]
        if signs == (-1, -1):
            return HomStatus(
                kind="solution",
                signs=signs,
                solution=("1/gamma1", "-1/gamma2"),
                certificates=certs,
            )
        return HomStatus(kind="no-solution", signs=signs, certificates=certs)
    # off the split cells A + B = 1 forces A not in {0, 1/2} (B = 1 is
    # impossible), so the rational locus needs no row of its own here
    return _verified_bot_row(model, M1, 2 if A not in (0, HALF) else 4)


# -- inhomogeneous analysis ----------------------------------------------


def inhomogeneous_analysis(model: Model, M1: DistanceMatrix, M2: DistanceMatrix) -> str:
    """Pole confinement verdict: "h1-confined" when every M1 entry is
    strictly negative or bottom, "h2-confined" likewise for M2,
    "edge-case" for the S1, B = 1/2, A != 1/2 family, else
    "inconclusive".

    Often both matrices are confined at once and either argument would
    do; the tie is broken the way the full classification argues each
    support (M1 for S2 and S3, M2 for S1, S4 and S5), so reports line
    up with the expected per-support evidence.  Each condition is still
    checked on the computed matrix, never assumed.
    """
    if _is_edge_case(model):
        return "edge-case"
    for M in (M1, M2) if model.tag in ("S2", "S3") else (M2, M1):
        if M.strictly_negative_or_bot():
            return "h1-confined" if M is M1 else "h2-confined"
    return "inconclusive"


def edge_case_checks(model: Model, M2: DistanceMatrix, sets: CriticalSets) -> dict:
    """The two computational facts behind the S1, B = 1/2, A != 1/2
    verdict: (a) the unique nonnegative entry of M2 is the diagonal
    delta(i2 P4, P4) = 1; (b) u*gamma2 vanishes exactly at P4 and
    i2 P4.  Raises EvidenceFailed if either fails."""
    if not _is_edge_case(model):
        raise ValueError("edge case checks require S1 with B = 1/2, A != 1/2")
    nonneg = M2.nonnegative_entries()
    if len(nonneg) != 1 or nonneg[0][2] != 1 or nonneg[0][:2] not in ((2, 2), (3, 3)):
        raise EvidenceFailed(f"nonnegative M2 entries {nonneg} are not the single "
                             "diagonal +1 in the gamma2 block")
    k = nonneg[0][0]  # 2 or 3: which of P3/P4 carries the pole pair
    expected = [sets.L2_plus[k], sets.L2_minus[k]]
    zeros = curve_zeros(model, [_u_lambda(model, HALF), model.gamma2_xy()])
    ok = (
        len(zeros) == 2
        and all(m == 1 for _, m in zeros)
        and all(any(pt == q for q in expected) for pt, _ in zeros)
        and zeros[0][0] != zeros[1][0]
    )
    if not ok:
        raise EvidenceFailed("zeros of u*gamma2 differ from the expected pair")
    return {
        "matrix_fact": {"entry": list(nonneg[0][:2]), "value": 1},
        "divisor_fact": "u*gamma2 vanishes exactly at the pole pair",
    }


# -- closed forms ----------------------------------------------------------


class ClosedForm:
    """Q(var, 0) or Q(0, var) in closed form.

    geometric: 1/(1 - var * ratio(t));  inverse-sqrt: the reciprocal
    square root 1/sqrt(1 - var^2 * ratio(t)).
    """

    __slots__ = ("kind", "var", "ratio")
    def __init__(self, kind: str, var: str, ratio: RatFunc):
        self.kind, self.var, self.ratio = kind, var, ratio

    def to_string(self) -> str:
        r = f"({self.ratio})"
        if self.kind == "geometric":
            return f"1/(1 - {self.var}*{r})"
        return f"1/sqrt(1 - {self.var}^2*{r})"

    def expand(self, order: int) -> TSeries:
        """The series of the form in t mod t^(order+1), by a recurrence.

        With ratio = Nm/Dn, H = Dn - var^p Nm and alpha = -1/q, where
        p = q = 1 (geometric) or p = q = 2 (inverse-sqrt), the form is
        y = (H/Dn)^alpha, so

            Dn H y' = alpha (H' Dn - H Dn') y.

        Write P = Dn H and R = H' Dn - H Dn', polynomials in t whose
        coefficients are polynomials in var.  The coefficient of t^k is

            q (k+1) P_0 y_(k+1) = -sum_j R_j y_(k-j) - q sum_(j>=1) (k+1-j) P_j y_(k+1-j),

        where P_0 = Dn(0)^2 is a nonzero constant, so each coefficient
        takes at most deg(P) + deg(R) + 1 products.  Nm and Dn are
        cleared to integers and y_k is kept as integers over
        E_k = prod_(i<=k) q i P_0; the Fractions are built once, at the
        end.  Raises ValueError when ratio has a pole at t = 0 or
        ratio(0) != 0.
        """
        geometric = self.kind == "geometric"
        if expand_ratfunc(self.ratio, 0)[0] != 0:  # raises on a pole
            raise ValueError("series inverse needs a constant unit term" if geometric
                             else "inverse square root needs constant term 1")
        p = q = 1 if geometric else 2
        num, den = self.ratio.num.coeffs, self.ratio.den.coeffs
        scale = lcm(*(c.denominator for c in num + den))
        Nm = [c.numerator * (scale // c.denominator) for c in num]
        Dn = [[c.numerator * (scale // c.denominator)] for c in den]
        H = []
        for j in range(max(len(Nm), len(Dn))):
            h = [0] * (p + 1)
            h[0] = Dn[j][0] if j < len(Dn) else 0
            h[p] = -Nm[j] if j < len(Nm) else 0
            H.append(h)
        P = _tx_product(Dn, H)
        R = _tx_product(_t_derivative(H), Dn)
        _tx_add_product(R, H, _t_derivative(Dn), -1)
        p0 = P[0][0]
        E, Y = [1], [[1]]
        for k in range(order):
            acc = []
            for j in range(min(k, len(R) - 1) + 1):
                _add_product(acc, R[j], Y[k - j], -(E[k] // E[k - j]))
            for j in range(1, min(k + 1, len(P) - 1) + 1):
                _add_product(acc, P[j], Y[k + 1 - j], -q * (k + 1 - j) * (E[k] // E[k + 1 - j]))
            Y.append(acc)
            E.append(E[k] * q * (k + 1) * p0)
        return TSeries([Poly([Fraction(c, e) for c in y]) for y, e in zip(Y, E)], order)


# Polynomials in t whose coefficients are integer polynomials in the
# catalytic variable, as nested lists: f[j][i] is the coefficient of t^j x^i.


def _add_product(acc: list, a: list, b: list, c: int):
    """acc += c * a * b for integer coefficient lists; acc grows as needed."""
    acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
    for i, u in enumerate(a):
        if u:
            cu = c * u
            for j, v in enumerate(b):
                acc[i + j] += cu * v


def _tx_add_product(out: list, f: list, g: list, c: int):
    """out += c * f * g, with len(out) >= len(f) + len(g) - 1."""
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            _add_product(out[i + j], a, b, c)


def _tx_product(f: list, g: list) -> list:
    out = [[] for _ in range(len(f) + len(g) - 1)]
    _tx_add_product(out, f, g, 1)
    return out


def _t_derivative(f: list) -> list:
    """d/dt, padded with a zero term to the length of f."""
    return [[(j + 1) * c for c in f[j + 1]] for j in range(len(f) - 1)] + [[]]


def rational_closed_forms(model: Model):
    t = Poly.gen()
    a, b, d = model.a, model.b, model.d
    den = Poly.const(1) - (t * t).scale(a * b * d(1, -1) * d(-1, 1))
    rx = RatFunc(t.scale(a * d(1, 0)) + (t * t).scale(a * b * d(1, -1) * d(0, 1)), den)
    ry = RatFunc(t.scale(b * d(0, 1)) + (t * t).scale(a * b * d(-1, 1) * d(1, 0)), den)
    return ClosedForm("geometric", "x", rx), ClosedForm("geometric", "y", ry)


def algebraic_closed_forms(model: Model):
    t = Poly.gen()
    d = model.d
    den = Poly.const(1) - (t * t).scale(4 * d(1, -1) * d(-1, 1))
    wx = RatFunc((t * t).scale(4 * d(1, 1) * d(1, -1)), den)
    wy = RatFunc((t * t).scale(4 * d(1, 1) * d(-1, 1)), den)
    return ClosedForm("inverse-sqrt", "x", wx), ClosedForm("inverse-sqrt", "y", wy)


# -- classification ---------------------------------------------------------


class Classification:
    __slots__ = ("verdict", "closed_forms", "trail")
    def __init__(self, verdict: str, closed_forms: dict | None, trail: list):
        self.verdict = verdict  # "Rational" | "Algebraic" | "NotDAlgebraic"
        self.closed_forms, self.trail = closed_forms, trail

    def to_jsonable(self):
        return {
            "verdict": self.verdict,
            "closed_forms": None
            if self.closed_forms is None
            else {k: v.to_string() for k, v in self.closed_forms.items()},
            "trail": self.trail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)


def classify(model: Model) -> Classification:
    """Theorem-level verdict with a machine-checked evidence trail.

    Rational and algebraic verdicts carry closed forms; every
    not-D-algebraic verdict records which argument fired (matrix sign
    confinement plus homogeneous non-solution, or the edge-case facts).
    Raises CoverageGap if no argument applies, which the theory rules
    out.
    """
    trail = []
    if _on_rational_curve(model):
        certs = verify_identity_lemmas(model, lambdas=(model.A,))
        fx, fy = rational_closed_forms(model)
        trail.append({"rule": "interaction-weights-on-rational-curve (a+b=ab)",
                      "evidence": [c["identity"] for c in certs]})
        trail.append({"rule": "inhomogeneous-decoupling-solution",
                      "evidence": "pair built from the u-split at lam=A"})
        return Classification("Rational", {"Qx0": fx, "Q0y": fy}, trail)

    sets = critical_sets(model)
    M1, M2 = build_matrices(model, sets)

    hom = homogeneous_analysis(model, M1)
    if hom.kind == "solution":
        if not _in_algebraic_cell(model):
            raise CoverageGap(
                "homogeneous solution outside the S3, A=B=1/2 cell"
            )
        fx, fy = algebraic_closed_forms(model)
        trail.append({"rule": "homogeneous-solution (1/gamma1, -1/gamma2)",
                      "evidence": hom.to_jsonable()})
        return Classification("Algebraic", {"Qx0": fx, "Q0y": fy}, trail)

    trail.append({"rule": "homogeneous-no-solution", "evidence": hom.to_jsonable()})

    verdict = inhomogeneous_analysis(model, M1, M2)
    if verdict == "edge-case":
        checks = edge_case_checks(model, M2, sets)
        trail.append({"rule": "edge-case-S1-half", "evidence": checks})
    elif verdict in ("h1-confined", "h2-confined"):
        M = M1 if verdict == "h1-confined" else M2
        trail.append({"rule": f"pole-confinement-{M.which}",
                      "evidence": {"matrix": M.to_jsonable()}})
    else:
        raise CoverageGap(f"no classification rule fired for {model!r}")
    return Classification("NotDAlgebraic", None, trail)


def verify_closed_form(model: Model, order: int = 12,
                       classification: Classification | None = None) -> dict:
    """Expand the closed forms to the given order and compare them
    exactly against the dynamic-programming enumeration."""
    if classification is None:
        classification = classify(model)
    if classification.closed_forms is None:
        raise ValueError("no closed forms to verify for this verdict")
    series = enumerate_walks(model, order)
    report = {"order": order, "verdict": classification.verdict, "checked": []}
    for key, which in (("Qx0", "y=0"), ("Q0y", "x=0")):
        expanded = classification.closed_forms[key].expand(order)
        dp = axis_series_to_poly(specialize(series, which))
        for n in range(order + 1):
            got, want = expanded.coefficient(n), dp[n]
            if got != want:
                raise OracleMismatch(
                    n, f"({key}: closed form {_coeff_list(got)} vs walks {_coeff_list(want)})"
                )
        report["checked"].append(key)
    return report


def _coeff_list(p: Poly) -> str:
    """Coefficients of p from degree 0 up, as [c0, c1, ...]."""
    return "[" + ", ".join(rat_to_string(c) for c in p.coeffs) + "]"
