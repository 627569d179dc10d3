"""Brute-force oracle: dynamic-programming enumeration of the walks.

Contact convention.  A boundary contact is counted at every step whose
*resulting position* lies on the axis: landing on y = 0 multiplies the
walk weight by a, landing on x = 0 by b, and a step into the corner
(unreachable for these supports) would collect both.  The convention is
pinned against the kernel functional equation by
functional_equation_residual, which must vanish identically.

The empty walk contributes 1 with no contacts, so every series starts
with constant term 1.

Scaled-integer layers.  Each step v contributes one of four
multipliers, d_v, d_v*a, d_v*b or d_v*a*b, chosen by the axes the step
lands on.  enumerate_walks writes all of them over one common
denominator L, keeps layer n as Python ints over L^n, and builds each
output Fraction once per entry, so the dynamic program does no gcd.
functional_equation_residual does not trust that layout: it clears the
denominators of whatever Fractions it is given, row by row.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .errors import ResidualNonZero
from .exactalg import Poly, rat_to_string
from .model import Model, functional_equation_coeffs


class SeriesTruncation:
    """Q(x, y) mod t^(N+1): terms[n] maps (i, j) to the exact weighted
    count of n-step walks ending at (i, j)."""

    __slots__ = ("order", "terms")
    def __init__(self, order: int, terms: list):
        self.order, self.terms = order, terms

    def __getitem__(self, n) -> dict:
        return self.terms[n]

    def to_json(self) -> str:
        doc = [
            [
                [i, j, rat_to_string(c)]
                for (i, j), c in sorted(term.items())
                if c != 0
            ]
            for term in self.terms
        ]
        return json.dumps(doc)


def enumerate_walks(model: Model, order: int) -> SeriesTruncation:
    """Exact sum over all quadrant walks of each length up to order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    a, b = model.a, model.b
    # per step: multipliers indexed by (lands on y = 0) + 2 * (lands on x = 0)
    mults = []
    for step in sorted(model.stepset.steps):
        dv = model.d(*step)
        mults.append((step, (dv, dv * a, dv * b, dv * a * b)))
    L = lcm(*(m.denominator for _, ms in mults for m in ms))
    steps = [(di, dj, tuple(m.numerator * (L // m.denominator) for m in ms))
             for (di, dj), ms in mults]
    layer = {(0, 0): 1}  # numerators over L^n
    terms = [{(0, 0): Fraction(1)}]
    scale = 1
    for _ in range(order):
        new = {}
        for (i, j), wt in layer.items():
            for di, dj, ms in steps:
                ni, nj = i + di, j + dj
                if ni < 0 or nj < 0:
                    continue
                key = (ni, nj)
                new[key] = new.get(key, 0) + wt * ms[(nj == 0) + 2 * (ni == 0)]
        layer = new
        scale *= L
        terms.append({key: Fraction(w, scale) for key, w in layer.items()})
    return SeriesTruncation(order=order, terms=terms)


def specialize(series: SeriesTruncation, which: str):
    """Substitute per term: which is "y=0", "x=0", or "x=1,y=1".

    Axis specializations return dicts (exponent of the surviving
    variable -> coefficient); the full evaluation returns Fractions.
    """
    out = []
    for term in series.terms:
        if which == "y=0":
            out.append({i: c for (i, j), c in term.items() if j == 0})
        elif which == "x=0":
            out.append({j: c for (i, j), c in term.items() if i == 0})
        elif which == "x=1,y=1":
            out.append(sum(term.values(), Fraction(0)))
        else:
            raise ValueError(f"unknown specialization {which!r}")
    return out


def axis_series_to_poly(spec: list) -> list:
    """Dict layers from specialize() as coefficient vectors in the
    catalytic variable, one Poly per t-order."""
    out = []
    for layer in spec:
        n = max(layer, default=0)
        coeffs = [layer.get(k, Fraction(0)) for k in range(n + 1)]
        out.append(Poly(coeffs))
    return out


def _cleared(layer: dict):
    """Layer n over the lcm D of its denominators: (D, parts), where
    parts maps "xy", "x" and "y" to the integer entries (i, j, c * D) of
    Q, of Q(x, 0) and of Q(0, y)."""
    den = lcm(*(c.denominator for c in layer.values()))
    xy = [(i, j, c.numerator * (den // c.denominator)) for (i, j), c in layer.items()]
    return den, {"xy": xy, "x": [e for e in xy if e[1] == 0], "y": [e for e in xy if e[0] == 0]}


def functional_equation_residual(model: Model, series: SeriesTruncation, order=None):
    """Left minus right side of the kernel equation, mod t^(order+1).

    The contract is that it vanishes identically; a nonzero monomial
    raises ResidualNonZero, which means the contact convention or the
    kernel coefficients are wrong -- a bug, not a data condition.

    Each row t^m is tested in integers, multiplied by the lcm of the
    denominators of the kernel blocks and of the layers the row reads.
    K, c1 and c2 have t-degree 1, so row m reads layers m and m - 1, and
    only those are held cleared.  The first nonzero entry in (n, sorted
    monomial) order is raised with its exact value as a reduced
    Fraction.  On success the returned rows are all empty.
    """
    if order is None:
        order = series.order
    K, _, c1, c2 = functional_equation_coeffs(model)
    blocks = ((K, 1, "xy"), (c1, -1, "x"), (c2, -1, "y"))
    C = lcm(model.omega.denominator, *(c.denominator for block, _, _ in blocks
                                       for tc in block.terms.values() for c in tc.coeffs))
    # block terms by t-power: (di, dj, sign * coefficient * C, part of Q)
    by_tp = {}
    for block, sign, part in blocks:
        for (di, dj), tc in block.terms.items():
            for tp, c in enumerate(tc.coeffs):
                if c:
                    k = sign * c.numerator * (C // c.denominator)
                    by_tp.setdefault(tp, []).append((di, dj, k, part))
    span = max(by_tp)
    cleared = {}
    for m in range(order + 1):
        reads = [(tp, m - tp) for tp in by_tp if tp <= m]
        for _, n in reads:
            if n not in cleared:
                cleared[n] = _cleared(series.terms[n] if n < len(series.terms) else {})
        den = lcm(*(cleared[n][0] for _, n in reads))
        row = {}
        for tp, n in reads:
            dn, parts = cleared[n]
            f = den // dn
            for di, dj, k, part in by_tp[tp]:
                kf = k * f
                for i, j, v in parts[part]:
                    key = (i + di, j + dj)
                    row[key] = row.get(key, 0) + kf * v
        if m == 0:
            w = model.omega
            row[(1, 1)] = row.get((1, 1), 0) - w.numerator * (C // w.denominator) * den
        nonzero = [key for key, v in row.items() if v]
        if nonzero:
            key = min(nonzero)
            raise ResidualNonZero(m, key, Fraction(row[key], C * den))
        cleared.pop(m - span, None)  # row m + 1 reads layers m + 1 - span and up
    return [{} for _ in range(order + 1)]
