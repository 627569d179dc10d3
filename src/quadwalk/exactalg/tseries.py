"""Truncated power series in t whose coefficients are polynomials in a
catalytic variable.

ClosedForm.expand returns its closed-form series (geometric and
inverse-square-root) as a TSeries, compared coefficient by coefficient
against the walk enumeration.  inverse and inv_sqrt expand such series
directly, in O(N^3) and O(N^4) coefficient operations; the tests use
them as the reference for the recurrence in ClosedForm.expand.
Each coefficient is a coefficient vector in the catalytic variable (x or
y), held in a Poly; which variable it is, only the caller knows.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .rationals import rat_to_string


class TSeries:
    """Coefficients c[0..N] of a series mod t^(N+1)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [Poly.zero()] * (order + 1 - len(coeffs))
        self.coeffs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        self.order = order

    @classmethod
    def const(cls, c, order):
        return cls([Poly.const(c)], order)

    def __add__(self, other):
        order = min(self.order, other.order)
        return TSeries([self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order)

    def __neg__(self):
        return TSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = [Poly.zero() for _ in range(order + 1)]
        for i, a in enumerate(self.coeffs):
            if i > order or a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > order:
                    break
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TSeries(out, order)

    def scale(self, c):
        return TSeries([x * c for x in self.coeffs], self.order)

    def inverse(self):
        """1/self for a series whose constant term is a nonzero constant."""
        c0 = self.coeffs[0]
        if c0.degree not in (0,):
            raise ValueError("series inverse needs a constant unit term")
        inv0 = 1 / c0.coeffs[0]
        out = [Poly.const(inv0)]
        for k in range(1, self.order + 1):
            acc = Poly.zero()
            for j in range(1, k + 1):
                if j < len(self.coeffs):
                    acc = acc + self.coeffs[j] * out[k - j]
            out.append(acc.scale(-inv0))
        return TSeries(out, self.order)

    def inv_sqrt(self):
        """(self)^(-1/2) for constant term 1, via the binomial series."""
        if not (self.coeffs[0].degree == 0 and self.coeffs[0].coeffs[0] == 1):
            raise ValueError("inverse square root needs constant term 1")
        # z = 1 - self has positive valuation; sum binom(2k,k)/4^k z^k
        z = TSeries.const(1, self.order) - self
        out = TSeries.const(1, self.order)
        zk = TSeries.const(1, self.order)
        coeff = Fraction(1)
        for k in range(1, self.order + 1):
            zk = zk * z
            coeff = coeff * Fraction(2 * (2 * k - 1), 4 * k)
            out = out + zk.scale(coeff)
        return out

    def coefficient(self, n) -> Poly:
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(order + 1))

    def __repr__(self):
        # a coefficient is a vector in the catalytic variable, not a Poly in t
        parts = [f"[{', '.join(map(rat_to_string, c.coeffs))}]*t^{k}"
                 for k, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.order + 1})"
