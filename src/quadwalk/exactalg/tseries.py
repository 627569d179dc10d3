"""Truncated power series in t with polynomial coefficients.

ClosedForm.expand returns its closed-form series (geometric and
inverse-square-root) as a TSeries, compared coefficient by coefficient
against the walk enumeration.  inverse and inv_sqrt expand such series
directly, in O(N^3) and O(N^4) coefficient operations; the tests use
them as the reference for the recurrence in ClosedForm.expand.
Coefficients are Poly objects in a catalytic variable (or plain
constants via Poly.const).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly


class TSeries:
    """Coefficients c[0..N] of a series mod t^(N+1)."""

    __slots__ = ("coeffs", "order", "var")

    def __init__(self, coeffs, order, var="x"):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [Poly.zero(var)] * (order + 1 - len(coeffs))
        self.coeffs = [c if isinstance(c, Poly) else Poly.const(c, var) for c in coeffs]
        self.order = order
        self.var = var

    @classmethod
    def const(cls, c, order, var="x"):
        return cls([Poly.const(c, var)], order, var)

    def __add__(self, other):
        order = min(self.order, other.order)
        return TSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order, self.var
        )

    def __neg__(self):
        return TSeries([-c for c in self.coeffs], self.order, self.var)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = [Poly.zero(self.var) for _ in range(order + 1)]
        for i, a in enumerate(self.coeffs):
            if i > order or a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > order:
                    break
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TSeries(out, order, self.var)

    def scale(self, c):
        return TSeries([x * c for x in self.coeffs], self.order, self.var)

    def inverse(self):
        """1/self for a series whose constant term is a nonzero constant."""
        c0 = self.coeffs[0]
        if c0.degree not in (0,):
            raise ValueError("series inverse needs a constant unit term")
        inv0 = 1 / c0.coeffs[0]
        out = [Poly.const(inv0, self.var)]
        for k in range(1, self.order + 1):
            acc = Poly.zero(self.var)
            for j in range(1, k + 1):
                if j < len(self.coeffs):
                    acc = acc + self.coeffs[j] * out[k - j]
            out.append(acc.scale(-inv0))
        return TSeries(out, self.order, self.var)

    def inv_sqrt(self):
        """(self)^(-1/2) for constant term 1, via the binomial series."""
        if not (self.coeffs[0].degree == 0 and self.coeffs[0].coeffs[0] == 1):
            raise ValueError("inverse square root needs constant term 1")
        # z = 1 - self has positive valuation; sum binom(2k,k)/4^k z^k
        z = TSeries.const(1, self.order, self.var) - self
        out = TSeries.const(1, self.order, self.var)
        zk = TSeries.const(1, self.order, self.var)
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
        parts = [f"({c})*t^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.order + 1})"
