"""One quadratic extension Q(t)(sqrt(D)) with a pinned square root.

A QuadExt context fixes a non-square radicand D in Q(t) together with a
branch: of the two square roots of D in the Puiseux series field, the
selected one is the root whose leading coefficient is the principal
square root of c, the leading Laurent coefficient of D (positive for
c > 0, i*sqrt(-c) for c < 0).  Elements are p + q*w with p, q in Q(t)
and w the selected root.

Everything downstream relies on two exact decision procedures here.
Neither expands a series nor factors an integer: the branch enters only
through sqrt(c), and each question about it reduces to whether a
rational is a square (sqrt_fraction).

* valuation: v(p + q*w) follows from min(v(p), v(q) + v(D)/2) except
  when the leading terms cancel, p0 + q0*sqrt(c) = 0 with p0, q0 the
  leading coefficients of p and q.  That needs sqrt(c) = -p0/q0, so c
  a rational square; then the norm identity
  v(u) + v(conj u) = v(p^2 - q^2 D) resolves it;

* equality across different contexts: p1 + q1*w1 = p2 + q2*w2 iff the
  rational parts agree, q1^2 D1 = q2^2 D2, and the selected branches of
  the common square root q1*w1, q2*w2 have the same leading Puiseux
  coefficient, q1(0)*sqrt(c1) = q2(0)*sqrt(c2).  Equal squares make
  c1/c2 = (q2(0)/q1(0))^2 a rational square, and
  sqrt(c1) = sqrt(c1/c2)*sqrt(c2) for principal roots of two rationals
  of one sign, so the test is q1(0)*sqrt(c1/c2) = q2(0).  Two square
  roots of the same function differ globally by a sign, so comparing
  leading coefficients is conclusive.  A c1/c2 that is not a rational
  square contradicts the equal squares: SurdClassMismatch.

Arithmetic with a rational operand (q = 0) skips the work that would
only produce zeros: a product with r in Q(t) is (p r) + (q r) w, the
inverse of a rational element is 1/p, and a sum adds no zero radical
part (RatFunc returns the other operand of a sum with zero).  Each
result is the same normal form the general formulas give, since every
RatFunc part is kept reduced.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import SurdClassMismatch
from .poly import Poly
from .ratfunc import RatFunc, ratfunc_is_square
from .rationals import INF, sqrt_fraction


class QuadExt:
    """Field context: the radicand and the selected branch of its root."""

    __slots__ = ("D", "half_val", "c")

    def __init__(self, D: RatFunc):
        if not isinstance(D, RatFunc):
            D = RatFunc(D)
        if D.is_zero():
            raise ValueError("zero radicand")
        ok, _ = ratfunc_is_square(D)
        if ok:
            raise ValueError("radicand is a square; use rational elements instead")
        self.D = D
        self.half_val = D.valuation() / 2
        self.c = D.low_coeff()  # the selected root leads with sqrt(c)

    def same_as(self, other: "QuadExt") -> bool:
        return self is other or self.D == other.D

    def __repr__(self):
        return f"QuadExt(sqrt({self.D}))"


class QuadExtElem:
    """p + q*w, with w the selected square root of the context radicand.

    ctx is None for elements of the ground field Q(t); those coerce
    freely into any context.
    """

    __slots__ = ("ctx", "p", "q")

    def __init__(self, p, q=0, ctx: QuadExt | None = None):
        if not isinstance(p, RatFunc):
            p = RatFunc(p)
        if not isinstance(q, RatFunc):
            q = RatFunc(q)
        if ctx is None and not q.is_zero():
            raise ValueError("radical coefficient without a context")
        if ctx is not None and q.is_zero():
            ctx = None
        self.ctx = ctx
        self.p = p
        self.q = q

    # -- helpers ---------------------------------------------------------

    @classmethod
    def sqrt(cls, ctx: QuadExt) -> "QuadExtElem":
        return cls(0, 1, ctx)

    def is_zero(self):
        return self.p.is_zero() and self.q.is_zero()

    def _join_ctx(self, other: "QuadExtElem") -> QuadExt | None:
        a, b = self.ctx, other.ctx
        if a is None:
            return b
        if b is None:
            return a
        if a.same_as(b):
            return a
        raise ValueError("arithmetic across distinct quadratic extensions")

    def _coerce(self, other):
        if isinstance(other, QuadExtElem):
            return other
        if isinstance(other, (int, Fraction, Poly, RatFunc)):
            return QuadExtElem(other)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self._join_ctx(o)
        return QuadExtElem(self.p + o.p, self.q + o.q, ctx)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElem(-self.p, -self.q, self.ctx)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.q.is_zero() or self.q.is_zero():
            # one factor is r in Q(t): (p r) + (q r) w
            z, r = (self, o.p) if o.q.is_zero() else (o, self.p)
            return QuadExtElem(z.p * r, z.q * r, z.ctx)
        ctx = self._join_ctx(o)
        D = ctx.D
        p = self.p * o.p + self.q * o.q * D
        q = self.p * o.q + self.q * o.p
        return QuadExtElem(p, q, ctx)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadExtElem(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def norm(self) -> RatFunc:
        if self.ctx is None:
            return self.p * self.p
        return self.p * self.p - self.q * self.q * self.ctx.D

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.q.is_zero():
            return QuadExtElem(self.p.inverse())
        n = self.norm()
        return QuadExtElem(self.p / n, -self.q / n, self.ctx)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- valuation -------------------------------------------------------

    def valuation(self):
        """Exact t-adic valuation under the Puiseux embedding."""
        if self.is_zero():
            return INF
        if self.q.is_zero():
            return self.p.valuation()
        mq = self.q.valuation() + self.ctx.half_val
        if self.p.is_zero():
            return mq
        mp = self.p.valuation()
        if mp != mq:
            return min(mp, mq)
        root = sqrt_fraction(self.ctx.c)
        if root is None or self.p.low_coeff() + self.q.low_coeff() * root != 0:
            return mp
        # cancellation: the conjugate cannot cancel too, so use the norm
        return self.norm().valuation() - mp

    # -- equality -----------------------------------------------------------

    def equals(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.q.is_zero() or o.q.is_zero():
            return self.q.is_zero() and o.q.is_zero() and self.p == o.p
        if self.ctx.same_as(o.ctx):
            return self.p == o.p and self.q == o.q
        # distinct radicands: match minimal polynomials, then branches
        if self.p != o.p:
            return False
        R1 = self.q * self.q * self.ctx.D
        R2 = o.q * o.q * o.ctx.D
        if R1 != R2:
            return False
        ratio = sqrt_fraction(self.ctx.c / o.ctx.c)
        if ratio is None:
            raise SurdClassMismatch("equal squares with distinct surd classes")
        return self.q.low_coeff() * ratio == o.q.low_coeff()

    def __eq__(self, other):
        return self.equals(other)

    def __hash__(self):
        if self.q.is_zero():
            return hash(self.p)
        raise TypeError("irrational QuadExtElem is unhashable")

    def __repr__(self):
        if self.q.is_zero():
            return str(self.p)
        return f"({self.p}) + ({self.q})*w[{self.ctx.D}]"
