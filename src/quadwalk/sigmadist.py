"""Sigma-distances between curve points, and the matrices M1, M2.

delta(P, P') is the unique integer n with sigma^n P = P', or bottom
(None) when no such integer exists.  It is computed the way the theory
prescribes:

1. walk the orbit sigma^n P explicitly in both directions, recording
   the bivaluation (v(x1), v(y1)) of every point, until each direction
   is certified: once a point has bivaluation i < j < 0 the forward
   tail is pinned to (i - 2dk, j - 2dk) with d = |i - j| for all later
   points, and symmetrically j < i < 0 pins the backward tail;
2. candidates for n are the explicitly computed indices whose
   bivaluation matches v(P') plus at most one index per tail (the tail
   valuations are strictly decreasing, so the linear equation has at
   most one integer solution);
3. every candidate is confirmed or rejected by exact point equality.

Because valuations outside the explicit range are certified and
injective, a bottom answer is a decision, not a failed search.
"""

from __future__ import annotations

from .curve import (
    CriticalSets,
    CurvePoint,
    apply_sigma,
    apply_sigma_inverse,
    critical_sets,
)
from .errors import OrbitRegimeNotReached, TableCellMismatch
from .exactalg import INF
from .model import Model

MAX_WINDOW = 12


class Bivaluation:
    __slots__ = ("vx", "vy")
    def __init__(self, vx, vy):
        self.vx, self.vy = vx, vy  # each a Fraction or INF

    def __eq__(self, other):
        if not isinstance(other, Bivaluation):
            return NotImplemented
        return (self.vx, self.vy) == (other.vx, other.vy)

    def __hash__(self):
        return hash((self.vx, self.vy))

    def finite(self):
        return self.vx != INF and self.vy != INF

    def __repr__(self):
        fmt = lambda v: "oo" if v == INF else str(v)
        return f"({fmt(self.vx)},{fmt(self.vy)})"


def bivaluation(pt: CurvePoint) -> Bivaluation:
    """Exact t-adic valuations of the reciprocal coordinates.

    Both components are infinite only at the double point x = y =
    infinity (a real curve point when d11 = 0); Omega itself is not
    representable in this chart, so no separate guard is needed.
    """
    return Bivaluation(pt.x1.valuation(), pt.y1.valuation())


class OrbitProfile:
    """Explicit orbit points covering [bwd_start, fwd_start] (grown on
    demand) plus certified affine valuation tails beyond both ends."""

    __slots__ = ("base", "points", "valuations", "fwd_start", "bwd_start")
    def __init__(self, base, points, valuations, fwd_start, bwd_start):
        self.base = base
        self.points, self.valuations = points, valuations  # n -> CurvePoint, n -> Bivaluation
        self.fwd_start = fwd_start  # first index with i < j < 0
        self.bwd_start = bwd_start  # first index (negative direction) with j < i < 0

    def point(self, model: Model, n: int) -> CurvePoint:
        """sigma^n of the base point, extending the cache on demand."""
        lo, hi = min(self.points), max(self.points)
        while n > hi:
            self.points[hi + 1] = apply_sigma(model, self.points[hi])
            hi += 1
        while n < lo:
            self.points[lo - 1] = apply_sigma_inverse(model, self.points[lo])
            lo -= 1
        return self.points[n]

    def tail_candidates(self, target: Bivaluation):
        """Explicit indices and tail solutions matching the bivaluation."""
        cands = [n for n, v in self.valuations.items() if v == target]
        if target.finite():
            for start, sign in ((self.fwd_start, 1), (self.bwd_start, -1)):
                v0 = self.valuations[start]
                d = abs(v0.vx - v0.vy)
                # target = v0 - 2dk componentwise; num > 0 makes k >= 1
                num = v0.vx - target.vx
                if d > 0 and num > 0 and num % (2 * d) == 0:
                    k = num // (2 * d)
                    if v0.vy - 2 * d * k == target.vy:
                        n = start + sign * int(k)
                        if n not in cands:
                            cands.append(n)
        return sorted(cands)


def orbit_profile(model: Model, pt: CurvePoint) -> OrbitProfile:
    """Explicit orbit points out to the certified valuation tails.

    The forward tail needs some index with bivaluation i < j < 0, the
    backward tail j < i < 0; once a side is certified there is no need
    to compute further explicit points in that direction, because the
    valuation dynamics determine (and the tail solver inverts) every
    later bivaluation.  The search gives up after MAX_WINDOW steps in
    each direction, which the theory rules out for critical points
    (certification within two steps, three in the boundary-weight-free
    cases).

    The base must lie on the curve, and is not checked again here: every
    base is a point that critical_points or critical_sets returned, and
    those check each point they build.
    """
    points = {0: pt}
    vals = {0: bivaluation(pt)}

    def certified_fwd(v):
        return v.finite() and v.vx < v.vy < 0

    def certified_bwd(v):
        return v.finite() and v.vy < v.vx < 0

    fwd = 0 if certified_fwd(vals[0]) else None
    bwd = 0 if certified_bwd(vals[0]) else None
    for n in range(1, MAX_WINDOW + 1):
        if fwd is None:
            points[n] = apply_sigma(model, points[n - 1])
            vals[n] = bivaluation(points[n])
            if certified_fwd(vals[n]):
                fwd = n
        if bwd is None:
            points[-n] = apply_sigma_inverse(model, points[-(n - 1)])
            vals[-n] = bivaluation(points[-n])
            if certified_bwd(vals[-n]):
                bwd = -n
        if fwd is not None and bwd is not None:
            return OrbitProfile(
                base=pt, points=points, valuations=vals, fwd_start=fwd, bwd_start=bwd,
            )
    raise OrbitRegimeNotReached(MAX_WINDOW)


def sigma_distance(model: Model, p_minus: CurvePoint, p_plus: CurvePoint,
                   profile: OrbitProfile | None = None):
    """delta(p_minus, p_plus): the integer n with sigma^n p_minus =
    p_plus, or None (bottom) when no integer works."""
    if profile is None or profile.base is not p_minus:
        profile = orbit_profile(model, p_minus)
    target = bivaluation(p_plus)
    for n in profile.tail_candidates(target):
        if profile.point(model, n) == p_plus:
            return n
    return None


BOT = None


class DistanceMatrix:
    """4x4 sigma-distances; rows from an L^- list, columns from L^+."""

    __slots__ = ("which", "entries", "row_labels", "col_labels")
    def __init__(self, which: str, entries: list, row_labels: list, col_labels: list):
        self.which, self.entries = which, entries
        self.row_labels, self.col_labels = row_labels, col_labels

    def strictly_negative_or_bot(self) -> bool:
        return all(
            e is BOT or e < 0 for row in self.entries for e in row
        )

    def nonnegative_entries(self):
        out = []
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if e is not BOT and e >= 0:
                    out.append((i, j, e))
        return out

    def to_jsonable(self):
        return {
            "which": self.which,
            "rows": self.row_labels,
            "cols": self.col_labels,
            "entries": [
                ["bot" if e is BOT else e for e in row] for row in self.entries
            ],
        }


_M1_ROWS = ["P1", "P2", "i2 P3", "i2 P4"]
_M1_COLS = ["i1 P1", "i1 P2", "s^-1 P3", "s^-1 P4"]
_M2_ROWS = ["s P1", "s P2", "i2 P3", "i2 P4"]
_M2_COLS = ["i1 P1", "i1 P2", "P3", "P4"]


def build_matrices(model: Model, sets: CriticalSets | None = None):
    """(M1, M2), computing the 10 independent entries of M1 and filling
    the rest by symmetry; M2 follows from M1 by the shift identity
    M2 = M1 + diag-block(-J2, J2) and is spot-verified directly."""
    if sets is None:
        sets = critical_sets(model)
    profiles = {}

    # sets holds every row point for the whole call, so an id is never
    # reused for another point while profiles is alive
    def dist(p, q):
        key = id(p)
        if key not in profiles:
            profiles[key] = orbit_profile(model, p)
        return sigma_distance(model, p, q, profiles[key])

    m1 = [[BOT] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            m1[i][j] = dist(sets.L1_minus[i], sets.L1_plus[j])
            m1[j][i] = m1[i][j]
    M1 = DistanceMatrix("M1", m1, _M1_ROWS, _M1_COLS)

    shift = [[-1, -1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
    m2 = [
        [BOT if m1[i][j] is BOT else m1[i][j] + shift[i][j] for j in range(4)]
        for i in range(4)
    ]
    M2 = DistanceMatrix("M2", m2, _M2_ROWS, _M2_COLS)

    # entries touching every block of the shift identity
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        direct = dist(sets.L2_minus[i], sets.L2_plus[j])
        if direct != m2[i][j]:
            raise TableCellMismatch(
                f"M2[{i}][{j}] direct value {direct} != shifted {m2[i][j]}"
            )
    return M1, M2
