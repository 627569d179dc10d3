"""Sigma-distance machinery: bivaluations, valuation dynamics, the
distance decision procedure, and the matrices M1, M2."""

from fractions import Fraction as F

import pytest

from quadwalk.curve import (
    CurvePoint,
    apply_iota1,
    apply_iota2,
    apply_sigma,
    apply_sigma_inverse,
    critical_points,
    critical_sets,
)
from quadwalk.errors import ContractViolation
from quadwalk.exactalg import INF, QuadExtElem, RatFunc
from quadwalk.model import make_model
from quadwalk.sigmadist import (
    Bivaluation,
    bivaluation,
    build_matrices,
    orbit_profile,
    sigma_distance,
)
from tests.conftest import SUPPORTS, random_model
from tests.reference import step_valuation_forward, valuation_at


def test_bivaluation_value_semantics():
    assert Bivaluation(F(-2), INF) == Bivaluation(F(-2), INF)
    assert hash(Bivaluation(F(-2), INF)) == hash(Bivaluation(-2, INF))
    assert Bivaluation(-2, -1) != Bivaluation(-2, INF) and Bivaluation(0, 0) != (0, 0)
    assert len({Bivaluation(-2, -1), Bivaluation(F(-2), F(-1)), Bivaluation(-1, -2)}) == 2


def test_bivaluation_examples():
    m = make_model("S1", a=5, b=2)
    _, p2, _, _ = critical_points(m)
    assert bivaluation(p2) == Bivaluation(2, 1)
    m0 = make_model("S1", a=1, b=2)
    _, q2, _, _ = critical_points(m0)
    assert bivaluation(q2) == Bivaluation(0, INF)
    one = QuadExtElem(RatFunc(1))
    assert bivaluation(CurvePoint(one, one)) == Bivaluation(0, 0)


def test_step_valuation_forward():
    assert step_valuation_forward(Bivaluation(-2, -1)) == Bivaluation(-4, -3)
    assert step_valuation_forward(Bivaluation(-3, -2)) == Bivaluation(-5, -4)
    with pytest.raises(ValueError):
        step_valuation_forward(Bivaluation(2, 1))
    with pytest.raises(ValueError):
        step_valuation_forward(Bivaluation(-1, -3))  # iota2 side fails: 2i-j=1


def test_orbit_profile_paper_sequence():
    # ... (-2,-3) (0,-1) (2,1) (0,1) (-2,-1) ... around P2, any A not 0
    m = make_model("S1", a=5, b=3)
    _, p2, _, _ = critical_points(m)
    prof = orbit_profile(m, p2)
    got = [prof.valuations[n] for n in range(-2, 3)]
    assert got == [Bivaluation(*v) for v in ((-2, -3), (0, -1), (2, 1), (0, 1), (-2, -1))]
    assert prof.fwd_start <= 2 and prof.bwd_start >= -2


def test_orbit_profile_a_zero_sequence():
    # A = 0 variant: ... (-2,-3) (0,-1) (oo,oo) (0,oo) (-2,-1) ...
    m = make_model("S1", a=1, b=3)
    _, p2, _, _ = critical_points(m)
    prof = orbit_profile(m, p2)
    got = [prof.valuations[n] for n in range(-3, 2)]
    assert got == [Bivaluation(*v) for v in ((-2, -3), (0, -1), (INF, INF), (0, INF), (-2, -1))]


def test_orbit_tail_matches_lemma(s3_unit):
    # wherever the valuation step applies, it must agree with the
    # explicitly computed next point
    for base in critical_points(s3_unit):
        cur = base
        for _ in range(6):
            v = bivaluation(cur)
            nxt = apply_sigma(s3_unit, cur)
            try:
                predicted = step_valuation_forward(v)
            except ValueError:
                predicted = None
            if predicted is not None:
                assert bivaluation(nxt) == predicted
            cur = nxt


def test_orbit_tail_strictly_decreasing():
    m = make_model("S2", a=3, b=2)
    p1, _, _, _ = critical_points(m)
    prof = orbit_profile(m, p1)
    v = prof.valuations[prof.fwd_start]
    d = abs(v.vx - v.vy)
    assert d >= 1
    for k in (1, 2, 3):
        further = valuation_at(prof, max(prof.fwd_start, -prof.bwd_start) + k)
        assert further.vx < v.vx and further.vy < v.vy


def test_sigma_distance_paper_entries():
    # delta(P2, i1 P2) on S1 with unit weights: 0 at A=1/2, -2 at A=0,
    # bottom otherwise (up to the label swap inside {P1, P2})
    for a, expected in ((2, 0), (1, -2), (5, None)):
        m = make_model("S1", a=a, b=3)
        p1, p2, _, _ = critical_points(m)
        got = {sigma_distance(m, p, apply_iota1(m, p)) for p in (p1, p2)}
        assert expected in got, (a, got)
        # the companion label is the iota1-fixed double point: distance 0
        assert got <= {expected, 0}


def test_sigma_distance_self_consistency(s3_unit):
    for base in critical_points(s3_unit)[:2]:
        target = base
        for k in range(1, 6):
            target = apply_sigma(s3_unit, target)
            assert sigma_distance(s3_unit, base, target) == k
        target = base
        for k in range(1, 6):
            target = apply_sigma_inverse(s3_unit, target)
            assert sigma_distance(s3_unit, base, target) == -k
        assert sigma_distance(s3_unit, base, base) == 0


def _delta(model, p, q):
    return sigma_distance(model, p, q)


def test_distance_arithmetic_identities(rng):
    # antisymmetry, additivity, shift, involution reversal
    for tag in ("S1", "S3", "S5"):
        m = random_model(tag, rng)
        p1, p2, p3, p4 = critical_points(m)
        pts = [p1, p2, p3, p4]
        shifted = [apply_sigma(m, p) for p in pts[:2]]
        pool = pts + shifted
        for p in pool[:4]:
            for q in pool:
                d = _delta(m, p, q)
                back = _delta(m, q, p)
                assert (d is None) == (back is None)
                if d is not None:
                    assert back == -d
                    assert _delta(m, p, apply_sigma(m, q)) == d + 1
                assert _delta(m, apply_iota1(m, q), apply_iota1(m, p)) == d
                assert _delta(m, apply_iota2(m, q), apply_iota2(m, p)) == d
        # additivity on a finite chain
        q1 = apply_sigma(m, p1)
        q2 = apply_sigma(m, q1)
        assert _delta(m, p1, q1) == 1 and _delta(m, q1, q2) == 1
        assert _delta(m, p1, q2) == 2


def test_matrix_symmetries(rng):
    for tag in SUPPORTS:
        for _ in range(2):
            m = random_model(tag, rng)
            M1, M2 = build_matrices(m)
            for M in (M1, M2):
                assert M.entries == [list(col) for col in zip(*M.entries)]
            shift = [[-1, -1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
            for i in range(4):
                for j in range(4):
                    e1, e2 = M1.entries[i][j], M2.entries[i][j]
                    if e1 is None:
                        assert e2 is None
                    else:
                        assert e2 == e1 + shift[i][j]


def test_matrix_direct_entries(s3_unit):
    # all 16 entries of M1 recomputed directly, no symmetry fill
    sets = critical_sets(s3_unit)
    M1, _ = build_matrices(s3_unit)
    for i in range(4):
        for j in range(4):
            direct = sigma_distance(s3_unit, sets.L1_minus[i], sets.L1_plus[j])
            assert direct == M1.entries[i][j]


def test_spot_check_mismatch_is_contract_violation(s3_unit):
    # P3 and P4 swapped in L2+: the direct M2[3][3] no longer matches
    # the value shifted from M1
    sets = critical_sets(s3_unit)
    sets.L2_plus[2], sets.L2_plus[3] = sets.L2_plus[3], sets.L2_plus[2]
    with pytest.raises(ContractViolation, match=r"M2\[3\]\[3\]"):
        build_matrices(s3_unit, sets)


def test_edge_case_matrix_fact():
    # S1, unit weights, b = 2, a = 5: the only nonnegative entry of M2
    # is the diagonal +1 in the gamma2 block
    m = make_model("S1", a=5, b=2)
    _, M2 = build_matrices(m)
    nonneg = M2.nonnegative_entries()
    assert len(nonneg) == 1
    i, j, val = nonneg[0]
    assert val == 1 and (i, j) in ((2, 2), (3, 3))


def test_matrix_json(s3_unit):
    M1, _ = build_matrices(s3_unit)
    doc = M1.to_jsonable()
    assert doc["which"] == "M1" and len(doc["entries"]) == 4
    assert all(e == "bot" or isinstance(e, int) for row in doc["entries"] for e in row)
