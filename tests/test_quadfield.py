"""Arithmetic facts and ring axioms for the nine quadratic rings."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropigon import HEEGNER_DS, QuadInt, QuadRat, field, gcd
from tropigon.errors import BothZero, DivByZero, FieldMismatch, ZeroInput
from tropigon.quadfield import Field, PlanePoint, canonical_unit_rep, div_exact, divides, enumerate_norm_le, from_affix

EUCLIDEAN_DS = (1, 2, 3, 7, 11)

fields = st.sampled_from([field(d) for d in HEEGNER_DS])
coords = st.integers(-30, 30)


@st.composite
def quadints(draw, f=None):
    ff = f if f is not None else draw(fields)
    return QuadInt(ff, draw(coords), draw(coords))


@st.composite
def quadint_pairs(draw):
    f = draw(fields)
    return draw(quadints(f)), draw(quadints(f))


@st.composite
def quadint_triples(draw):
    f = draw(fields)
    return draw(quadints(f)), draw(quadints(f)), draw(quadints(f))


# ---------------------------------------------------------------- frozen facts


def test_field_invariants():
    assert field(1).sigma == 4
    assert field(3).sigma == 6
    for d in (2, 7, 11, 19, 43, 67, 163):
        assert field(d).sigma == 2
    assert field(1).discriminant == -4
    assert field(2).discriminant == -8
    assert field(7).discriminant == -7
    assert field(163).discriminant == -163
    assert field(7).norm_omega == 2
    assert field(163).norm_omega == 41


def test_mul_reduction_rules():
    f1, f3, f7 = field(1), field(3), field(7)
    assert QuadInt(f1, 0, 1) * QuadInt(f1, 0, 1) == QuadInt(f1, -1, 0)
    assert QuadInt(f3, 0, 1) * QuadInt(f3, 0, 1) == QuadInt(f3, -1, 1)
    assert QuadInt(f7, 1, 1) * QuadInt(f7, 1, 1) == QuadInt(f7, -1, 3)


def test_norm_values():
    assert QuadInt(field(1), 1, 1).norm() == 2
    assert QuadInt(field(7), 0, 1).norm() == 2
    for d in HEEGNER_DS:
        assert field(d).zero.norm() == 0


def test_canonical_unit_rep_values():
    f1, f2 = field(1), field(2)
    assert canonical_unit_rep(QuadInt(f1, 0, -1)) == QuadInt(f1, 1, 0)
    assert canonical_unit_rep(QuadInt(f2, -3, 0)) == QuadInt(f2, 3, 0)
    assert canonical_unit_rep(QuadInt(f1, 1, -1)) == QuadInt(f1, 1, 1)
    with pytest.raises(ZeroInput):
        canonical_unit_rep(f1.zero)


def test_gcd_values():
    f1 = field(1)
    g, _, _ = gcd(QuadInt(f1, 2, 0), QuadInt(f1, 1, 1))
    assert g == QuadInt(f1, 1, 1)
    g, _, _ = gcd(QuadInt(f1, 3, 0), QuadInt(f1, 5, 0))
    assert g == QuadInt(f1, 1, 0)
    for d in HEEGNER_DS:
        f = field(d)
        x = QuadInt(f, -4, 7)
        g, _, _ = gcd(x, f.zero)
        assert g == canonical_unit_rep(x)
    with pytest.raises(BothZero):
        gcd(field(1).zero, field(1).zero)


def test_div_exact_values():
    f1, f2 = field(1), field(2)
    assert div_exact(QuadInt(f1, 2, 0), QuadInt(f1, 1, 1)) == QuadRat.make(QuadInt(f1, 1, -1), 1)
    q = QuadRat.from_int(f2, 1) / f2.omega
    assert q == QuadRat.make(QuadInt(f2, 0, -1), 2)
    for d in HEEGNER_DS:
        x = QuadInt(field(d), 5, -3)
        assert div_exact(x, x) == QuadRat.from_int(field(d), 1)
    with pytest.raises(DivByZero):
        div_exact(f1.one, f1.zero)


def test_cross_field_mixing_rejected():
    with pytest.raises(FieldMismatch):
        field(1).one + field(3).one


# ------------------------------------------------------------------ ring axioms


@given(quadint_triples())
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == x.field.zero
    assert x * x.field.one == x


@given(quadint_pairs())
def test_norm_and_conj_are_multiplicative(xy):
    x, y = xy
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x * x.conj() == x.field.one * x.norm()
    assert (x + y).trace() == x.trace() + y.trace()


# The ring formulas as written before they came from omega's minimal
# polynomial: one branch per field.case, kept as oracles.


def _old_constants(f):
    case = 1 if f.d % 4 in (1, 2) else 2
    m = (1 + f.d) // 4
    trace = 0 if case == 1 else 1
    norm = f.d if case == 1 else m
    disc = -4 * f.d if case == 1 else -f.d
    return case, trace, norm, disc


def _old_mul(x, y):
    f, (a1, b1, a2, b2) = x.field, (x.a, x.b, y.a, y.b)
    if f.case == 1:
        return QuadInt(f, a1 * a2 - f.d * b1 * b2, a1 * b2 + a2 * b1)
    m = (1 + f.d) // 4
    return QuadInt(f, a1 * a2 - m * b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)


def _old_norm(x):
    if x.field.case == 1:
        return x.a * x.a + x.field.d * x.b * x.b
    return x.a * x.a + x.a * x.b + (1 + x.field.d) // 4 * x.b * x.b


def _old_trace(x):
    return 2 * x.a if x.field.case == 1 else 2 * x.a + x.b


def _old_conj(x):
    if x.field.case == 1:
        return QuadInt(x.field, x.a, -x.b)
    return QuadInt(x.field, x.a + x.b, -x.b)


def _old_affix(x):
    if x.field.case == 1:
        return x.a, x.b
    return 2 * x.a + x.b, x.b


def _old_from_affix(f, x, y):
    if f.case == 1:
        return QuadInt(f, x, y)
    return QuadInt(f, x - y, 2 * y)


def _old_enumerate_norm_le(f, bound):
    if bound < 1:
        return
    if f.case == 1:
        bmax = math.isqrt(bound // f.d)
        for b in range(-bmax, bmax + 1):
            rest = bound - f.d * b * b
            amax = math.isqrt(rest)
            for a in range(-amax, amax + 1):
                if a or b:
                    yield QuadInt(f, a, b)
    else:
        bmax = math.isqrt(4 * bound // f.d)
        for b in range(-bmax, bmax + 1):
            t = math.isqrt(4 * bound - f.d * b * b)
            for a in range((-b - t + 1) // 2 - 1, (t - b) // 2 + 2):
                if (a or b) and _old_norm(QuadInt(f, a, b)) <= bound:
                    yield QuadInt(f, a, b)


big = st.integers(-(10**12), 10**12)


@given(fields, big, big, big, big)
def test_ring_formulas_match_the_two_branch_oracles(f, a1, b1, a2, b2):
    x, y = QuadInt(f, a1, b1), QuadInt(f, a2, b2)
    assert (f.case, f.trace_omega, f.norm_omega, f.discriminant) == _old_constants(f)
    assert x * y == _old_mul(x, y)
    assert x.norm() == _old_norm(x)
    assert x.trace() == _old_trace(x)
    assert x.conj() == _old_conj(x)
    assert x.affix() == _old_affix(x)
    assert from_affix(f, a1, b1) == _old_from_affix(f, a1, b1)


@given(fields, st.integers(-1, 3000))
@example(field(1), 3000)
@example(field(163), -1)
def test_enumerate_norm_le_matches_the_two_branch_oracle(f, bound):
    assert list(enumerate_norm_le(f, bound)) == list(_old_enumerate_norm_le(f, bound))


def test_enumerate_norm_le_matches_the_two_branch_oracle_at_small_bounds():
    for d in HEEGNER_DS:
        f = field(d)
        for bound in range(-1, 121):
            assert list(enumerate_norm_le(f, bound)) == list(_old_enumerate_norm_le(f, bound)), (d, bound)


def _cmul(p, q, d):
    # (x1 + y1*sqrt(d)i)(x2 + y2*sqrt(d)i) on rational plane points
    return PlanePoint(p.x * q.x - d * p.y * q.y, p.x * q.y + p.y * q.x)


@given(quadints())
def test_embedding_is_exact(x):
    # plane() encodes a + b*omega as (x, y) meaning x + y*sqrt(d)*i
    p = x.plane()
    d = x.field.d
    assert _cmul(p, p, d) == (x * x).plane()
    assert p.x * p.x + d * p.y * p.y == x.norm()


def _old_plane(x):
    # the plane point as written out per case before affix() held the map
    if x.field.case == 1:
        return PlanePoint(Fraction(x.a), Fraction(x.b))
    return PlanePoint(Fraction(2 * x.a + x.b, 2), Fraction(x.b, 2))


@given(quadints(), coords, coords, st.integers(1, 6))
def test_affix_round_trip(x, u, v, s):
    f, c = x.field, x.field.case
    ax, ay = x.affix()
    old = _old_plane(x)
    assert x.plane() == old == PlanePoint(Fraction(ax, c), Fraction(ay, c))
    assert QuadRat.make(x, s).plane() == PlanePoint(old.x / s, old.y / s)
    assert from_affix(f, ax, ay) == x * c
    # from_affix inverts the map on every integer point over every scale
    assert QuadRat.make(from_affix(f, u, v), s).plane() == PlanePoint(Fraction(u, s), Fraction(v, s))
    assert from_affix(f, u, v).affix() == (c * u, c * v)


def _old_units(f):
    # the hand-written unit tables the generator powers replaced
    one = QuadInt(f, 1, 0)
    if f.d == 1:
        i = QuadInt(f, 0, 1)
        return (one, i, -one, -i)
    if f.d == 3:
        w = QuadInt(f, 0, 1)
        return (one, w, w - one, -one, -w, one - w)
    return (one, -one)


@pytest.mark.parametrize("d", HEEGNER_DS)
def test_units_match_the_hand_written_tables(d):
    f = Field(d)  # a fresh instance, so nothing is cached yet
    assert f.units == _old_units(f)
    assert f.sigma == {1: 4, 3: 6}.get(d, 2) == len(set(f.units))
    assert all(u.is_unit() for u in f.units)


@given(quadints())
def test_sector_selects_one_associate(x):
    if x.is_zero():
        return
    hits = [u for u in x.field.units if (x * u).in_sector()]
    assert len(hits) == 1
    rep = canonical_unit_rep(x)
    assert rep == x * hits[0]
    assert rep.in_sector()
    assert canonical_unit_rep(rep) == rep
    assert rep.norm() == x.norm()


# ------------------------------------------------------------------------- gcd


def _euclid_gcd(x: QuadInt, y: QuadInt) -> QuadInt:
    """Independent oracle: norm-Euclidean descent for d in {1,2,3,7,11}.

    The quotient is a nearest lattice point to x/y; trying the four corners
    of the coordinate cell suffices, and each step is self-checking since
    the remainder norm must strictly drop.
    """
    while not y.is_zero():
        f = y.field
        w = x * y.conj()
        n = y.norm()
        qa, qb = Fraction(w.a, n), Fraction(w.b, n)
        best = None
        for ca in {qa.__floor__(), qa.__ceil__()}:
            for cb in {qb.__floor__(), qb.__ceil__()}:
                r = x - QuadInt(f, ca, cb) * y
                if best is None or r.norm() < best.norm():
                    best = r
        assert best.norm() < y.norm(), "Euclidean step failed to reduce"
        x, y = y, best
    return canonical_unit_rep(x)


@st.composite
def euclidean_pairs(draw):
    f = field(draw(st.sampled_from(EUCLIDEAN_DS)))
    x = QuadInt(f, draw(coords), draw(coords))
    y = QuadInt(f, draw(coords), draw(coords))
    return x, y


@given(euclidean_pairs())
def test_gcd_matches_euclidean_oracle(xy):
    x, y = xy
    if x.is_zero() and y.is_zero():
        return
    g, _, _ = gcd(x, y)
    assert g == _euclid_gcd(x, y)


@given(quadint_pairs())
@settings(max_examples=200)
def test_gcd_bezout_and_divisibility(xy):
    x, y = xy
    if x.is_zero() and y.is_zero():
        return
    g, s, t = gcd(x, y)
    assert x * s + y * t == g
    assert divides(g, x) and divides(g, y)
    assert g == canonical_unit_rep(g)


def test_gcd_is_a_greatest_common_divisor_small():
    # brute-force maximality check on small inputs: every common divisor
    # divides g (class number 1 makes the gcd an honest single element)
    for d in HEEGNER_DS:
        f = field(d)
        x, y = QuadInt(f, 4, 2), QuadInt(f, 6, 0)
        g, _, _ = gcd(x, y)
        for w in enumerate_norm_le(f, min(x.norm(), y.norm())):
            if divides(w, x) and divides(w, y):
                assert divides(w, g), (d, w)


# --------------------------------------------------------------------- QuadRat


@given(quadint_pairs(), st.integers(1, 40))
def test_quadrat_canonical_form(xy, den):
    x, _ = xy
    q = QuadRat.make(x, den)
    assert q.den > 0
    assert math.gcd(q.num.a, q.num.b, q.den) == 1
    assert q.is_integral() == (q.den == 1)


@given(quadint_pairs(), st.integers(1, 12))
def test_quadrat_field_operations(xy, den):
    x, y = xy
    f = x.field
    q = QuadRat.make(x, den)
    if not q.is_zero():
        assert q * q.inverse() == QuadRat.from_int(f, 1)
        assert q.pow(-2) == (q * q).inverse()
    r = QuadRat.make(y, den)
    assert q + (-q) == QuadRat.from_int(f, 0)
    assert (q + r) - r == q
    if not r.is_zero():
        assert (q / r) * r == q
    assert q.pow(3) == q * q * q
