"""Polygon semiring laws, generator decompositions, and the membership dichotomy."""

import dataclasses
import math
import random
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property, cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropigon import (
    EMPTY,
    PROPER,
    ZERO,
    HEEGNER_DS,
    QuadInt,
    QuadRat,
    SymPolygon,
    aut_orbit_equiv,
    dk,
    field,
    global_sections_check,
    hull_union,
    membership_in_generated,
    minkowski_sum,
    reconstruct_lemma_polygon,
    scale_act,
    sector_decompose,
    stalk_scale,
)
from tropigon import envelope, polygeom, quadfield, wire
from tropigon.envelope import Envelope, phi, tmax, tplus
from tropigon.errors import NotProper, WrongField, ZeroInput
from tropigon.polygeom import (
    GeneratorDecomposition,
    MAX_MEMBERSHIP_NORM,
    _mul_affix,
    _orbit_expand,
    chain_sum,
    covers,
    lowest_terms,
    over_lcm,
    to_grid,
)
from tropigon.quadfield import PlanePoint, enumerate_norm_le, gcd
from tropigon.selftest import random_polygon

fields = st.sampled_from([field(d) for d in HEEGNER_DS])
small = st.integers(-4, 4)


@st.composite
def polygons(draw, f=None, allow_degenerate=True):
    ff = f if f is not None else draw(fields)
    if allow_degenerate:
        kind = draw(st.integers(0, 9))
        if kind == 0:
            return SymPolygon.empty(ff)
        if kind == 1:
            return SymPolygon.zero(ff)
    pts = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(small), draw(small)
        if a or b:
            pts.append(QuadInt(ff, a, b).plane())
    if not pts:
        pts = [ff.one.plane()]
    try:
        return SymPolygon.from_points(ff, pts)
    except NotProper:
        # sigma=2 orbits of collinear points; widen to a genuine quadrilateral
        return SymPolygon.from_points(ff, pts + [ff.one.plane(), ff.omega.plane()])


@st.composite
def polygon_triples(draw):
    f = draw(fields)
    return draw(polygons(f)), draw(polygons(f)), draw(polygons(f))


# ---------------------------------------------------------- independent oracle


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_oracle(points):
    """Jarvis gift-wrapping over exact rationals; independent of the library's
    monotone-chain construction."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    start = min(pts)
    hull = [start]
    while True:
        cur = hull[-1]
        cand = pts[0] if pts[0] != cur else pts[1]
        for p in pts:
            if p == cur:
                continue
            c = _cross(cur, cand, p)
            if c < 0 or (
                c == 0
                and (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2
                > (cand[0] - cur[0]) ** 2 + (cand[1] - cur[1]) ** 2
            ):
                cand = p
        if cand == start:
            return hull
        hull.append(cand)


@given(polygons(allow_degenerate=False))
@settings(max_examples=150)
def test_orbit_hull_matches_gift_wrapping(p):
    got = {(pt.x, pt.y) for pt in p.orbit_points()}
    want = set(_hull_oracle([(pt.x, pt.y) for pt in p.orbit_points()]))
    # orbit_points lists exactly the hull vertices, so wrapping them again
    # must be a no-op
    assert got == want


def test_hull_union_of_nested_squares_collapses():
    # (1+i)*D_K is the axis square with corners (±1,±1); D_K sits inside it,
    # its vertices landing on the edge midpoints
    f = field(1)
    a = dk(f)
    b = scale_act(QuadRat.make(QuadInt(f, 1, 1), 1), a)
    assert hull_union(a, b) == b


def test_hull_union_octagon_matches_oracle():
    f = field(1)
    a = scale_act(QuadRat.from_int(f, 2), dk(f))
    b = SymPolygon.from_points(f, [QuadInt(f, 2, 1).plane()])
    got = hull_union(a, b)
    pts = [(pt.x, pt.y) for pt in a.orbit_points()] + [
        (pt.x, pt.y) for pt in b.orbit_points()
    ]
    want = _hull_oracle(pts)
    assert {(pt.x, pt.y) for pt in got.orbit_points()} == set(want)
    assert len(got.orbit_points()) == len(want) == 8


# ----------------------------------------------------------------- frozen facts


def test_dk_sector_vertices():
    assert [(v.x, v.y) for v in dk(field(1)).sector] == [(1, 0)]
    assert [(v.x, v.y) for v in dk(field(2)).sector] == [(1, 0), (0, 1)]
    assert [(v.x, v.y) for v in dk(field(7)).sector] == [
        (1, 0),
        (Fraction(1, 2), Fraction(1, 2)),
    ]


def test_degenerate_values_and_laws():
    for d in HEEGNER_DS:
        f = field(d)
        base = dk(f)
        empty, zero = SymPolygon.empty(f), SymPolygon.zero(f)
        assert empty.sector == empty.sector_elements == zero.sector == zero.sector_elements == ()
        assert hull_union(base, empty) == base
        assert minkowski_sum(base, zero) == base
        assert minkowski_sum(base, empty) == empty
        two = minkowski_sum(base, base)
        assert two == scale_act(QuadRat.from_int(f, 2), base)
        assert hull_union(base, two) == two


def test_unit_action_is_trivial():
    f = field(1)
    p = SymPolygon.from_points(f, [QuadInt(f, 2, 1).plane()])
    i_unit = QuadRat.make(QuadInt(f, 0, 1), 1)
    assert scale_act(i_unit, p) == p
    assert scale_act(QuadRat.from_int(f, 0), dk(f)) == SymPolygon.zero(f)
    rotated = scale_act(QuadRat.make(QuadInt(f, 1, 1), 1), dk(f))
    assert [(v.x, v.y) for v in rotated.sector] == [(1, 1)]


@given(polygon_triples())
@settings(max_examples=250)
def test_semiring_axioms(abc):
    a, b, c = abc
    assert hull_union(a, b) == hull_union(b, a)
    assert hull_union(hull_union(a, b), c) == hull_union(a, hull_union(b, c))
    assert hull_union(a, a) == a
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))
    assert minkowski_sum(a, hull_union(b, c)) == hull_union(
        minkowski_sum(a, b), minkowski_sum(a, c)
    )


@given(polygons())
@settings(max_examples=100)
def test_convex_doubling(p):
    # A + A = 2A for convex symmetric bodies
    f = p.field
    assert minkowski_sum(p, p) == scale_act(QuadRat.from_int(f, 2), p)


@given(polygons(), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
@settings(max_examples=100)
def test_scale_action_is_multiplicative(p, a, b, den):
    f = p.field
    num = QuadInt(f, a, b)
    if num.is_zero():
        return
    k = QuadRat.make(num, den)
    q = scale_act(k, p)
    assert scale_act(k.inverse(), q) == p
    assert q.tag == p.tag


# ------------------------------------------------------------------- dichotomy


def test_integral_polygons_generate_for_d_1_and_3():
    for d in (1, 3):
        f = field(d)
        for coords in [(2, 1), (3, 0), (1, 2), (4, 1)]:
            p = SymPolygon.from_points(f, [QuadInt(f, *coords).plane()])
            ok, dec = membership_in_generated(p)
            assert ok and dec.replay(f) == p


def test_omega_spanning_hulls_rejected_for_higher_d():
    f2 = field(2)
    p = SymPolygon.from_points(f2, [QuadInt(f2, 3, 0).plane(), f2.omega.plane()])
    ok, dec = membership_in_generated(p)
    assert not ok and dec is None
    for d in (7, 11, 19, 43, 67, 163):
        f = field(d)
        p = SymPolygon.from_points(f, [QuadInt(f, 2, 0).plane(), f.omega.plane()])
        ok, dec = membership_in_generated(p)
        assert not ok and dec is None


def test_positive_bfs_witness_replays():
    # sigma=2 fields still accept genuinely generated polygons, with replay
    for d in (2, 7, 11):
        f = field(d)
        base = dk(f)
        built = hull_union(
            minkowski_sum(base, base),
            scale_act(QuadRat.make(f.omega, 1), base),
        )
        ok, dec = membership_in_generated(built)
        assert ok
        assert dec.replay(f) == built


def test_membership_scales_with_the_ideal():
    f = field(1)
    p = SymPolygon.from_points(f, [QuadInt(f, 2, 1).plane()])
    k = QuadRat.make(QuadInt(f, 1, 1), 3)
    ok_plain, _ = membership_in_generated(p)
    ok_scaled, dec = membership_in_generated(scale_act(k, p), [k])
    assert ok_plain == ok_scaled
    assert dec.replay(f) == scale_act(k, p)


def test_fractional_vertices_rejected():
    f = field(1)
    p = SymPolygon.from_points(f, [PlanePoint(Fraction(1, 2), Fraction(1, 2))])
    ok, dec = membership_in_generated(p)
    assert not ok and dec is None


# --------------------------------------------------- decomposition and sections


def test_sector_decompose_values():
    f1, f3 = field(1), field(3)
    assert sector_decompose(dk(f1)) == [QuadInt(f1, 1, 0)]
    assert sector_decompose(dk(f3)) == [QuadInt(f3, 1, 0)]
    # 1+i sits on the edge of the ±2 diamond, so it is not a summit and the
    # sector decomposition is the single orbit of 2
    p = SymPolygon.from_points(
        f1, [QuadInt(f1, 2, 0).plane(), QuadInt(f1, 0, 2).plane(), QuadInt(f1, 1, 1).plane()]
    )
    assert sector_decompose(p) == [QuadInt(f1, 2, 0)]
    assert reconstruct_lemma_polygon(p) == p
    # a genuine two-orbit octagon
    q = hull_union(p, SymPolygon.from_points(f1, [QuadInt(f1, 2, 1).plane()]))
    assert sector_decompose(q) == [QuadInt(f1, 2, 0), QuadInt(f1, 2, 1)]
    assert reconstruct_lemma_polygon(q) == q
    with pytest.raises(WrongField):
        sector_decompose(dk(field(2)))


def test_global_sections_are_only_degenerate():
    for d in HEEGNER_DS:
        f = field(d)
        assert global_sections_check(SymPolygon.empty(f))
        assert global_sections_check(SymPolygon.zero(f))
        assert not global_sections_check(dk(f))


def test_aut_orbit_equiv():
    f1, f2 = field(1), field(2)
    i = QuadRat.make(QuadInt(f1, 0, 1), 1)
    one1 = QuadRat.from_int(f1, 1)
    assert aut_orbit_equiv(i, one1)
    assert not aut_orbit_equiv(QuadRat.make(f2.omega, 1), QuadRat.from_int(f2, 1))
    mu = QuadRat.make(QuadInt(f2, 3, -2), 5)
    assert aut_orbit_equiv(mu, mu)
    with pytest.raises(ZeroInput):
        aut_orbit_equiv(one1, QuadRat.from_int(f1, 0))


def test_stalk_scale_facts():
    f = field(1)
    one = QuadRat.from_int(f, 1)
    p = SymPolygon.from_points(f, [QuadInt(f, 2, 1).plane()])
    assert stalk_scale(one, p).polygon == p
    k = one / QuadInt(f, 1, 1)
    big = scale_act(QuadRat.make(QuadInt(f, 1, 1), 1), dk(f))
    element = stalk_scale(k, big)
    assert element.polygon == dk(f)
    ok, dec = element.member()
    assert ok and dec.replay(f) == dk(f)
    assert stalk_scale(k, SymPolygon.empty(f)).polygon == SymPolygon.empty(f)
    with pytest.raises(ZeroInput):
        stalk_scale(QuadRat.from_int(f, 0), p)


def test_single_point_orbits_need_area():
    f = field(2)
    with pytest.raises(NotProper):
        SymPolygon.from_points(f, [f.one.plane()])


# ------------------------------------------------------------- stored form


@st.composite
def rational_polygons(draw, f=None):
    # proper polygons with rational vertices, so the stored scale exceeds 1
    ff = f if f is not None else draw(fields)
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    pts = [PlanePoint(draw(coord), draw(coord)) for _ in range(draw(st.integers(1, 3)))]
    pts = [p for p in pts if (p.x, p.y) != (0, 0)] + [ff.one.plane(), ff.omega.plane()]
    return SymPolygon.from_points(ff, pts)


@st.composite
def scalars(draw, f):
    num = QuadInt(f, draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
    return QuadRat.make(num, draw(st.integers(1, 5)))


def _same_stored_form(p, q):
    assert p.scale == q.scale and p.hull == q.hull
    assert p == q and hash(p) == hash(q)


@given(rational_polygons(), st.integers(2, 9))
def test_hull_drops_the_denominators_of_inner_points(p, k):
    # v/k lies inside for every vertex v, so it adds a denominator but no vertex
    inner = [PlanePoint(v.x / k, v.y / k) for v in p.sector]
    _same_stored_form(p, SymPolygon.from_points(p.field, list(p.sector) + inner))


@given(rational_polygons())
def test_every_route_gives_one_stored_form(p):
    f = p.field
    _same_stored_form(p, SymPolygon.from_points(f, p.sector))
    _same_stored_form(p, SymPolygon.from_points(f, p.orbit_points()))
    # hull_union skips the orbit expansion, which doubles the grid for d = 3
    _same_stored_form(p, hull_union(p, p))
    half, two = QuadRat.make(f.one, 2), QuadRat.from_int(f, 2)
    _same_stored_form(p, scale_act(two, scale_act(half, p)))


def test_stored_form_of_d3_hexagons():
    f = field(3)
    base = dk(f)
    # the orbit of 1 holds (1/2, 1/2), so D_K keeps denominator 2
    assert base.scale == 2 and base.sector == (PlanePoint(Fraction(1), Fraction(0)),)
    two = SymPolygon.from_points(f, [QuadInt(f, 2, 0).plane()])
    assert two.scale == 1 and len(two.hull) == 6
    _same_stored_form(two, scale_act(QuadRat.from_int(f, 2), base))
    _same_stored_form(two, minkowski_sum(base, base))
    e, z = SymPolygon.empty(f), SymPolygon.zero(f)
    assert (e.scale, e.hull, e.sector, e.orbit_points()) == (1, (), (), [])
    origin = PlanePoint(Fraction(0), Fraction(0))
    assert (z.scale, z.hull, z.sector, z.orbit_points()) == (1, ((0, 0),), (), [origin])


# The whole-hull kernels as they were before each value built one monotone
# chain: Andrew's two passes over the sorted set, and the search of a CCW
# hull for the two ends of an envelope's arc.  They stay here verbatim, as
# oracles of the chain kernels and as the hull reduction of the other
# oracles in this file and in tests/test_envelope.py.


def _old_convex_hull(points):
    # Andrew monotone chain, CCW, strict turns only; may return < 3 points
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def _old_arc(hull, scale: int) -> Envelope:
    """The envelope of the lines (x/scale, y/scale) at the vertices of a CCW hull.

    Its lines are the vertices of the counter-clockwise hull arc from the
    point maximizing (a, b) lexicographically to the one maximizing (b, a):
    the arc's outward normals are the directions (1 - t, t), and its slopes
    b - a increase along it.  The hull keeps strict turns only, so a line
    that meets the envelope in a single point is dropped.  An empty hull is
    BOTTOM.
    """
    if not hull:
        return Envelope.bottom()
    i = hull.index(max(hull))
    j = hull.index(max(hull, key=lambda p: (p[1], p[0])))
    arc = hull[i : j + 1] if i <= j else hull[i:] + hull[: j + 1]
    return Envelope(*lowest_terms(scale, arc))


# The kernels below are the Fraction implementations the stored hull
# replaced; they stay here as differential oracles.


def _old_grid(p):
    scale = 1
    for v in p.sector:
        scale = math.lcm(scale, v.x.denominator, v.y.denominator)
    sector = [(int(v.x * scale), int(v.y * scale)) for v in p.sector]
    orbit, scale = _orbit_expand(p.field, sector, scale)
    return scale, _old_convex_hull(orbit)


def _old_contains(p, pt):
    if p.tag == EMPTY:
        return False
    if p.tag == ZERO:
        return (pt.x, pt.y) == (0, 0)
    scale, hull = _old_grid(p)
    px, py = pt.x * scale, pt.y * scale
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0:
            return False
    return True


def _old_contains_polygon(a, b):
    if b.tag == EMPTY:
        return True
    if b.tag == ZERO:
        return _old_contains(a, PlanePoint(Fraction(0), Fraction(0)))
    scale, hull = _old_grid(b)
    return all(_old_contains(a, PlanePoint(Fraction(x, scale), Fraction(y, scale))) for x, y in hull)


def _old_hull_union(a, b):
    if a.tag == EMPTY:
        return b
    if b.tag == EMPTY:
        return a
    if a.tag == ZERO:
        return b
    if b.tag == ZERO:
        return a
    return SymPolygon.from_points(a.field, list(a.sector) + list(b.sector))


def _cmul(p, q, d):
    # (x1 + y1*sqrt(d)i)(x2 + y2*sqrt(d)i) on rational plane points
    return PlanePoint(p.x * q.x - d * p.y * q.y, p.x * q.y + p.y * q.x)


def _old_scale_act(mu, a):
    if a.tag == EMPTY:
        return a
    if mu.is_zero() or a.tag == ZERO:
        return SymPolygon.zero(a.field)
    mp = mu.plane()
    return SymPolygon.from_points(a.field, [_cmul(p, mp, a.field.d) for p in a.sector])


def _contains_point(a, pt):
    # the point test of the removed SymPolygon.contains, on the kernel contains_polygon uses
    if a.tag != PROPER:
        return a.tag == ZERO and (pt.x, pt.y) == (0, 0)
    return covers(a.hull + a.hull[:1], a.scale, *to_grid([(pt.x, pt.y)]))


@st.composite
def mixed_pairs(draw):
    f = draw(fields)
    pick = st.one_of(polygons(f), rational_polygons(f))
    return draw(pick), draw(pick)


@given(mixed_pairs(), st.fractions(-4, 4, max_denominator=6), st.fractions(-4, 4, max_denominator=6))
def test_contains_matches_the_fraction_kernel(ab, x, y):
    a, b = ab
    assert a.contains_polygon(b) == _old_contains_polygon(a, b)
    assert b.contains_polygon(a) == _old_contains_polygon(b, a)
    for pt in [PlanePoint(x, y), *b.orbit_points()]:
        assert _contains_point(a, pt) == _old_contains(a, pt)


@given(mixed_pairs())
def test_hull_union_matches_the_fraction_kernel(ab):
    a, b = ab
    _same_stored_form(hull_union(a, b), _old_hull_union(a, b))


@given(st.data())
def test_scale_act_matches_the_fraction_kernel(data):
    f = data.draw(fields)
    a = data.draw(st.one_of(polygons(f), rational_polygons(f)))
    mu = data.draw(scalars(f))
    _same_stored_form(scale_act(mu, a), _old_scale_act(mu, a))


# The sector as it was read before the hull run: filter the hull by a grid
# predicate, sort by argument, and map each plane point back into K.


def _old_sector(p):
    f, s = p.field, p.scale

    def in_sector(x, y):
        if f.sigma == 4:
            return x > 0 and y >= 0
        if f.sigma == 6:
            return x > 0 and 0 <= y < x
        return y > 0 or (y == 0 and x > 0)

    def cmp(u, v):
        # all arguments lie in a half-open half-plane, so one cross product orders them
        c = u[0] * v[1] - u[1] * v[0]
        return -1 if c > 0 else (1 if c < 0 else 0)

    pts = sorted([q for q in p.hull if in_sector(*q)], key=cmp_to_key(cmp))
    return [PlanePoint(Fraction(x, s), Fraction(y, s)) for x, y in pts]


def _old_plane_to_quadrat(f, v):
    # case 1 gives (a, b) = (x, y); case 2 gives b = 2y, a = x - y
    ax, bx = (v.x, v.y) if f.case == 1 else (v.x - v.y, 2 * v.y)
    den = math.lcm(ax.denominator, bx.denominator)
    return QuadRat.make(QuadInt(f, int(ax * den), int(bx * den)), den)


@given(st.one_of(polygons(), rational_polygons()))
def test_sector_matches_the_sorted_oracle(p):
    want = _old_sector(p)
    assert list(p.sector) == want
    assert list(p.sector_elements) == [_old_plane_to_quadrat(p.field, v) for v in want]
    assert [q.plane() for q in p.sector_elements] == list(p.sector)


# The kernels as they were before EMPTY and ZERO became hulls like any other:
# each degenerate operand had a branch of its own.  They build their results
# with their own hull reduction and stay here as differential oracles.


def _stored(f, scale, hull):
    # the polygon of a whole symmetric CCW hull, which stores its first half
    # plus one; its hull view gives the whole hull back
    p = SymPolygon(f, scale, tuple(hull[: len(hull) // 2 + 1]))
    assert p.hull == tuple(hull)
    return p


def _branchy_from_orbit(f, orbit, scale):
    hull = _old_convex_hull(orbit)
    if not hull or all(p == (0, 0) for p in hull):
        return SymPolygon.zero(f)
    if len(hull) < 3:
        raise NotProper("orbit hull has empty interior")
    g = math.gcd(scale, *(c for p in hull for c in p))
    return _stored(f, scale // g, tuple((x // g, y // g) for x, y in hull))


def _branchy_hull_union(a, b):
    if a.tag == EMPTY:
        return b
    if b.tag == EMPTY:
        return a
    s = math.lcm(a.scale, b.scale)
    ma, mb = s // a.scale, s // b.scale
    pts = [(x * ma, y * ma) for x, y in a.hull] + [(x * mb, y * mb) for x, y in b.hull]
    return _branchy_from_orbit(a.field, pts, s)


def _branchy_minkowski_sum(a, b):
    if a.tag == EMPTY or b.tag == EMPTY:
        return SymPolygon.empty(a.field)
    if a.tag == ZERO:
        return b
    if b.tag == ZERO:
        return a
    s = math.lcm(a.scale, b.scale)
    ma, mb = s // a.scale, s // b.scale
    pts = {(x1 * ma + x2 * mb, y1 * ma + y2 * mb) for x1, y1 in a.hull for x2, y2 in b.hull}
    return _branchy_from_orbit(a.field, pts, s)


def _branchy_scale_act(mu, a):
    if a.tag == EMPTY:
        return a
    if mu.is_zero() or a.tag == ZERO:
        return SymPolygon.zero(a.field)
    f, n = a.field, mu.num
    if f.case == 1:
        u, v, w = n.a, n.b, mu.den
    else:
        u, v, w = 2 * n.a + n.b, n.b, 2 * mu.den
    pts = [(x * u - f.d * y * v, x * v + y * u) for x, y in a.hull]
    return _branchy_from_orbit(f, pts, a.scale * w)


def _round_polygon(f):
    # one edge along each primitive direction (a, b) with |a|, b <= 9 of the
    # upper half-plane, by increasing angle, then back along their negatives,
    # centred on the origin: 108 to 224 orbit vertices in the nine fields
    dirs = [(a, b) for a in range(-9, 10) for b in range(10) if math.gcd(a, b) == 1 and (b or a > 0)]
    dirs.sort(key=cmp_to_key(lambda u, v: u[1] * v[0] - u[0] * v[1]))
    x, y = -sum(a for a, _ in dirs), -sum(b for _, b in dirs)
    half = []
    for a, b in dirs:
        half.append((x, y))
        x, y = x + 2 * a, y + 2 * b
    return SymPolygon.from_grid(f, half, 1)


def _square(f, k):
    # the orbit of (k, k) and (k, -k): for sigma = 2 an axis-parallel square, so
    # a sum of two squares joins every pair of edges
    return SymPolygon.from_grid(f, [(k, k), (k, -k)], 1)


@st.composite
def chains(draw, f):
    """Accumulated Minkowski sums, like the benchmark's minkowski_chain: up to
    about 100 orbit vertices, summed by the oracle."""
    acc = draw(st.one_of(polygons(f, allow_degenerate=False), rational_polygons(f)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(rng.randint(1, 30)):
        if len(acc.hull) >= 100:
            break
        # a ring multiple turns the summand's edges, so the sum gains directions
        mu = QuadRat(QuadInt(f, rng.randint(-3, 3), rng.randint(-3, 3)), 1)
        acc = _branchy_minkowski_sum(acc, _branchy_scale_act(mu, random_polygon(rng, f, span=2, degenerate_rate=0)))
    return acc


def operands(f, chained=True):
    fixed = [SymPolygon.empty(f), SymPolygon.zero(f), dk(f), _square(f, 1), _square(f, 2)]
    # for d = 3 the orbit of (1, 0) holds (1/2, 1/2), so the grid stays doubled
    fixed += [SymPolygon.from_grid(f, [(1, 0), (0, 1)], 1), _round_polygon(f)]
    kinds = [st.sampled_from(fixed), polygons(f), rational_polygons(f)]
    return st.one_of(*kinds, chains(f)) if chained else st.one_of(*kinds)


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.data())
def test_kernels_match_the_branchy_oracles(d, data):
    f = field(d)
    a, b = data.draw(operands(f)), data.draw(operands(f))
    mu = data.draw(st.one_of(st.just(QuadRat.from_int(f, 0)), scalars(f)))
    _same_stored_form(hull_union(a, b), _branchy_hull_union(a, b))
    _same_stored_form(minkowski_sum(a, b), _branchy_minkowski_sum(a, b))
    _same_stored_form(scale_act(mu, a), _branchy_scale_act(mu, a))
    assert a.tag == (EMPTY if not a.hull else ZERO if a.hull == ((0, 0),) else PROPER)


# The chain kernels against the whole-hull kernels they replaced: the polygon
# kernels as they were, and the envelope kernels as _old_arc of a hull.


def _old_from_grid(f, grid, scale):
    orbit, scale = _orbit_expand(f, grid, scale)
    hull = _old_convex_hull(orbit)
    if len(hull) == 2:
        raise NotProper("orbit hull has empty interior")
    return _stored(f, *lowest_terms(scale, hull))


def _old_hull_union(a, b):
    p, q, s = over_lcm(a.hull, a.scale, b.hull, b.scale)
    hull = _old_convex_hull(p + q)
    if len(hull) == 2:
        raise NotProper("orbit hull has empty interior")
    return _stored(a.field, *lowest_terms(s, hull))


def _old_minkowski_sum(a, b):
    p, q, s = over_lcm(a.hull, a.scale, b.hull, b.scale)
    return _stored(a.field, *lowest_terms(s, chain_sum(p + p[:1], q + q[:1])[:-1]))


def _old_tmax(e, g):
    p, q, s = over_lcm(e.arc, e.scale, g.arc, g.scale)
    return _old_arc(_old_convex_hull(p + q), s)


@st.composite
def point_sets(draw):
    """1 to 20 integer points: a few free ones, then, each when drawn, a
    collinear run, a vertical column at the least or the greatest x, and
    repeats of points already drawn."""
    pts = draw(st.lists(st.tuples(small, small), min_size=1, max_size=5))
    if draw(st.booleans()):
        (x, y), (dx, dy) = draw(st.sampled_from(pts)), draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        pts += [(x + k * dx, y + k * dy) for k in range(1, draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        x = draw(st.sampled_from([min(pts)[0], max(pts)[0]]))
        pts += [(x, y) for y in draw(st.lists(small, min_size=1, max_size=4))]
    if draw(st.booleans()):
        pts += draw(st.lists(st.sampled_from(pts), min_size=1, max_size=4))
    return draw(st.permutations(pts))


def _form(kernel, *args):
    # the stored form of kernel(*args), or NotProper when it refuses; for a
    # polygon also its hull view, which `_stored` checked against the oracle's
    # whole hull
    try:
        out = kernel(*args)
    except NotProper:
        return NotProper
    return (out.scale, out.arc) if isinstance(out, Envelope) else (out.scale, out.lower, out.hull)


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.data())
def test_chain_kernels_match_the_whole_hull_kernels(d, data):
    # every stored form, or the NotProper refusal, against the kernels that
    # built whole hulls.  For d = 3 the orbit doubles the grid.  phi needs
    # d = 1, so it also runs on the Gaussian orbit hulls of the same points.
    f, gauss = field(d), field(1)
    grids = [(data.draw(point_sets()), data.draw(st.integers(1, 4))) for _ in range(2)]
    fixed = [SymPolygon.empty(f), SymPolygon.zero(f)]
    duals = [SymPolygon.empty(gauss), SymPolygon.zero(gauss)]
    envs = [Envelope.bottom(), Envelope.zero()]
    for grid, scale in grids:
        for h, kept in ((f, fixed), (gauss, duals)):
            out = _form(SymPolygon.from_grid, h, grid, scale)
            assert out == _form(_old_from_grid, h, grid, scale)
            if out is not NotProper:
                kept.append(SymPolygon.from_grid(h, grid, scale))
        assert _form(Envelope.from_grid, grid, scale) == _form(_old_arc, _old_convex_hull(grid), scale)
        envs.append(Envelope.from_grid(grid, scale))
    a = data.draw(st.one_of(st.sampled_from(fixed), operands(f)))
    b = data.draw(st.one_of(st.sampled_from(fixed), operands(f)))
    # ZERO and EMPTY with each other and themselves every time
    pairs = [(a, b), (b, a), (a, a)] + [(x, y) for x in fixed[:2] for y in fixed[:2]]
    for x, y in pairs:
        assert _form(hull_union, x, y) == _form(_old_hull_union, x, y)
        assert _form(minkowski_sum, x, y) == _form(_old_minkowski_sum, x, y)
        if d == 1:
            duals += [hull_union(x, y), minkowski_sum(x, y)]
    for p in duals:
        assert _form(phi, p) == _form(_old_arc, p.hull, p.scale)
    for x in envs:
        for y in envs:
            assert _form(tmax, x, y) == _form(_old_tmax, x, y)


def _old_covers(hull, s: int, pts, t: int) -> bool:
    # every point (x/t, y/t) lies in the CCW integer hull over denominator s:
    # cross(b - a, p - a) >= 0 for each edge a -> b, multiplied through by s*t
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        ex, ey = bx - ax, by - ay
        c = t * (ex * ay - ey * ax)
        for x, y in pts:
            if s * (ex * y - ey * x) < c:
                return False
    return True


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.data())
def test_covers_matches_the_closed_hull_kernel(d, data):
    # covers on the closed walk against the former kernel, which closed the
    # hull itself.  The point sets come over a k-fold, unreduced scale: the
    # other operand's hull, the walked hull's vertices nudged by at most one
    # grid step (on, just inside and just outside its edges), and free points.
    f = field(d)
    a, b = data.draw(operands(f, chained=False)), data.draw(operands(f, chained=False))
    k = data.draw(st.integers(1, 6))
    nudge = st.sampled_from([-1, 0, 0, 1])
    point_sets = [
        ([(x * k, y * k) for x, y in b.hull], b.scale * k),
        ([(x * k + data.draw(nudge), y * k + data.draw(nudge)) for x, y in a.hull], a.scale * k),
        (data.draw(st.lists(st.tuples(small, small), max_size=4)), data.draw(st.integers(1, 6))),
    ]
    for pts, t in point_sets:
        assert covers(a.hull + a.hull[:1], a.scale, pts, t) == _old_covers(a.hull, a.scale, pts, t)
    old = _old_covers(a.hull, a.scale, b.hull, b.scale) if a.tag == PROPER else b.tag in (EMPTY, a.tag)
    assert a.contains_polygon(b) == old


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.data())
def test_contains_on_nested_and_touching_pairs(d, data):
    # contains_polygon walks half of the hull; pairs that share vertices or
    # edges, or nest one step apart, against the Fraction kernel
    f = field(d)
    pick = st.one_of(polygons(f), rational_polygons(f), st.sampled_from([dk(f), _square(f, 1), _square(f, 2)]))
    a, b = data.draw(pick), data.draw(pick)
    k = data.draw(st.integers(1, 4))
    inner, outer = QuadRat.make(QuadInt(f, k, 0), k + 1), QuadRat.make(QuadInt(f, k + 1, 0), k)
    u, unit = hull_union(a, b), QuadRat(f.units[-1], 1)
    pairs = [(a, a), (u, a), (u, b), (minkowski_sum(a, b), a), (a, scale_act(unit, a))]
    pairs += [(a, scale_act(inner, a)), (a, scale_act(outer, a)), (u, scale_act(outer, b))]
    for x, y in pairs:
        assert x.contains_polygon(y) == _old_contains_polygon(x, y)
        assert y.contains_polygon(x) == _old_contains_polygon(y, x)


@pytest.mark.parametrize("d", HEEGNER_DS)
def test_parallel_edges_join(d):
    f = field(d)
    base, two = dk(f), QuadRat.from_int(f, 2)
    for a, b in ((base, base), (base, scale_act(two, base)), (_square(f, 1), _square(f, 2))):
        out = minkowski_sum(a, b)
        _same_stored_form(out, _branchy_minkowski_sum(a, b))
        # b is a multiple of a, so every edge of b is parallel to one of a
        assert len(out.hull) == len(a.hull)


@pytest.mark.parametrize("d", HEEGNER_DS)
def test_linear_kernels_build_no_hull(d, monkeypatch):
    # counts repeat exactly where wall time does not: minkowski_sum, tplus,
    # scale_act and phi on a chain of 100 or more orbit vertices make no
    # monotone_chain call, and hull_union, tmax and Envelope.from_grid one
    # each.  from_grid, hull_union, minkowski_sum, contains_polygon and phi
    # build no hull view; scale_act builds its operand's, once.
    views = []
    view = SymPolygon.__dict__["hull"].func

    def counted_view(p):
        views.append(p)
        return view(p)

    counted_hull = cached_property(counted_view)
    counted_hull.__set_name__(SymPolygon, "hull")
    monkeypatch.setattr(SymPolygon, "hull", counted_hull)
    f, rng = field(d), random.Random(d)
    a, b = _round_polygon(f), random_polygon(rng, f, degenerate_rate=0)
    gauss = _round_polygon(field(1))
    mu = QuadRat.make(QuadInt(f, 3, -2), 5)
    arc = Envelope.from_grid([(-(k * k), -((100 - k) ** 2)) for k in range(101)], 1)
    assert len(arc.arc) == 101
    calls = []
    chain = polygeom.monotone_chain

    def counted(points):
        calls.append(len(points))
        return chain(points)

    monkeypatch.setattr(polygeom, "monotone_chain", counted)
    monkeypatch.setattr(envelope, "monotone_chain", counted)
    summed, out, e = minkowski_sum(a, b), tplus(arc, arc), phi(gauss)
    # a + b contains b, since 0 lies in a
    assert summed.contains_polygon(b) and not b.contains_polygon(summed)
    assert calls == [] and views == []
    scaled = scale_act(mu, a)
    assert len(views) == 1 and views[0] is a
    zeroed = scale_act(QuadRat.from_int(f, 0), a)
    assert calls == [] and len(views) == 1
    # the kernels that build a chain build one, and hull_union builds it on
    # the two lower chains only
    hull_union(a, b)
    assert len(calls) == 1 and calls[0] <= len(a.lower) + len(b.lower) and len(views) == 1
    tmax(arc, arc)
    assert len(calls) == 2
    Envelope.from_grid(list(arc.arc), 1)
    assert len(calls) == 3
    assert len(a.hull) >= 100
    _same_stored_form(summed, _branchy_minkowski_sum(a, b))
    _same_stored_form(scaled, _branchy_scale_act(mu, a))
    _same_stored_form(zeroed, SymPolygon.zero(f))
    assert (out.scale, out.arc) == (1, tuple((2 * x, 2 * y) for x, y in arc.arc))
    old = _old_arc(gauss.hull, gauss.scale)
    assert (e.scale, e.arc) == (old.scale, old.arc)
    # the view is no field: a polygon whose view was read is its fresh copy
    assert [x.name for x in dataclasses.fields(SymPolygon)] == ["field", "scale", "lower"]
    fresh = SymPolygon(a.field, a.scale, a.lower)
    assert "hull" in vars(a) and "hull" not in vars(fresh)
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)


# The selftest generator as it was before it built from integer affixes: each
# element went through plane() and from_points.


def _old_random_polygon(rng, f, span=3, degenerate_rate=0.1):
    r = rng.random()
    if r < degenerate_rate / 2:
        return SymPolygon.empty(f)
    if r < degenerate_rate:
        return SymPolygon.zero(f)
    while True:
        pts = [
            QuadInt(f, rng.randint(-span, span), rng.randint(-span, span))
            for _ in range(rng.randint(1, 3))
        ]
        plane = [p.plane() for p in pts if not p.is_zero()]
        if not plane:
            continue
        try:
            return SymPolygon.from_points(f, plane)
        except NotProper:
            continue


@given(fields, st.integers(0, 2**64), st.integers(1, 4), st.sampled_from([0.0, 0.1, 0.25]))
def test_random_polygon_matches_the_plane_generator(f, seed, span, rate):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(3):
        _same_stored_form(random_polygon(new, f, span, rate), _old_random_polygon(old, f, span, rate))
    assert new.getstate() == old.getstate()


@given(fields, st.lists(st.tuples(small, small), max_size=3))
def test_affix_grid_matches_the_plane_route(f, coords):
    # dk, random_polygon and the selftest counterexamples build from affixes over field.case
    qs = [QuadInt(f, a, b) for a, b in coords] + [f.one, f.omega]
    want = SymPolygon.from_points(f, [q.plane() for q in qs])
    _same_stored_form(SymPolygon.from_grid(f, [q.affix() for q in qs], f.case), want)
    _same_stored_form(dk(f), SymPolygon.from_points(f, [f.one.plane(), f.omega.plane()]))


# ---------------------------------------------------- membership on polygons
# The breadth-first search as it was before it ran on integer support vectors:
# every node is a SymPolygon, built by minkowski_sum and tested by
# contains_polygon, and the answer is the hull of everything it reached.


def _old_membership(p, gens=None):
    f = p.field
    if gens is None:
        gens = [QuadRat.from_int(f, 1)]
    if p.tag == EMPTY:
        return True, GeneratorDecomposition(())
    nonzero = [h for h in gens if not h.is_zero()]
    zero_rat = QuadRat.from_int(f, 0)
    if p.tag == ZERO:
        return True, GeneratorDecomposition(((zero_rat,),))
    if not nonzero:
        return False, None

    den = math.lcm(*[h.den for h in nonzero])
    g0 = nonzero[0].num * (den // nonzero[0].den)
    for h in nonzero[1:]:
        g0, _, _ = gcd(g0, h.num * (den // h.den))
    g = QuadRat.make(g0, den)

    scaled = scale_act(g.inverse(), p)
    if any(q.den != 1 for q in scaled.sector_elements):
        return False, None
    sector_ints = [q.num for q in scaled.sector_elements]

    base = dk(f)
    covered = SymPolygon.empty(f)
    for s in sector_ints:
        covered = hull_union(covered, scale_act(QuadRat(s, 1), base))
    if covered == scaled:
        return True, GeneratorDecomposition(tuple((g * s,) for s in sector_ints))
    if f.d in (1, 3):
        return False, None

    bound = max(s.norm() for s in sector_ints)
    cand = []
    for m in enumerate_norm_le(f, bound):
        if not m.in_sector():
            continue
        q = scale_act(QuadRat(m, 1), base)
        if scaled.contains_polygon(q):
            cand.append((m, q))

    seen = {}
    queue = deque()
    for m, q in cand:
        if q not in seen:
            seen[q] = (m,)
            queue.append(q)
    while queue:
        cur = queue.popleft()
        ms = seen[cur]
        for m, q in cand:
            nxt = minkowski_sum(cur, q)
            if nxt in seen or not scaled.contains_polygon(nxt):
                continue
            seen[nxt] = tuple(sorted(ms + (m,), key=lambda x: (x.a, x.b)))
            queue.append(nxt)

    union = SymPolygon.empty(f)
    for q in seen:
        union = hull_union(union, q)
    if union != scaled:
        return False, None
    return True, GeneratorDecomposition(tuple(tuple(g * m for m in ms) for ms in seen.values()))


BFS_DS = (2, 7, 11, 19, 43, 67, 163)
span3 = st.integers(-3, 3)


def _same_membership(p, gens=None):
    ok, dec = membership_in_generated(p, gens)
    old_ok, old_dec = _old_membership(p, gens)
    assert ok is old_ok
    assert wire.dumps(wire.decomposition_to_json(dec)) == wire.dumps(wire.decomposition_to_json(old_dec))
    if ok:
        assert dec.replay(p.field) == p
    return ok, dec


@st.composite
def bfs_requests(draw, ds=BFS_DS):
    # a polygon over a field of ds (by default those where membership runs
    # the search), with a norm bound under MAX_MEMBERSHIP_NORM, and maybe a
    # generator that the polygon is scaled by
    if draw(st.booleans()):
        # at most 387, for 3 + 3*omega and d = 163
        f = field(draw(st.sampled_from(ds)))
        coords = draw(st.lists(st.tuples(span3, span3).filter(any), min_size=1, max_size=3))
        grid = [QuadInt(f, a, b).affix() for a, b in coords]
        try:
            p = SymPolygon.from_grid(f, grid, f.case)
        except NotProper:
            p = SymPolygon.from_grid(f, grid + [f.one.affix(), f.omega.affix()], f.case)
    else:
        # the hull of sums of small generators, a member by construction; at
        # most 315 for d <= 19, from 3*(1 + omega)*omega
        f = field(draw(st.sampled_from(ds[:4])))
        unit = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(any)
        p = SymPolygon.empty(f)
        for ms in draw(st.lists(st.lists(unit, min_size=1, max_size=3), min_size=1, max_size=3)):
            term = SymPolygon.zero(f)
            for a, b in ms:
                term = minkowski_sum(term, scale_act(QuadRat(QuadInt(f, a, b), 1), dk(f)))
            p = hull_union(p, term)
    if not draw(st.booleans()):
        return p, None
    num = QuadInt(f, *draw(st.tuples(span3, span3).filter(any)))
    k = QuadRat.make(num, draw(st.integers(1, 3)))
    return scale_act(k, p), [k]


@given(bfs_requests())
def test_membership_matches_the_polygon_search(request):
    _same_membership(*request)


@given(bfs_requests((1, 3)))
def test_sector_membership_matches_the_polygon_search(request):
    # d in {1, 3} answers from the sector cover alone
    _same_membership(*request)


def _family(d, n):
    f = field(d)
    side = hull_union(dk(f), scale_act(QuadRat(f.one + f.omega, 1), dk(f)))
    return minkowski_sum(scale_act(QuadRat.from_int(f, n), dk(f)), side)


@pytest.mark.parametrize("d", [2, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_growth_family_matches_the_polygon_search(d, n):
    ok, dec = _same_membership(_family(d, n))
    assert ok and len(dec.summand_sets) > n


@pytest.mark.parametrize("d", BFS_DS)
def test_counterexamples_match_the_polygon_search(d):
    f = field(d)
    long_vertex = QuadInt(f, 3 if d == 2 else 2, 0)
    ok, _ = _same_membership(SymPolygon.from_grid(f, [long_vertex.affix(), f.omega.affix()], f.case))
    assert not ok


def _old_sector_cover(f, ints):
    # the sector cover as it was: k hull_unions of k scale_acts of D_K
    acc = SymPolygon.empty(f)
    for s in ints:
        acc = hull_union(acc, scale_act(QuadRat(s, 1), dk(f)))
    return acc


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.lists(st.tuples(span3, span3).filter(any), min_size=1, max_size=4))
def test_sector_cover_matches_the_union_of_scaled_bases(d, coords):
    f = field(d)
    ints = [QuadInt(f, a, b) for a, b in coords]
    _same_stored_form(polygeom._sector_cover(f, ints), _old_sector_cover(f, ints))
    _same_stored_form(polygeom._sector_cover(f, ints[:1]), _old_sector_cover(f, ints[:1]))
    # for d = 3 the orbit of 1 holds (1/2, 1/2), so this cover keeps scale 2
    _same_stored_form(polygeom._sector_cover(f, [f.one]), dk(f))
    if d in (1, 3):
        # every sector vertex of an integral orbit hull is a ring element
        p = SymPolygon.from_grid(f, [q.affix() for q in ints], f.case)
        _same_stored_form(reconstruct_lemma_polygon(p), _old_sector_cover(f, sector_decompose(p)))
        _same_stored_form(reconstruct_lemma_polygon(p), p)


def test_membership_builds_no_polygon_per_candidate(monkeypatch):
    # counts repeat exactly where wall time does not.  The search maps D_K's
    # hull by each candidate m, so one call makes one scale_act (the target
    # over g), one monotone_chain (the sector cover) and their two lowest_terms,
    # however many candidates it tests.  It reads the candidates off lattice
    # rows, with no norm enumeration and no half-plane test per candidate.
    p = _family(7, 4)
    dk(p.field)  # cached before counting
    calls = Counter()

    def count(name, inner):
        def counted(*args):
            calls[name] += 1
            return inner(*args)

        # raising=False: a name polygeom does not bind is bound to the counter
        monkeypatch.setattr(polygeom, name, counted, raising=False)

    for name in ("scale_act", "lowest_terms", "monotone_chain", "covers"):
        count(name, getattr(polygeom, name))
    count("enumerate_norm_le", quadfield.enumerate_norm_le)
    ok, dec = membership_in_generated(p)
    assert ok and len(dec.summand_sets) > 4
    assert calls == {"scale_act": 1, "lowest_terms": 2, "monotone_chain": 1}


# The candidate filter as it was before the lattice rows: every element of
# norm <= bound, kept when it lies in the sector and m*D_K passes covers.


def _old_candidates(scaled, bound):
    f = scaled.field
    base = dk(f)
    bscale = base.scale * f.case
    walk = scaled.hull + scaled.hull[:1]
    out = []
    for m in enumerate_norm_le(f, bound):
        if not m.in_sector():
            continue
        pts = _mul_affix(f, base.hull, *m.affix())
        if covers(walk, scaled.scale, pts, bscale):
            out.append((m, pts))
    return out


def _same_candidates(p, gens=None):
    # the target over g as membership_in_generated forms it, for a single generator
    g = gens[0] if gens else QuadRat.from_int(p.field, 1)
    scaled = scale_act(g.inverse(), p)
    if scaled.tag != PROPER or any(q.den != 1 for q in scaled.sector_elements):
        return None
    bound = max(q.num.norm() for q in scaled.sector_elements)
    assert bound <= MAX_MEMBERSHIP_NORM
    walls = polygeom._half_normals(scaled.lower)
    # each candidate comes with D_K's lower chain mapped: the first half plus
    # one of its mapped hull
    old = [(m, pts[: len(pts) // 2 + 1]) for m, pts in _old_candidates(scaled, bound)]
    assert polygeom._candidates(scaled, walls, bound) == old
    return scaled, walls


@given(bfs_requests())
def test_lattice_row_candidates_match_the_norm_enumeration(request):
    _same_candidates(*request)


@pytest.mark.parametrize("d", BFS_DS)
def test_lattice_row_candidates_at_the_edges(d):
    f = field(d)
    half = dk(f).hull[: len(dk(f).hull) // 2]
    scales = set()
    for k in range(1, 12):
        # a horizontal wall is orthogonal to D_K's vertex on the real axis,
        # so its a-coefficient is 0; over scale > 1 through a generator
        sq = _square(f, k)
        if max(q.num.norm() for q in sq.sector_elements) > MAX_MEMBERSHIP_NORM:
            break
        for gen in (None, [QuadRat.make(f.one + f.omega, 2)], [QuadRat.make(QuadInt(f, 1, -1), 3)]):
            p = sq if gen is None else scale_act(gen[0], sq)
            scales.add(p.scale)
            _, walls = _same_candidates(p, gen)
            assert any(nx * qx + ny * qy == 0 for nx, ny in walls for qx, qy in half)
    assert max(scales) > 2
    for n in (2, 3, 4, 5) if d in (2, 7) else ():
        _same_candidates(_family(d, n))
    # a long vertex of norm 20**2, the largest bound the search takes
    _same_candidates(SymPolygon.from_grid(f, [QuadInt(f, 20, 0).affix(), f.omega.affix()], f.case))
