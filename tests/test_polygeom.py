"""Polygon semiring laws, generator decompositions, and the membership dichotomy."""

import math
import random
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property, cmp_to_key

import pytest
from hypothesis import example, given, settings
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
from tropigon.errors import MAX_MEMBERSHIP_NORM, NotProper, WrongField, ZeroInput
from tropigon.polygeom import GeneratorDecomposition, _mul_affix, covers, to_grid
from tropigon.quadfield import PlanePoint, enumerate_norm_le, gcd
from tropigon.selftest import random_polygon

import reference as ref

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


# ------------------------------------------------------------- the reference
# tests/reference.py writes every geometry kernel from its definition, in
# Fractions; a polygon is its hull's rational vertices, CCW from the least.


def _ref(p):
    # a polygon's hull, or an envelope's lines, as the reference reads them
    return ref.rational(p.arc, p.scale) if isinstance(p, Envelope) else ref.rational(p.hull, p.scale)


def _from_ref(f, want):
    # the polygon of the reference's hull, built directly: its lower chain runs
    # from the least vertex to that vertex's negation, over the least common
    # denominator
    return SymPolygon(f, *ref.integer_form(want[: len(want) // 2 + 1]))


def _elt(mu):
    return Fraction(mu.num.a, mu.den), Fraction(mu.num.b, mu.den)


def _same_as_reference(p, want):
    # the same rational vertices in the same order (a polygon's hull view
    # too), the same stored form in lowest terms, and equal, hash and all, to
    # the value built from the reference's points
    assert _ref(p) == want
    if isinstance(p, Envelope):
        q = Envelope(*ref.integer_form(want))
        assert (p.scale, p.arc, p.lines) == (q.scale, q.arc, want or None)
    else:
        q = _from_ref(p.field, want)
        assert (p.scale, p.lower) == (q.scale, q.lower)
    assert p == q and hash(p) == hash(q)


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
    want = ref.hull_union(_ref(a), _ref(b))
    _same_as_reference(hull_union(a, b), want)
    assert len(want) == 8


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


@st.composite
def mixed_pairs(draw):
    f = draw(fields)
    pick = st.one_of(polygons(f), rational_polygons(f))
    return draw(pick), draw(pick)


# D_K of d = 2 by its stored lower chain: building it at import time would
# run the kernels that a mutation breaks before any test could report it
_D2 = SymPolygon(field(2), 1, ((-1, 0), (0, -1), (1, 0)))


@given(mixed_pairs(), st.fractions(-4, 4, max_denominator=6), st.fractions(-4, 4, max_denominator=6))
@example((SymPolygon.empty(field(2)), _D2), Fraction(0), Fraction(0))
@example((_D2, SymPolygon.empty(field(2))), Fraction(1, 2), Fraction(0))
@example((SymPolygon.zero(field(2)), _D2), Fraction(0), Fraction(0))
@example((_D2, SymPolygon.zero(field(2))), Fraction(0), Fraction(1, 3))
def test_contains_matches_the_fraction_kernel(ab, x, y):
    a, b = ab
    A, B = _ref(a), _ref(b)
    assert a.contains_polygon(b) == ref.contains(A, B)
    assert b.contains_polygon(a) == ref.contains(B, A)
    # one point at a time, by covers on the closed hull
    for pt in [(x, y), *B]:
        assert covers(a.hull + a.hull[:1], a.scale, *to_grid([pt])) == ref.covers(A + A[:1], [pt])


@given(st.one_of(polygons(), rational_polygons()))
def test_sector_matches_the_sorted_oracle(p):
    d = p.field.d
    assert [(v.x, v.y) for v in p.sector] == list(ref.sector(d, _ref(p)))
    elements = [(q.num.a, q.num.b, q.den) for q in p.sector_elements]
    assert [(Fraction(a, n), Fraction(b, n)) for a, b, n in elements] == list(ref.sector_elements(d, _ref(p)))
    assert all(n > 0 and math.gcd(a, b, n) == 1 for a, b, n in elements)
    assert [q.plane() for q in p.sector_elements] == list(p.sector)


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
    about 100 orbit vertices, summed by the reference."""
    acc = _ref(draw(st.one_of(polygons(f, allow_degenerate=False), rational_polygons(f))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(rng.randint(1, 30)):
        if len(acc) >= 100:
            break
        # a ring multiple turns the summand's edges, so the sum gains directions
        mu = rng.randint(-3, 3), rng.randint(-3, 3)
        summand = _ref(random_polygon(rng, f, span=2, degenerate_rate=0))
        acc = ref.minkowski_sum(acc, ref.scale_act(f.d, mu, summand))
    return _from_ref(f, acc)


def operands(f, chained=True):
    fixed = [SymPolygon.empty(f), SymPolygon.zero(f), dk(f), _square(f, 1), _square(f, 2)]
    # for d = 3 the orbit of (1, 0) holds (1/2, 1/2), so the grid stays doubled
    fixed += [SymPolygon.from_grid(f, [(1, 0), (0, 1)], 1), _round_polygon(f)]
    kinds = [st.sampled_from(fixed), polygons(f), rational_polygons(f)]
    return st.one_of(*kinds, chains(f)) if chained else st.one_of(*kinds)


# The tests below keep the names they had when each compared a kernel with
# the kernel it replaced, since tests/data/mutations.json names them.


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.data())
def test_kernels_match_the_branchy_oracles(d, data):
    f = field(d)
    a, b = data.draw(operands(f)), data.draw(operands(f))
    mu = data.draw(st.one_of(st.just(QuadRat.from_int(f, 0)), scalars(f)))
    A, B = _ref(a), _ref(b)
    _same_as_reference(hull_union(a, b), ref.hull_union(A, B))
    _same_as_reference(minkowski_sum(a, b), ref.minkowski_sum(A, B))
    _same_as_reference(scale_act(mu, a), ref.scale_act(d, _elt(mu), A))
    assert a.tag == (EMPTY if not a.hull else ZERO if a.hull == ((0, 0),) else PROPER)


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


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.data())
def test_chain_kernels_match_the_whole_hull_kernels(d, data):
    # the kernels that make one monotone_chain pass, against the reference's
    # whole hull, on point sets with collinear runs, columns and repeats: the
    # orbit hull, or its NotProper refusal, in this field (for d = 3 the orbit
    # doubles the grid) and in the Gaussian one, for phi; Envelope.from_grid
    # and tmax; then hull_union and minkowski_sum of every pair of what was
    # built, EMPTY and ZERO among them
    f, gauss = field(d), field(1)
    fixed = [SymPolygon.empty(f), SymPolygon.zero(f)]
    duals = [SymPolygon.empty(gauss), SymPolygon.zero(gauss)]
    envs = [Envelope.bottom(), Envelope.zero()]
    for _ in range(2):
        grid, scale = data.draw(point_sets()), data.draw(st.integers(1, 4))
        pts = ref.rational(grid, scale)
        for h, kept in ((f, fixed), (gauss, duals)):
            want = ref.orbit_hull(h.d, pts)
            if len(want) == 2:
                with pytest.raises(NotProper):
                    SymPolygon.from_grid(h, grid, scale)
            else:
                kept.append(SymPolygon.from_grid(h, grid, scale))
                _same_as_reference(kept[-1], want)
        envs.append(Envelope.from_grid(grid, scale))
        _same_as_reference(envs[-1], ref.envelope(pts))
    for x in fixed:
        for y in fixed:
            _same_as_reference(hull_union(x, y), ref.hull_union(_ref(x), _ref(y)))
            _same_as_reference(minkowski_sum(x, y), ref.minkowski_sum(_ref(x), _ref(y)))
            if d == 1:
                duals += [hull_union(x, y), minkowski_sum(x, y)]
    for p in duals:
        _same_as_reference(phi(p), ref.phi(_ref(p)))
    for x in envs:
        for y in envs:
            _same_as_reference(tmax(x, y), ref.tmax(_ref(x), _ref(y)))


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.data())
def test_covers_matches_the_closed_hull_kernel(d, data):
    # covers on the closed walk, and contains_polygon.  The point sets come
    # over a k-fold, unreduced scale: the other operand's hull, the walked
    # hull's vertices nudged by at most one grid step (on, just inside and
    # just outside its edges), and free points.
    f = field(d)
    a, b = data.draw(operands(f, chained=False)), data.draw(operands(f, chained=False))
    k = data.draw(st.integers(1, 6))
    nudge = st.sampled_from([-1, 0, 0, 1])
    point_sets = [
        ([(x * k, y * k) for x, y in b.hull], b.scale * k),
        ([(x * k + data.draw(nudge), y * k + data.draw(nudge)) for x, y in a.hull], a.scale * k),
        (data.draw(st.lists(st.tuples(small, small), max_size=4)), data.draw(st.integers(1, 6))),
    ]
    walk = a.hull + a.hull[:1]
    for pts, t in point_sets:
        assert covers(walk, a.scale, pts, t) == ref.covers(ref.rational(walk, a.scale), ref.rational(pts, t))
    assert a.contains_polygon(b) == ref.contains(_ref(a), _ref(b))


@pytest.mark.parametrize("d", HEEGNER_DS)
@given(st.data())
def test_contains_on_nested_and_touching_pairs(d, data):
    # contains_polygon walks half of the hull; pairs that share vertices or
    # edges, or nest one step apart
    f = field(d)
    pick = st.one_of(polygons(f), rational_polygons(f), st.sampled_from([dk(f), _square(f, 1), _square(f, 2)]))
    a, b = data.draw(pick), data.draw(pick)
    k = data.draw(st.integers(1, 4))
    inner, outer = QuadRat.make(QuadInt(f, k, 0), k + 1), QuadRat.make(QuadInt(f, k + 1, 0), k)
    u, unit = hull_union(a, b), QuadRat(f.units[-1], 1)
    pairs = [(a, a), (u, a), (u, b), (minkowski_sum(a, b), a), (a, scale_act(unit, a))]
    pairs += [(a, scale_act(inner, a)), (a, scale_act(outer, a)), (u, scale_act(outer, b))]
    for x, y in pairs:
        assert x.contains_polygon(y) == ref.contains(_ref(x), _ref(y))
        assert y.contains_polygon(x) == ref.contains(_ref(y), _ref(x))


@pytest.mark.parametrize("d", HEEGNER_DS)
def test_parallel_edges_join(d):
    f = field(d)
    base, two = dk(f), QuadRat.from_int(f, 2)
    for a, b in ((base, base), (base, scale_act(two, base)), (_square(f, 1), _square(f, 2))):
        out = minkowski_sum(a, b)
        _same_as_reference(out, ref.minkowski_sum(_ref(a), _ref(b)))
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
    _same_as_reference(summed, ref.minkowski_sum(_ref(a), _ref(b)))
    _same_as_reference(scaled, ref.scale_act(d, _elt(mu), _ref(a)))
    _same_as_reference(zeroed, ref.scale_act(d, (0, 0), _ref(a)))
    # every edge of arc + arc is an edge of arc, doubled
    assert (out.scale, out.arc) == (1, tuple((2 * x, 2 * y) for x, y in arc.arc))
    _same_as_reference(e, ref.phi(_ref(gauss)))
    # the view is no field: a polygon whose view was read is its fresh copy
    assert SymPolygon.__match_args__ == ("field", "scale", "lower")
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
