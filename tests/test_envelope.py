"""Piecewise-affine envelopes on [0,1] and the d=1 duality."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropigon import (
    HEEGNER_DS,
    Envelope,
    PlanePoint,
    QuadInt,
    QuadRat,
    SymPolygon,
    dk,
    eval_at,
    field,
    hull_union,
    leq,
    minkowski_sum,
    phi,
    phi_inv,
    scale_act,
    tmax,
    tplus,
)
from tropigon.envelope import NEG_INF
from tropigon.errors import NotProper, OutOfDomain, WrongField
from test_polygeom import _old_arc, _old_convex_hull

rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)
lines_strategy = st.lists(st.tuples(rats, rats), min_size=1, max_size=5)


@st.composite
def envelopes(draw, allow_bottom=True):
    if allow_bottom and draw(st.integers(0, 9)) == 0:
        return Envelope.bottom()
    return Envelope.of(draw(lines_strategy))


# ---------------------------------------------------------------- frozen facts


def _env(*lines):
    return Envelope.of([(Fraction(a), Fraction(b)) for a, b in lines])


def test_tmax_values():
    f = _env((3, -2), (0, 1))
    assert tmax(f, Envelope.bottom()) == f
    assert tmax(_env((1, 0)), _env((0, 1))) == _env((1, 0), (0, 1))
    # 1 >= 1-2t on [0,1] with equality only at the endpoint: zero length, pruned
    assert tmax(_env((1, 1)), _env((1, -1))) == _env((1, 1))


def test_tplus_values():
    f = _env((3, -2), (0, 1))
    assert tplus(f, _env((0, 0))) == f
    assert tplus(Envelope.bottom(), f) == Envelope.bottom()
    # middle line 1 attains max(2-2t, 1, 2t) only at t=1/2: pruned
    assert tplus(_env((1, 0), (0, 1)), _env((1, 0), (0, 1))) == _env((2, 0), (0, 2))


def test_eval_at_values():
    assert eval_at(_env((1, 0), (0, 1)), Fraction(1, 2)) == Fraction(1, 2)
    assert eval_at(Envelope.bottom(), Fraction(1, 3)) is NEG_INF
    assert eval_at(_env((0, 0)), Fraction(1, 3)) == 0
    with pytest.raises(OutOfDomain):
        eval_at(_env((0, 0)), Fraction(3, 2))


# ------------------------------------------------------- canonical form quality


def _raw_max(lines, t):
    return max(a + (b - a) * t for a, b in lines)


@given(lines_strategy)
@settings(max_examples=300)
def test_canonicalization_preserves_the_function(lines):
    e = Envelope.of(lines)
    grid = [Fraction(k, 16) for k in range(17)]
    for t in grid:
        assert eval_at(e, t) == _raw_max(lines, t)


@given(envelopes(allow_bottom=False), st.fractions(0, 1, max_denominator=60))
def test_eval_at_matches_the_fraction_formula(e, t):
    # the formula eval_at used on the rational lines before it read the integer arc
    got = eval_at(e, t)
    assert type(got) is Fraction and got == _raw_max(e.lines, t)


@given(lines_strategy)
@settings(max_examples=200)
def test_canonical_lines_are_irredundant(lines):
    e = Envelope.of(lines)
    kept = e.lines
    for i in range(len(kept)):
        rest = kept[:i] + kept[i + 1 :]
        if not rest:
            continue
        assert Envelope.of(list(rest)) != e


@given(envelopes(), envelopes(), envelopes())
@settings(max_examples=200)
def test_semiring_laws(e, f, g):
    assert tmax(e, f) == tmax(f, e)
    assert tmax(tmax(e, f), g) == tmax(e, tmax(f, g))
    assert tmax(e, e) == e
    assert tplus(e, f) == tplus(f, e)
    assert tplus(tplus(e, f), g) == tplus(e, tplus(f, g))
    assert tplus(e, tmax(f, g)) == tmax(tplus(e, f), tplus(e, g))
    assert leq(e, tmax(e, f))


# ------------------------------------------ kernels against their old forms


def _canonical_oracle(lines):
    """The former O(n^2) canonical form: a line survives when the interval on
    which it beats every other line has positive length."""
    uniq = sorted(set(lines))
    kept = []
    for a, b in uniq:
        lo, hi = Fraction(0), Fraction(1)
        dead = False
        for c, g in uniq:
            if (c, g) == (a, b):
                continue
            da = a - c
            s = (b - g) - da
            if s > 0:
                lo = max(lo, Fraction(-da, s))
            elif s < 0:
                hi = min(hi, Fraction(-da, s))
            elif da < 0:
                dead = True
                break
        if not dead and lo < hi:
            kept.append((a, b))
    kept.sort(key=lambda ln: (ln[1] - ln[0], ln[0]))
    return tuple(kept)


def _leq_oracle(f, g):
    """The former leq: f <= g iff the canonical form of max(f, g) is g's."""
    if f.is_bottom():
        return True
    if g.is_bottom():
        return False
    return _canonical_oracle(f.lines + g.lines) == g.lines


def _through(t, v, slope):
    a = v - slope * t
    return (a, a + slope)


small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
meeting_points = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)])


@st.composite
def tie_heavy_lines(draw):
    """Line sets rich in ties: duplicates, parallels, and several lines through
    one point, that point often at t = 0 or t = 1."""
    lines = draw(st.lists(st.tuples(small, small), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        t, v = draw(meeting_points), draw(small)
        lines += [_through(t, v, s) for s in draw(st.lists(small, min_size=1, max_size=4))]
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(lines))
        shifts = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=1, max_size=3))
        lines += [(a + k, b + k) for k in shifts]
    return draw(st.permutations(lines))


@given(tie_heavy_lines())
@example([(Fraction(5), Fraction(-1))])  # a single line
@example([(Fraction(1), Fraction(2))] * 3)  # duplicates
@example([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))])  # parallels
# three lines through one point
@example([(Fraction(0), Fraction(2)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(0))])
@example([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(3))])  # crossing at t = 0
@example([(Fraction(0), Fraction(2)), (Fraction(3), Fraction(2))])  # crossing at t = 1
def test_canonical_form_matches_the_quadratic_filter(lines):
    assert Envelope.of(lines).lines == _canonical_oracle(lines)


@st.composite
def tie_heavy_envelopes(draw):
    if draw(st.integers(0, 9)) == 0:
        return Envelope.bottom()
    return Envelope.of(draw(tie_heavy_lines()))


def _breakpoints(e):
    out = []
    for (a0, b0), (a1, b1) in zip(e.lines, e.lines[1:]):
        s0, s1 = b0 - a0, b1 - a1
        t = (a0 - a1) / (s1 - s0)
        out.append((t, a0 + s0 * t, s0, s1))
    return out


@st.composite
def envelope_pairs(draw):
    """(f, g) with f often touching g: nudged copies of g's lines, or lines
    through g's breakpoints and end values with slopes at, between or beyond
    the neighbouring slopes."""
    g = draw(tie_heavy_envelopes())
    kind = draw(st.integers(0, 2))
    if kind == 0 or g.is_bottom():
        return draw(tie_heavy_envelopes()), g
    nudge = st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(1, 2)])
    if kind == 1:
        return Envelope.of([(a + draw(nudge), b + draw(nudge)) for a, b in g.lines]), g
    (a0, b0), (a1, b1) = g.lines[0], g.lines[-1]
    touch = [(Fraction(0), a0, b0 - a0 - 1, b0 - a0), (Fraction(1), b1, b1 - a1, b1 - a1 + 1)]
    touch += _breakpoints(g)
    lines = []
    for t, v, s0, s1 in draw(st.lists(st.sampled_from(touch), min_size=1, max_size=3)):
        slope = draw(st.sampled_from([s0, s1, (s0 + s1) / 2, s0 - 1, s1 + 1]))
        lines.append(_through(t, v + draw(nudge), slope))
    return Envelope.of(lines), g


@given(envelope_pairs())
@example((Envelope.bottom(), Envelope.bottom()))
@example((Envelope.bottom(), Envelope.zero()))
@example((Envelope.zero(), Envelope.bottom()))
def test_leq_matches_the_max_definition(pair):
    f, g = pair
    assert leq(f, g) == _leq_oracle(f, g)


# -------------------------------------------------------------------- duality


def test_phi_values():
    f = field(1)
    assert phi(dk(f)) == _env((1, 0), (0, 1))
    assert phi(SymPolygon.empty(f)) == Envelope.bottom()
    assert phi(SymPolygon.zero(f)) == _env((0, 0))
    rotated = scale_act(QuadRat.make(QuadInt(f, 1, 1), 1), dk(f))
    assert phi(rotated) == _env((1, 1))
    assert phi_inv(_env((1, 0), (0, 1))) == dk(f)
    assert phi_inv(Envelope.bottom()) == SymPolygon.empty(f)
    assert phi_inv(_env((0, 0))) == SymPolygon.zero(f)


def test_phi_rejects_other_fields():
    with pytest.raises(WrongField):
        phi(dk(field(3)))


@st.composite
def gaussian_polygons(draw):
    f = field(1)
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return SymPolygon.empty(f)
    if kind == 1:
        return SymPolygon.zero(f)
    pts = [
        QuadInt(f, draw(st.integers(-5, 5)), draw(st.integers(-5, 5))).plane()
        for _ in range(draw(st.integers(1, 3)))
    ]
    pts = [p for p in pts if p.x or p.y] or [f.one.plane()]
    return SymPolygon.from_points(f, pts)


@given(gaussian_polygons(), gaussian_polygons())
@settings(max_examples=300)
def test_phi_is_an_isomorphism(a, b):
    fa, fb = phi(a), phi(b)
    assert phi(hull_union(a, b)) == tmax(fa, fb)
    assert phi(minkowski_sum(a, b)) == tplus(fa, fb)
    assert phi_inv(fa) == a
    assert phi(phi_inv(fa)) == fa


@given(gaussian_polygons())
@settings(max_examples=150)
def test_phi_is_the_support_function(p):
    # phi(P)(t) must equal the support max over the polygon's own vertices in
    # the direction that interpolates 1 -> i
    e = phi(p)
    if p.tag != "proper":
        return
    for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        want = max((1 - t) * pt.x + t * pt.y for pt in p.orbit_points())
        assert eval_at(e, t) == want


@st.composite
def rational_gaussian_polygons(draw):
    """Gaussian polygons scaled by 1/n, so their vertices have denominators."""
    f = field(1)
    return scale_act(QuadRat.make(f.one, draw(st.integers(1, 6))), draw(gaussian_polygons()))


def _phi_oracle(p):
    """The former phi: the canonical form of the orbit points as Fractions."""
    if p.tag == "empty":
        return None
    if p.tag == "zero":
        return ((Fraction(0), Fraction(0)),)
    return _canonical_oracle([(v.x, v.y) for v in p.orbit_points()])


def _phi_inv_oracle(e):
    """The former phi_inv: the polygon spanned by the lines as plane points."""
    f = field(1)
    if e.is_bottom():
        return SymPolygon.empty(f)
    if e.lines == ((Fraction(0), Fraction(0)),):
        return SymPolygon.zero(f)
    return SymPolygon.from_points(f, [PlanePoint(a, b) for a, b in e.lines])


def _tplus_oracle(f, g):
    """The former tplus: the canonical form of all n*m sums as Fractions."""
    if f.is_bottom() or g.is_bottom():
        return None
    return _canonical_oracle({(a + c, b + d) for a, b in f.lines for c, d in g.lines})


@given(tie_heavy_envelopes(), tie_heavy_envelopes())
def test_tplus_matches_the_fraction_sums(f, g):
    assert tplus(f, g).lines == _tplus_oracle(f, g)


@given(rational_gaussian_polygons())
def test_phi_matches_the_fraction_orbit_points(p):
    e = phi(p)
    assert e.lines == _phi_oracle(p)
    assert phi_inv(e) == _phi_inv_oracle(e)


# ------------------------------------------------------ one stored form


def _same(e, f):
    assert (e.scale, e.arc) == (f.scale, f.arc)
    assert e == f and hash(e) == hash(f)


@given(tie_heavy_lines(), st.integers(2, 12))
@example([(Fraction(0), Fraction(0))], 5)  # ZERO over a needless denominator
def test_routes_to_one_envelope_agree(lines, k):
    e = Envelope.of(lines)
    # dominated copies with a fresh denominator raise the common one; the
    # canonical form drops them and reduces it again
    lowered = [(a - Fraction(1, k), b - Fraction(1, k)) for a, b in lines]
    _same(Envelope.of(lines + lowered + lines), e)
    _same(Envelope.from_grid([(x * k, y * k) for x, y in e.arc], e.scale * k), e)
    _same(Envelope.of(e.lines), e)
    _same(tmax(e, e), e)
    _same(tplus(e, Envelope.zero()), e)


@given(rational_gaussian_polygons())
def test_phi_round_trip_keeps_the_stored_form(p):
    e = phi(p)
    _same(phi(phi_inv(e)), e)
    if not e.is_bottom():
        _same(Envelope.of(e.lines), e)


# The kernels as they were before BOTTOM and the zero envelope shared the
# polygon encoding: each degenerate operand had a branch of its own.  They
# build their results with their own arc reduction and stay here as
# differential oracles.


def _branchy_arc(hull, scale):
    i = hull.index(max(hull))
    j = hull.index(max(hull, key=lambda p: (p[1], p[0])))
    arc = hull[i : j + 1] if i <= j else hull[i:] + hull[: j + 1]
    g = math.gcd(scale, *(c for p in arc for c in p))
    return Envelope(scale // g, tuple((x // g, y // g) for x, y in arc))


def _branchy_tmax(f, g):
    if not f.arc:
        return g
    if not g.arc:
        return f
    s = math.lcm(f.scale, g.scale)
    mf, mg = s // f.scale, s // g.scale
    pts = [(a * mf, b * mf) for a, b in f.arc] + [(a * mg, b * mg) for a, b in g.arc]
    return _branchy_arc(_old_convex_hull(pts), s)


def _branchy_tplus(f, g):
    if not f.arc or not g.arc:
        return Envelope.bottom()
    s = math.lcm(f.scale, g.scale)
    mf, mg = s // f.scale, s // g.scale
    pts = {(a * mf + c * mg, b * mf + d * mg) for a, b in f.arc for c, d in g.arc}
    return _branchy_arc(_old_convex_hull(pts), s)


def _branchy_phi(p):
    if p.tag == "empty":
        return Envelope.bottom()
    if p.tag == "zero":
        return Envelope.zero()
    return _branchy_arc(p.hull, p.scale)


degenerate_envelopes = st.sampled_from([Envelope.bottom(), Envelope.zero()])
degenerate_polygons = st.sampled_from([SymPolygon.empty(field(1)), SymPolygon.zero(field(1))])


@st.composite
def envelope_chains(draw):
    """Accumulated tplus sums of up to eight tie-heavy envelopes, summed by the oracle."""
    acc = Envelope.of(draw(tie_heavy_lines()))
    for lines in draw(st.lists(tie_heavy_lines(), min_size=1, max_size=8)):
        acc = _branchy_tplus(acc, Envelope.of(lines))
    return acc


operand_envelopes = st.one_of(degenerate_envelopes, tie_heavy_envelopes(), envelope_chains())


@given(operand_envelopes, operand_envelopes, st.one_of(degenerate_polygons, rational_gaussian_polygons()))
def test_kernels_match_the_branchy_oracles(f, g, p):
    _same(tmax(f, g), _branchy_tmax(f, g))
    _same(tplus(f, g), _branchy_tplus(f, g))
    _same(tplus(f, f), _branchy_tplus(f, f))
    _same(phi(p), _branchy_phi(p))
    assert phi_inv(phi(p)) == p


def test_phi_round_trips_the_degenerate_values():
    f = field(1)
    for p, e in ((SymPolygon.empty(f), Envelope.bottom()), (SymPolygon.zero(f), Envelope.zero())):
        _same(phi(p), e)
        assert (phi_inv(e).scale, phi_inv(e).hull) == (p.scale, p.hull)
        assert phi_inv(e) == p and hash(phi_inv(e)) == hash(p)


def _old_leq(f: Envelope, g: Envelope) -> bool:
    """The probe-loop leq, kept as the oracle of the leq that walks g's arc."""
    if not f.arc:
        return True
    if not g.arc:
        return False
    arc = g.arc
    probes = [(1, 0, arc[0][0]), (0, 1, arc[-1][1])]
    probes += [(b1 - b0, a0 - a1, a0 * b1 - a1 * b0) for (a0, b0), (a1, b1) in zip(arc, arc[1:])]
    sf, sg = f.scale, g.scale
    return all((a * u + b * w) * sg <= v * sf for a, b in f.arc for u, w, v in probes)


def _unreduced(e, k):
    # the same envelope over a k-fold scale, not in lowest terms
    return Envelope(e.scale * k, tuple((a * k, b * k) for a, b in e.arc))


@st.composite
def hull_arcs(draw):
    """The arc of an orbit hull in any of the nine fields, ZERO and D_K included."""
    f = field(draw(st.sampled_from(HEEGNER_DS)))
    pts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=3))
    try:
        p = SymPolygon.from_grid(f, pts, draw(st.integers(1, 4)))
    except NotProper:
        p = dk(f)
    return _old_arc(p.hull, p.scale)


one_point_arcs = st.builds(lambda a, b: Envelope.of([(a, b)]), small, small)
leq_operands = st.one_of(degenerate_envelopes, one_point_arcs, tie_heavy_envelopes(), hull_arcs())


@given(envelope_pairs(), leq_operands, leq_operands, st.integers(1, 5), st.integers(1, 5))
@example((Envelope.zero(), Envelope.zero()), Envelope.bottom(), Envelope.zero(), 1, 3)
@example((_env((1, 2)), _env((1, 2))), _env((0, 5)), _env((5, 0)), 2, 1)
def test_leq_matches_the_probe_loop(pair, f, g, j, k):
    cases = [pair, pair[::-1], (f, g), (g, f), (f, f)]
    cases += [(_unreduced(x, j), _unreduced(y, k)) for x, y in cases]
    for x, y in cases:
        assert leq(x, y) == _old_leq(x, y)
