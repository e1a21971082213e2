"""Piecewise-affine envelopes on [0,1] and the d=1 duality."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropigon import (
    HEEGNER_DS,
    Envelope,
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

import reference as ref

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


def _ref(e):
    # an envelope's lines, or a polygon's hull, as the reference reads them
    return ref.rational(e.arc, e.scale) if isinstance(e, Envelope) else ref.rational(e.hull, e.scale)


def _same_as_reference(v, want):
    # the same rational lines (a polygon's hull) in the same order, the same
    # stored form in lowest terms, and equal, hash and all, to the value built
    # from the reference's points: a polygon stores the lower chain, from its
    # least vertex to that vertex's negation
    assert _ref(v) == want
    if isinstance(v, Envelope):
        w = Envelope(*ref.integer_form(want))
        assert (v.scale, v.arc, v.lines) == (w.scale, w.arc, want or None)
    else:
        w = SymPolygon(v.field, *ref.integer_form(want[: len(want) // 2 + 1]))
        assert (v.scale, v.lower) == (w.scale, w.lower)
    assert v == w and hash(v) == hash(w)


@given(lines_strategy)
@settings(max_examples=300)
def test_canonicalization_preserves_the_function(lines):
    e = Envelope.of(lines)
    grid = [Fraction(k, 16) for k in range(17)]
    for t in grid:
        assert eval_at(e, t) == ref.eval_at(lines, t)


@given(envelopes(), st.fractions(0, 1, max_denominator=60))
def test_eval_at_matches_the_fraction_formula(e, t):
    got = eval_at(e, t)
    assert got == ref.eval_at(_ref(e), t)
    assert e.is_bottom() or type(got) is Fraction


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


# ------------------------------------------ kernels against the reference


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
    _same_as_reference(Envelope.of(lines), ref.envelope(lines))


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
    # phi(P)(t) is the max over P's vertices of their pairing with (1 - t, t)
    e = phi(p)
    for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        assert eval_at(e, t) == ref.eval_at(_ref(p), t)


@st.composite
def rational_gaussian_polygons(draw):
    """Gaussian polygons scaled by 1/n, so their vertices have denominators."""
    f = field(1)
    return scale_act(QuadRat.make(f.one, draw(st.integers(1, 6))), draw(gaussian_polygons()))


@given(tie_heavy_envelopes(), tie_heavy_envelopes())
def test_tplus_matches_the_fraction_sums(f, g):
    _same_as_reference(tplus(f, g), ref.tplus(_ref(f), _ref(g)))


@given(rational_gaussian_polygons())
def test_phi_matches_the_fraction_orbit_points(p):
    e = phi(p)
    _same_as_reference(e, ref.phi(_ref(p)))
    _same_as_reference(phi_inv(e), ref.phi_inv(_ref(e)))


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


degenerate_envelopes = st.sampled_from([Envelope.bottom(), Envelope.zero()])
degenerate_polygons = st.sampled_from([SymPolygon.empty(field(1)), SymPolygon.zero(field(1))])


@st.composite
def envelope_chains(draw):
    """Accumulated tplus sums of up to eight tie-heavy envelopes, summed by the reference."""
    acc = ref.envelope(draw(tie_heavy_lines()))
    for lines in draw(st.lists(tie_heavy_lines(), min_size=1, max_size=8)):
        acc = ref.tplus(acc, ref.envelope(lines))
    return Envelope(*ref.integer_form(acc))


operand_envelopes = st.one_of(degenerate_envelopes, tie_heavy_envelopes(), envelope_chains())


# The tests below keep the names they had when each compared a kernel with
# the kernel it replaced, since tests/data/mutations.json names them.


@given(operand_envelopes, operand_envelopes, st.one_of(degenerate_polygons, rational_gaussian_polygons()))
def test_kernels_match_the_branchy_oracles(f, g, p):
    F, G = _ref(f), _ref(g)
    _same_as_reference(tmax(f, g), ref.tmax(F, G))
    _same_as_reference(tplus(f, g), ref.tplus(F, G))
    _same_as_reference(tplus(f, f), ref.tplus(F, F))
    _same_as_reference(phi(p), ref.phi(_ref(p)))
    _same_as_reference(phi_inv(phi(p)), _ref(p))


def test_phi_round_trips_the_degenerate_values():
    f = field(1)
    for p, e in ((SymPolygon.empty(f), Envelope.bottom()), (SymPolygon.zero(f), Envelope.zero())):
        _same(phi(p), e)
        assert (phi_inv(e).scale, phi_inv(e).hull) == (p.scale, p.hull)
        assert phi_inv(e) == p and hash(phi_inv(e)) == hash(p)


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
    return Envelope(*ref.integer_form(ref.envelope(_ref(p))))


one_point_arcs = st.builds(lambda a, b: Envelope.of([(a, b)]), small, small)
leq_operands = st.one_of(degenerate_envelopes, one_point_arcs, tie_heavy_envelopes(), hull_arcs())


@given(envelope_pairs(), leq_operands, leq_operands, st.integers(1, 5), st.integers(1, 5))
@example((Envelope.zero(), Envelope.zero()), Envelope.bottom(), Envelope.zero(), 1, 3)
@example((_env((1, 2)), _env((1, 2))), _env((0, 5)), _env((5, 0)), 2, 1)
def test_leq_matches_the_probe_loop(pair, f, g, j, k):
    cases = [pair, pair[::-1], (f, g), (g, f), (f, f)]
    cases += [(_unreduced(x, j), _unreduced(y, k)) for x, y in cases]
    for x, y in cases:
        assert leq(x, y) == ref.leq(_ref(x), _ref(y))
