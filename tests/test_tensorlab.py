"""Formal tensor calculus: normal forms, the separator, the reduced quotient."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropigon import (
    DISTINCT,
    EQUAL,
    POSSIBLY_EQUAL,
    Envelope,
    FormalTensor,
    QuadInt,
    ReducedElement,
    act_pair,
    cancellation_instance,
    cancellativity_experiment,
    dk,
    eval_separator,
    eval_tensor_at,
    field,
    gamma,
    normalize,
    phi,
    reduced_add,
    reduced_equal,
    reduced_mul,
    scale_act,
    tensor_add,
    tensor_mul,
    tensor_product,
    tplus,
)
from tropigon import tensorlab, wire
from tropigon.errors import MAX_TENSOR_PAIRS, MAX_WITNESS_PAIRS, OutOfBudget, OutOfDomain, WrongField
from tropigon.selftest import _lowered
from tropigon.tensorlab import (
    UNKNOWN,
    _exceeds_somewhere,
    _witness_candidates,
    random_envelope,
    random_tensor,
)

import reference as ref

F1 = field(1)


def _env(*lines):
    return Envelope.of([(Fraction(a), Fraction(b)) for a, b in lines])


E_UNIT = _env((1, 0), (0, 1))  # the square's envelope
E_TWICE = _env((2, 0), (0, 2))
T_SQ = FormalTensor.make([(E_UNIT, E_UNIT)])


# ---------------------------------------------------------------- frozen ops


def test_add_frozen():
    assert tensor_add(T_SQ, T_SQ) == T_SQ
    assert tensor_add(T_SQ, FormalTensor.bottom()) == T_SQ
    # equal first components merge by tmax on the second
    merged = tensor_add(
        FormalTensor.make([(E_UNIT, _env((1, 0)))]),
        FormalTensor.make([(E_UNIT, _env((0, 1)))]),
    )
    assert merged == T_SQ
    # a pair dominated in both slots is absorbed
    dom = FormalTensor.make([(E_UNIT, _env((1, 1))), (_env((1, 0)), _env((0, 0)))])
    assert dom == FormalTensor.make([(E_UNIT, _env((1, 1)))])


def test_mul_frozen():
    assert tensor_mul(T_SQ, FormalTensor.neutral()) == T_SQ
    assert tensor_mul(T_SQ, FormalTensor.bottom()).is_bottom()
    got = tensor_mul(
        FormalTensor.make([(E_UNIT, E_TWICE)]), FormalTensor.make([(E_TWICE, E_UNIT)])
    )
    want = FormalTensor.make([(tplus(E_UNIT, E_TWICE), tplus(E_TWICE, E_UNIT))])
    assert got == want
    assert want.pairs[0][0] == _env((3, 0), (0, 3))


def test_act_pair_frozen():
    from tropigon import QuadRat

    one, i, opi = F1.one, QuadInt(F1, 0, 1), QuadInt(F1, 1, 1)
    assert act_pair(one, one, T_SQ) == T_SQ
    assert act_pair(i, i, T_SQ) == T_SQ  # units act trivially
    acted = act_pair(opi, one, T_SQ)
    assert acted == FormalTensor.make([(_env((1, 1)), E_UNIT)])
    assert acted.pairs[0][0] == phi(scale_act(QuadRat.make(opi, 1), dk(F1)))
    with pytest.raises(WrongField):
        act_pair(field(3).one, one, T_SQ)


def test_normalize_frozen():
    anti = FormalTensor.make(
        [(_env((2, 0)), _env((0, 1))), (_env((0, 2)), _env((1, 0)))]
    )
    assert len(anti.pairs) == 2
    assert normalize(anti) == anti
    assert normalize(FormalTensor.bottom()).is_bottom()
    # pairs holding a bottom envelope vanish
    assert FormalTensor.make([(Envelope.bottom(), E_UNIT)]).is_bottom()


def test_eval_frozen():
    assert eval_tensor_at(T_SQ, Fraction(1, 2), Fraction(1, 2)) == 1
    assert eval_tensor_at(T_SQ, 0, 0) == 2
    assert eval_tensor_at(FormalTensor.bottom(), 0, 0) == float("-inf")
    # the envelopes live on [0, 1]: no silent extrapolation
    for x, y in ((Fraction(-1, 2), 0), (0, Fraction(3, 2))):
        with pytest.raises(OutOfDomain):
            eval_tensor_at(T_SQ, x, y)


def test_separator_frozen():
    assert eval_separator(T_SQ, T_SQ) == POSSIBLY_EQUAL
    a = FormalTensor.make([(E_UNIT, E_TWICE)])
    b = FormalTensor.make([(E_TWICE, E_UNIT)])
    assert eval_separator(a, b) == DISTINCT
    assert eval_separator(a, FormalTensor.bottom()) == DISTINCT
    assert eval_separator(FormalTensor.bottom(), FormalTensor.bottom()) == POSSIBLY_EQUAL


# ------------------------------------------------------------ random tensors


def _envelopes():
    rats = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    return st.builds(
        Envelope.of, st.lists(st.tuples(rats, rats), min_size=1, max_size=3)
    )


def _tensors(max_pairs=3, allow_bottom=True):
    base = st.builds(
        FormalTensor.make,
        st.lists(st.tuples(_envelopes(), _envelopes()), min_size=1, max_size=max_pairs),
    )
    if not allow_bottom:
        return base
    return st.one_of(st.just(FormalTensor.bottom()), base, base)


_SCALED_RATS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
_SCALED_ENVELOPES = st.builds(Envelope.of, st.lists(st.tuples(_SCALED_RATS, _SCALED_RATS), min_size=1, max_size=3))


@given(st.sets(st.tuples(_SCALED_ENVELOPES, _SCALED_ENVELOPES), max_size=4))
def test_pair_order_matches_the_lines_views(pairs):
    # the normal form sorts pairs by their integer arcs over one scale; that
    # must be the order of their rational `lines` views, since the wire output
    # and the selftest stdout depend on it
    out = normalize(FormalTensor(tuple(pairs))).pairs
    assert list(out) == sorted(out, key=lambda p: (p[0].lines, p[1].lines))


# ------------------------------------------------------ reference normal form


def _anti(ks, step=1):
    # (k - kx) (x) (-k + ky): no pair bounds another, and nothing merges
    return [(_env((k * step, -k * step)), _env((-k * step, k * step))) for k in ks]


def _dent(h):
    # ends 0 and 0 with a dent of depth h in the middle: deeper dents lie lower
    return _env((0, -20), (-20, 0), (-h, -h))


@st.composite
def _raw_pairs(draw):
    """Pairs before any normal form: an antichain, equal-end dents, or pairs
    drawn from a small pool, so that components repeat and merge by tmax."""
    kind = draw(st.sampled_from(["antichain", "equal-end", "pool", "pool"]))
    if kind == "antichain":
        step = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)]))
        return _anti(sorted(draw(st.sets(st.integers(-5, 5), min_size=1, max_size=4))), step)
    if kind == "equal-end":
        depths = st.integers(0, 9)
        return [(_dent(a), _dent(b)) for a, b in draw(st.lists(st.tuples(depths, depths), min_size=1, max_size=4))]
    envelopes = st.one_of(_SCALED_ENVELOPES, _SCALED_ENVELOPES, _SCALED_ENVELOPES, st.just(Envelope.bottom()))
    pool = draw(st.lists(envelopes, min_size=1, max_size=4))
    return draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=4))


def _ref_pairs(pairs):
    return tuple((ref.rational(e.arc, e.scale), ref.rational(f.arc, f.scale)) for e, f in pairs)


def _same_as_reference(t, want):
    assert _ref_pairs(t.pairs) == want
    # every envelope over the least common denominator of its lines
    assert all(ref.integer_form(ref.rational(e.arc, e.scale)) == (e.scale, e.arc) for pair in t.pairs for e in pair)


@given(st.lists(_raw_pairs(), min_size=1, max_size=3))
@settings(deadline=None)
@example([_anti(range(4)), _anti(range(4), 4)])  # a 16-pair antichain
@example([[(_dent(1), _dent(5)), (_dent(5), _dent(1)), (_dent(3), _dent(3)), (_dent(4), _dent(4))]])
# merges by first component, then by second
@example([[(E_UNIT, _env((1, 0))), (E_UNIT, _env((0, 1))), (_env((1, 0)), E_TWICE), (_env((0, 1)), E_TWICE)]])
@example([[(E_UNIT, E_TWICE), (Envelope.bottom(), E_TWICE)], []])  # a bottom pair and a bottom factor
def test_normal_form_matches_the_reference(raws):
    tensors = [FormalTensor(tuple(pairs)) for pairs in raws]
    refs = [_ref_pairs(pairs) for pairs in raws]
    for t, r in zip(tensors, refs):
        _same_as_reference(normalize(t), ref.normal_form(r))
    _same_as_reference(tensor_add(tensors[0], tensors[-1]), ref.tensor_add(refs[0], refs[-1]))
    _same_as_reference(tensor_product(tensors), ref.tensor_product(*refs))


def test_the_pair_budget_is_counted_before_the_cross(monkeypatch):
    two, three = FormalTensor.make(_anti(range(2))), FormalTensor.make(_anti(range(3), 3))
    monkeypatch.setattr(tensorlab, "MAX_TENSOR_PAIRS", 6)
    assert len(tensor_product((two, three)).pairs) == 6
    assert len(FormalTensor.make(_anti(range(6))).pairs) == 6
    monkeypatch.setattr(tensorlab, "MAX_TENSOR_PAIRS", 5)

    def unreachable(p, q):
        raise AssertionError("the cross was built")

    monkeypatch.setattr(tensorlab, "chain_sum", unreachable)
    for build in (
        lambda: tensor_product((two, three)),
        lambda: FormalTensor.make(_anti(range(6))),
        lambda: tensor_add(three, FormalTensor.make(_anti(range(3), 5))),
    ):
        with pytest.raises(OutOfBudget, match="a tensor normal form takes more than 5 pairs"):
            build()


def test_the_witness_budget_binds_before_the_pair_budget():
    # a product that the witness search builds crosses at most MAX_WITNESS_PAIRS
    # pairs, so the search is refused for its own budget, with its own text
    assert MAX_TENSOR_PAIRS >= MAX_WITNESS_PAIRS


GRID = [Fraction(k, 4) for k in range(5)]


def _grid_equal(s, t):
    return all(eval_tensor_at(s, x, y) == eval_tensor_at(t, x, y) for x in GRID for y in GRID)


@given(_tensors(), _tensors())
@settings(max_examples=150)
def test_add_structural_laws(s, t):
    assert tensor_add(s, t) == tensor_add(t, s)
    assert tensor_add(s, s) == s
    assert tensor_add(s, FormalTensor.bottom()) == s
    assert normalize(tensor_add(s, t)) == tensor_add(s, t)


@given(_tensors(), _tensors())
@settings(max_examples=150)
def test_mul_structural_laws(s, t):
    assert tensor_mul(s, t) == tensor_mul(t, s)
    assert tensor_mul(s, FormalTensor.neutral()) == s
    assert tensor_mul(s, FormalTensor.bottom()).is_bottom()


@given(_tensors(), _tensors(), _tensors())
@settings(max_examples=100)
def test_rewrites_preserve_the_function(s, t, u):
    # associativity and distributivity may land in different normal forms,
    # but the bivariate function is invariant and the separator decides it
    lhs = tensor_add(tensor_add(s, t), u)
    rhs = tensor_add(s, tensor_add(t, u))
    assert eval_separator(lhs, rhs) == POSSIBLY_EQUAL
    assert _grid_equal(lhs, rhs)

    dist_l = tensor_mul(s, tensor_add(t, u))
    dist_r = tensor_add(tensor_mul(s, t), tensor_mul(s, u))
    assert eval_separator(dist_l, dist_r) == POSSIBLY_EQUAL

    flat = tensor_product((s, t, u))
    grouped = tensor_mul(tensor_mul(s, t), u)
    assert eval_separator(flat, grouped) == POSSIBLY_EQUAL


@given(_tensors(max_pairs=2), _tensors(max_pairs=2))
@settings(max_examples=100)
def test_separator_never_contradicts_grid_evaluation(s, t):
    verdict = eval_separator(s, t)
    if verdict == POSSIBLY_EQUAL:
        assert _grid_equal(s, t)
    if not _grid_equal(s, t):
        assert verdict == DISTINCT


@given(_tensors(max_pairs=2, allow_bottom=False), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=100)
def test_eval_matches_operations(t, ix, iy):
    x, y = Fraction(ix, 3), Fraction(iy, 3)
    u = tensor_add(t, T_SQ)
    assert eval_tensor_at(u, x, y) == max(eval_tensor_at(t, x, y), eval_tensor_at(T_SQ, x, y))
    v = tensor_mul(t, T_SQ)
    assert eval_tensor_at(v, x, y) == eval_tensor_at(t, x, y) + eval_tensor_at(T_SQ, x, y)


# ------------------------------------------------- Fraction separator oracle
#
# The rational Sutherland-Hodgman separator with its final area pass, as it
# ran on the `lines` views before the integer arcs.  Each clip left with three
# or more vertices must already have positive area: that is why the integer
# separator needs no area pass.


def _old_piece_set(t):
    out = set()
    for e, f in t.pairs:
        for a1, b1 in e.lines:
            for a2, b2 in f.lines:
                out.add((a1 + a2, b1 - a1, b2 - a2))
    return frozenset(out)


_OLD_SQUARE = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1)),
)


def _old_clip(poly, c0, cx, cy):
    out = []
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        v1 = c0 + cx * x1 + cy * y1
        v2 = c0 + cx * x2 + cy * y2
        if v1 >= 0:
            out.append((x1, y1))
        if (v1 > 0 > v2) or (v1 < 0 < v2):
            s = v1 / (v1 - v2)
            out.append((x1 + s * (x2 - x1), y1 + s * (y2 - y1)))
    return out


def _area2(poly):
    s = Fraction(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s)


def _old_exceeds_somewhere(piece, others):
    poly = list(_OLD_SQUARE)
    for tau in others:
        c0, cx, cy = piece[0] - tau[0], piece[1] - tau[1], piece[2] - tau[2]
        if cx == 0 and cy == 0:
            if c0 <= 0:
                return False
            continue
        poly = _old_clip(poly, c0, cx, cy)
        if len(poly) < 3:
            return False
        assert _area2(poly) > 0
    return _area2(poly) > 0


def _old_eval_separator(s, t):
    if s.is_bottom() or t.is_bottom():
        return POSSIBLY_EQUAL if s.is_bottom() and t.is_bottom() else DISTINCT
    ps, pt = _old_piece_set(s), _old_piece_set(t)
    if ps == pt:
        return POSSIBLY_EQUAL
    for piece in ps - pt:
        if _old_exceeds_somewhere(piece, pt):
            return DISTINCT
    for piece in pt - ps:
        if _old_exceeds_somewhere(piece, ps):
            return DISTINCT
    return POSSIBLY_EQUAL


_COEF = st.integers(-4, 4)
_TRIPLE = st.tuples(_COEF, _COEF, _COEF)


@given(_TRIPLE, st.lists(_TRIPLE, max_size=4))
@example((0, 1, 0), [(0, 0, 0)])  # the half x > 0: two corners lie on the line
@example((0, 0, 0), [(0, 1, -1), (0, -1, 1)])  # shrinks to the diagonal segment
@example((0, 0, 0), [(0, 1, -1), (2, -1, -1)])  # shrinks to the corner (1, 1)
@example((0, 0, 0), [(1, -4, 0), (-1, 2, 0)])  # the strip 1/4 <= x <= 1/2
@example((1, 0, 0), [(0, 0, 0)])  # constant differences: cx = cy = 0
@example((0, 0, 0), [(0, -1, 0), (1, 0, 0)])  # a clip, then a constant one
def test_exceeds_somewhere_matches_fraction_oracle(piece, others):
    frac = [tuple(Fraction(c) for c in tau) for tau in others]
    want = _old_exceeds_somewhere(tuple(Fraction(c) for c in piece), frac)
    assert _exceeds_somewhere(piece, others) == want


# the same integer arc (1, 0), (0, 3) over the scales 2 and 3
_ENV_HALF = _env((Fraction(1, 2), 0), (0, Fraction(3, 2)))
_ENV_THIRD = _env((Fraction(1, 3), 0), (0, 1))
# A(x) + 0 >= 1 everywhere, so the pair (0, 1) adds nothing to (A, 0), yet
# neither pair absorbs the other: its piece touches the envelope at x = 1/2
_ENV_A = _env((2, 0), (0, 2))
_T_A = FormalTensor.make([(_ENV_A, _env((0, 0)))])
_T_A_TOUCHED = FormalTensor.make([(_ENV_A, _env((0, 0))), (_env((0, 0)), _env((1, 1)))])


@given(_tensors(max_pairs=2), _tensors(max_pairs=2))
@example(FormalTensor.make([(_ENV_HALF, E_UNIT)]), FormalTensor.make([(_ENV_THIRD, E_UNIT)]))
@example(FormalTensor.make([(_ENV_HALF, _ENV_THIRD)]), FormalTensor.make([(_ENV_THIRD, _ENV_HALF)]))
@example(_T_A, _T_A_TOUCHED)
def test_separator_matches_fraction_oracle(s, t):
    assert eval_separator(s, t) == _old_eval_separator(s, t)


def test_separator_reads_the_integer_arcs_only(monkeypatch):
    # the tensors are built first: normalize sorts pairs by their lines
    a = FormalTensor.make([(_ENV_HALF, _ENV_THIRD)])
    b = FormalTensor.make([(_ENV_THIRD, _ENV_HALF)])

    def no_lines(self):
        raise AssertionError("the separator read the Fraction view")

    monkeypatch.setattr(Envelope, "lines", property(no_lines))
    assert eval_separator(a, b) == DISTINCT
    assert eval_separator(a, a) == POSSIBLY_EQUAL
    assert eval_separator(_T_A, _T_A_TOUCHED) == POSSIBLY_EQUAL


# ------------------------------------------------------------ reduced quotient


def test_reduced_structural_laws():
    rng = random.Random(5)
    for _ in range(60):
        x = ReducedElement(random_tensor(rng), random_tensor(rng))
        y = ReducedElement(random_tensor(rng), random_tensor(rng))
        sx, sy = reduced_add(x, y), reduced_add(y, x)
        assert sx.a == sy.a and sx.b == sy.b
        px, py = reduced_mul(x, y), reduced_mul(y, x)
        assert px.a == py.a and px.b == py.b


def test_gamma_is_injective_up_to_equality():
    assert reduced_equal(gamma(T_SQ), gamma(T_SQ)) == (EQUAL, FormalTensor.neutral())
    other = gamma(FormalTensor.make([(E_TWICE, E_UNIT)]))
    status, w = reduced_equal(gamma(FormalTensor.make([(E_UNIT, E_TWICE)])), other)
    assert status == DISTINCT and w is None


def test_reduced_equal_verdicts_are_sound():
    rng = random.Random(6)
    unknowns = 0
    for _ in range(120):
        a, b = random_tensor(rng), random_tensor(rng)
        c = random_tensor(rng)
        x = ReducedElement(tensor_product((a, c)), tensor_product((b, c)))
        y = ReducedElement(a, b)
        # x and y are equal in the quotient by construction (witness b*c works:
        # a*c * b * w == a * b*c * w for w built from the parts)
        status, w = reduced_equal(x, y, hint=tensor_product((b, c)))
        assert status != DISTINCT
        if status == EQUAL:
            assert tensor_product((x.a, y.b, w)) == tensor_product((y.a, x.b, w))
        else:
            unknowns += 1
    # the hinted certificate search is expected to close nearly every case
    assert unknowns <= 2


def test_cancellation_instances_certify():
    rng = random.Random(7)
    for _ in range(40):
        parts = [random_tensor(rng) for _ in range(5)]
        x, y, w = cancellation_instance(*parts)
        status, got = reduced_equal(x, y, hint=w)
        assert status == EQUAL
        assert tensor_product((x.a, y.b, got)) == tensor_product((y.a, x.b, got))


def test_experiment_is_deterministic_and_well_formed():
    recs = cancellativity_experiment(12, seed=9)
    again = cancellativity_experiment(12, seed=9)
    assert len(recs) == 12
    for r, r2 in zip(recs, again):
        assert r == r2
        assert r["factors_separator"] in (DISTINCT, POSSIBLY_EQUAL)
        assert r["products_separator"] in (DISTINCT, POSSIBLY_EQUAL)
        # normalize-equality of products forces the separator to agree
        if r["products_normalize_equal"]:
            assert r["products_separator"] == POSSIBLY_EQUAL
        # a sandwich violation would refute the open question's premise
        assert not r["sandwich_violation"] or r["factors_separator"] != DISTINCT


# ------------------------------------------------------------- witness search


def _eager_witness_candidates(parts, witness_bound, hint):
    """The candidate list as it was built before the search went lazy: all of it, then tested."""
    out = []
    seen = set()

    def push(c):
        if not c.is_bottom() and c not in seen:
            seen.add(c)
            out.append(c)

    if hint is not None:
        push(hint)
    push(FormalTensor.neutral())
    parts = [p for p in parts if not p.is_bottom()]
    level = [FormalTensor.neutral()]
    for _ in range(max(0, witness_bound)):
        nxt = []
        for base in level:
            for p in parts:
                c = tensor_product((base, p))
                if c not in seen:
                    push(c)
                    nxt.append(c)
                if len(out) >= 200:
                    return out
        level = nxt
    return out


def _eager_reduced_equal(x, y, witness_bound, hint):
    lhs = tensor_product((x.a, y.b))
    rhs = tensor_product((y.a, x.b))
    if lhs == rhs:
        return EQUAL, FormalTensor.neutral()
    if eval_separator(lhs, rhs) == DISTINCT:
        return DISTINCT, None
    for c in _eager_witness_candidates((x.a, x.b, y.a, y.b), witness_bound, hint):
        if tensor_product((x.a, y.b, c)) == tensor_product((y.a, x.b, c)):
            return EQUAL, c
    return UNKNOWN, None


def _line_pair(a, slope, m, tilt):
    return (_env((a, a + slope)), _env((m, m + tilt)))


def _search_instance(rng, extra_pairs=0):
    """gamma(T) and gamma(T minus p), where p = (k + s*x) (x) (m + t*y) lies under the max of two pairs of T.

    s*x + t*y <= max(2s*x, 2t*y), so the two sides are the same function, and
    T may carry random extra pairs of up to 5 lines.
    """
    s, t, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(-3, 3), rng.randint(-3, 3)
    low = [_line_pair(k, 2 * s, m, 0), _line_pair(k, 0, m, 2 * t)]
    low += [(random_envelope(rng, 5), random_envelope(rng, 5)) for _ in range(extra_pairs)]
    return gamma(FormalTensor.make(low + [_line_pair(k, s, m, t)])), gamma(FormalTensor.make(low))


# T minus the pair -2 (x) max(-y, 7y - 3) is the same function as T, and no
# product of the parts certifies the two equal
_T_UNDER = FormalTensor.make(
    [
        (_env((-3, 0)), _env((Fraction(-3, 2), -2))),
        (_env((-2, -2)), _env((0, -1), (-3, 4))),
        (_env((1, 0)), _env((-1, -4))),
        (_env((1, 3)), _env((-3, 4))),
    ]
)
_T_UNDER_DROPPED = FormalTensor(tuple(p for p in _T_UNDER.pairs if p[0] != _env((-2, -2))))


# four one-pair parts: products stay one pair, and depth 6 reaches the 200-candidate stop
_ONE_PAIR_PARTS = [
    FormalTensor.make([pair])
    for pair in ((E_UNIT, E_TWICE), (E_TWICE, E_UNIT), (E_UNIT, _env((1, 0))), (_env((0, 1)), E_UNIT))
]


@st.composite
def _reduced_instances(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "cancel", "cancel-hinted", "search", "search"]))
    if kind == "random":
        x = ReducedElement(random_tensor(rng), random_tensor(rng))
        y = ReducedElement(random_tensor(rng), random_tensor(rng))
        return x, y, random_tensor(rng) if draw(st.booleans()) else None
    if kind == "search":
        x, y = _search_instance(rng, draw(st.integers(0, 2)))
        return x, y, None
    x, y, w = cancellation_instance(*(random_tensor(rng) for _ in range(5)))
    return x, y, w if kind == "cancel-hinted" else None


def _answer_bytes(answer):
    status, witness = answer
    return wire.dumps({"status": status, "witness": wire.tensor_to_json(witness) if witness is not None else None})


@given(_reduced_instances(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
@example((*_search_instance(random.Random(0)), None), 2)
@example((gamma(_T_UNDER), gamma(_T_UNDER_DROPPED), None), 3)
@example((ReducedElement(*_ONE_PAIR_PARTS[:2]), ReducedElement(*_ONE_PAIR_PARTS[2:]), T_SQ), 6)
def test_lazy_witness_search_matches_the_eager_list(instance, witness_bound):
    x, y, hint = instance
    got = reduced_equal(x, y, witness_bound=witness_bound, hint=hint)
    assert _answer_bytes(got) == _answer_bytes(_eager_reduced_equal(x, y, witness_bound, hint))
    parts = (x.a, x.b, y.a, y.b)
    lazy = list(_witness_candidates(parts, witness_bound, hint, tensor_product))
    eager = _eager_witness_candidates(parts, witness_bound, hint)
    assert lazy == [c for c in eager if c != FormalTensor.neutral()]


@given(st.integers(0, 2**64))
@settings(deadline=None)
def test_a_neutral_factor_changes_no_product(seed):
    rng = random.Random(seed)
    s, t = random_tensor(rng), random_tensor(rng)
    assert tensor_product((s, t, FormalTensor.neutral())) == tensor_product((s, t))


def _counting_products(monkeypatch):
    calls = []

    def counted(factors):
        factors = tuple(factors)
        calls.append(math.prod(len(t.pairs) for t in factors))
        return tensor_product(factors)

    monkeypatch.setattr(tensorlab, "tensor_product", counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_witness_search_stops_at_the_first_certificate(monkeypatch, seed):
    # the search instance plus two random pairs: at depth 16 the eager list
    # made 66 products at depth 8 alone; the first product certifies
    rng = random.Random(seed)
    x, y = _search_instance(rng, extra_pairs=2)
    while x.a == y.a:  # an extra pair may lie over p, and then no search is needed
        x, y = _search_instance(rng, extra_pairs=2)
    calls = _counting_products(monkeypatch)
    status, _ = reduced_equal(x, y, witness_bound=16)
    assert status == EQUAL
    assert len(calls) <= 8


def test_a_fruitless_search_stops_at_the_pair_budget(monkeypatch):
    assert len(_T_UNDER.pairs) == 4 and len(_T_UNDER_DROPPED.pairs) == 3
    x, y = gamma(_T_UNDER), gamma(_T_UNDER_DROPPED)
    assert reduced_equal(x, y, witness_bound=3) == (UNKNOWN, None)
    calls = _counting_products(monkeypatch)
    with pytest.raises(OutOfBudget, match=f"crossed more than {MAX_WITNESS_PAIRS} pairs"):
        reduced_equal(x, y, witness_bound=16)
    # the two cross products come before the search; its own products stay within the budget
    assert sum(calls[2:]) <= MAX_WITNESS_PAIRS


# ------------------------------------------------------------- corpus replay


CORPUS = Path(__file__).parent / "data" / "tensor_corpus.jsonl"


def test_corpus_replays_exactly():
    lines = CORPUS.read_text().splitlines()
    assert len(lines) == 200
    for line in lines:
        rec = json.loads(line)
        a = wire.tensor_from_json(rec["a"])
        b = wire.tensor_from_json(rec["b"])
        assert eval_separator(a, b) == rec["separator"]
        assert wire.tensor_to_json(tensor_add(a, b)) == rec["sum"]
        assert wire.tensor_to_json(tensor_mul(a, b)) == rec["product"]
        assert (normalize(a) == normalize(b)) == rec["normalize_equal"]
        # serialization round-trips through the wire form
        assert wire.tensor_from_json(wire.tensor_to_json(a)) == a


# ---------------------------------------------------- generators, as they were


def _old_random_envelope(rng, max_lines=3, span=4):
    lines = []
    for _ in range(rng.randint(1, max_lines)):
        den = rng.choice((1, 1, 2))
        lines.append(
            (Fraction(rng.randint(-span, span), den), Fraction(rng.randint(-span, span), den))
        )
    return Envelope.of(lines)


def _old_lowered(rng, e):
    return Envelope.of([(a - rng.randint(1, 3), b - rng.randint(1, 3)) for a, b in e.lines])


@given(st.integers(0, 2**64), st.integers(1, 6), st.integers(0, 6))
def test_random_envelope_matches_the_fraction_generator(seed, max_lines, span):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(3):
        got, want = random_envelope(new, max_lines, span), _old_random_envelope(old, max_lines, span)
        assert (got.scale, got.arc) == (want.scale, want.arc)
    assert new.getstate() == old.getstate()


@given(st.integers(0, 2**64), st.integers(0, 2**64))
def test_lowered_matches_the_fraction_version(seed, draw_seed):
    e = random_envelope(random.Random(seed), max_lines=5)
    new, old = random.Random(draw_seed), random.Random(draw_seed)
    got, want = _lowered(new, e), _old_lowered(old, e)
    assert (got.scale, got.arc) == (want.scale, want.arc)
    assert new.getstate() == old.getstate()
