"""Formal tensors over the envelope semiring of Q(i) and the reduced quotient.

A FormalTensor is a finite set of envelope pairs standing for a sum of
elementary tensors.  True equality in the tensor product is not known to be
decidable here, so two one-sided oracles bracket it: `normalize` equality is
a sufficient certificate (every rewrite follows from bilinearity), and
`eval_separator` DISTINCT is a necessary refutation (it exhibits a concrete
bilinear map to B that disagrees).

The normal form runs on one integer grid: every arc of its input is rescaled
once to the lcm L of the input's scales (all factors', for a product), so an
envelope is a tuple of integer points, equal exactly when the envelopes are.
A product's cross is `polygeom.chain_sum` on those arcs.  The fixpoint
merges pairs by first component, then by second (tmax is `envelope.grid_arc`
of the union), and drops every pair that another bounds in both components.
A pair can only be bounded by one whose four end values e(0) = arc[0][0],
e(1) = arc[-1][1], f(0) and f(1) are each at least as high; per end value
that set of pairs is one int of bits, and only pairs in all four sets are
walked (`polygeom.covers` on `envelope.leq_walk`, both scales L).  The kept
pairs come out sorted by their arcs, the order of their `lines` views, and
only they become `Envelope`s (an input arc maps back to its input
envelope, so only new arcs are reduced).  One normal form takes at most
MAX_TENSOR_PAIRS raw pairs; a product counts its cross before building it.
"""

from __future__ import annotations

import math
import random

from .envelope import NEG_INF, Envelope, eval_at, grid_arc, leq_walk, phi, phi_inv
from .errors import MAX_TENSOR_PAIRS, MAX_WITNESS_PAIRS, OutOfBudget, WrongField, within
from .polygeom import chain_sum, covers, lowest_terms, scale_act
from .quadfield import QuadInt, QuadRat, Value

Pair = tuple[Envelope, Envelope]

DISTINCT = "distinct"
POSSIBLY_EQUAL = "possibly_equal"
EQUAL = "equal"
UNKNOWN = "unknown"

_set = object.__setattr__


def _on_grid(pairs, scale: int, known: dict) -> list:
    # each envelope as its arc rescaled to `scale`, a multiple of its own;
    # `known` maps each such arc back to its envelope
    def arc(e: Envelope):
        m = scale // e.scale
        a = e.arc if m == 1 else tuple((x * m, y * m) for x, y in e.arc)
        known[a] = e
        return a

    return [(arc(e), arc(f)) for e, f in pairs]


def _merge(pairs) -> list:
    # pairs with one first component as one, their second components joined
    # by tmax; each comes out swapped, so two calls merge by both components
    groups: dict = {}
    for e, f in pairs:
        groups.setdefault(e, []).append(f)
    return [
        (fs[0] if len(fs) == 1 else tuple(grid_arc([p for f in fs for p in f])), e) for e, fs in groups.items()
    ]


def _at_least(values) -> list[int]:
    # for each value, the indices of the values at least as large, as bits
    sets: dict = {}
    for i, v in enumerate(values):
        sets[v] = sets.get(v, 0) | (1 << i)
    above = 0
    for v in sorted(sets, reverse=True):
        above = sets[v] = above | sets[v]
    return [sets[v] for v in values]


def _undominated(pairs) -> set:
    """Of distinct pairs, those (e, f) that no other pair bounds: e <= e' and f <= f'."""
    ends = [(e[0][0], e[-1][1], f[0][0], f[-1][1]) for e, f in pairs]
    walks = [(leq_walk(e), leq_walk(f)) for e, f in pairs]
    above = zip(*(_at_least(column) for column in zip(*ends)))
    kept = set()
    for i, (pair, (a, b, c, d)) in enumerate(zip(pairs, above)):
        rivals = a & b & c & d & ~(1 << i)
        while rivals:
            j = rivals.bit_length() - 1
            rivals ^= 1 << j
            if covers(walks[j][0], 1, pair[0], 1) and covers(walks[j][1], 1, pair[1], 1):
                break
        else:
            kept.add(pair)
    return kept


def _normal_form(pairs, scale: int, known: dict) -> FormalTensor:
    # a bottom component annihilates its pair: any bilinear map kills it
    cur = {(e, f) for e, f in pairs if e and f}
    while len(cur) > 1:
        kept = _undominated(_merge(_merge(cur)))
        if kept == cur:
            break
        cur = kept

    def envelope(arc) -> Envelope:
        # an input arc is its input envelope; only new arcs are reduced
        return known[arc] if arc in known else Envelope(*lowest_terms(scale, arc))

    return FormalTensor(tuple((envelope(e), envelope(f)) for e, f in sorted(cur)))


class FormalTensor(Value):
    __slots__ = ("pairs", "_hash")
    __match_args__ = ("pairs",)

    def __init__(self, pairs: tuple[Pair, ...]):
        _set(self, "pairs", pairs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        # stored at the first call
        try:
            return self._hash
        except AttributeError:
            h = hash((self.pairs,))
            _set(self, "_hash", h)
            return h

    @staticmethod
    def make(pairs) -> FormalTensor:
        pairs = list(pairs)
        within(len(pairs), MAX_TENSOR_PAIRS, OutOfBudget, "a tensor normal form takes more than {cap} pairs")
        scale = math.lcm(*(e.scale for pair in pairs for e in pair))
        known: dict = {}
        return _normal_form(_on_grid(pairs, scale, known), scale, known)

    @staticmethod
    def bottom() -> FormalTensor:
        return FormalTensor(())

    @staticmethod
    def neutral() -> FormalTensor:
        return FormalTensor(((Envelope.zero(), Envelope.zero()),))

    def is_bottom(self) -> bool:
        return not self.pairs

    def __repr__(self):
        if not self.pairs:
            return "FormalTensor(bottom)"
        body = "; ".join(f"{e} (x) {f}" for e, f in self.pairs)
        return f"FormalTensor({body})"


def normalize(t: FormalTensor) -> FormalTensor:
    return FormalTensor.make(t.pairs)


def tensor_add(s: FormalTensor, t: FormalTensor) -> FormalTensor:
    return FormalTensor.make(s.pairs + t.pairs)


def tensor_product(factors) -> FormalTensor:
    """Product of any number of tensors, normalized once at the end.

    The cross of the raw pair sets depends only on the multiset of factors
    (pointwise + of envelopes is associative and commutative), so two
    regroupings of the same factors agree on the nose.
    """
    factors = list(factors)
    if not factors:
        return FormalTensor.neutral()
    if any(t.is_bottom() for t in factors):
        return FormalTensor.bottom()
    raw = math.prod(len(t.pairs) for t in factors)
    within(raw, MAX_TENSOR_PAIRS, OutOfBudget, "a tensor normal form takes more than {cap} pairs")
    scale = math.lcm(*(e.scale for t in factors for pair in t.pairs for e in pair))
    known: dict = {}
    cross, *rest = (_on_grid(t.pairs, scale, known) for t in factors)
    for pairs in rest:
        cross = [(tuple(chain_sum(e, e2)), tuple(chain_sum(f, f2))) for e, f in cross for e2, f2 in pairs]
    return _normal_form(cross, scale, known)


def tensor_mul(s: FormalTensor, t: FormalTensor) -> FormalTensor:
    return tensor_product((s, t))


def act_pair(alpha: QuadInt, beta: QuadInt, t: FormalTensor) -> FormalTensor:
    if alpha.field.d != 1 or beta.field.d != 1:
        raise WrongField("the tensor action is built over d=1")

    def act(k: QuadInt, e: Envelope) -> Envelope:
        return phi(scale_act(QuadRat(k, 1), phi_inv(e)))

    return FormalTensor.make([(act(alpha, e), act(beta, f)) for e, f in t.pairs])


def eval_tensor_at(t: FormalTensor, x, y):
    """max over pairs of e(x) + f(y); -inf on the bottom tensor."""
    if t.is_bottom():
        return NEG_INF
    return max(eval_at(e, x) + eval_at(f, y) for e, f in t.pairs)


# the unit square's corners as homogeneous points (X, Y, W), W > 0
_SQUARE = ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))


def _clip(poly, c0: int, cx: int, cy: int):
    # Sutherland-Hodgman: keep the side c0*W + cx*X + cy*Y >= 0
    vals = [c0 * w + cx * x + cy * y for x, y, w in poly]
    out = []
    for p, v1, q, v2 in zip(poly, vals, poly[1:] + poly[:1], vals[1:] + vals[:1]):
        if v1 >= 0:
            out.append(p)
        if (v1 > 0 > v2) or (v1 < 0 < v2):
            # |v2|*p + |v1|*q lies on the line; positive weights keep W > 0
            a, b = abs(v2), abs(v1)
            x, y, w = (a * i + b * j for i, j in zip(p, q))
            g = math.gcd(x, y, w)
            out.append((x // g, y // g, w // g))
    return out


def _exceeds_somewhere(piece, others) -> bool:
    """Does the piece rise strictly above max(others) anywhere on the square?

    The strict system is feasible iff the closed clipped region has positive
    area: a nonconstant affine constraint vanishes only on a line, so a
    two-dimensional closed region contains a point satisfying every strict
    inequality.  No area pass is needed.  Clipping a convex region of positive
    area either keeps a vertex with value > 0, and then the open half-plane
    holds a piece of the region of positive area, or keeps only vertices on
    the line, of which a convex region has at most two.  So three or more
    vertices after every clip mean positive area.
    """
    poly = list(_SQUARE)
    for tau in others:
        c0, cx, cy = piece[0] - tau[0], piece[1] - tau[1], piece[2] - tau[2]
        if cx == 0 and cy == 0:
            if c0 <= 0:
                return False
            continue
        poly = _clip(poly, c0, cx, cy)
        if len(poly) < 3:
            return False
    return True


def eval_separator(s: FormalTensor, t: FormalTensor) -> str:
    """DISTINCT soundly refutes tensor equality via the bilinear threshold family.

    Each map (e, f) -> [e(x) + f(y) >= theta] is bilinear into B, so equal
    tensors induce the same bivariate upper envelope on the unit square.
    """
    if s.is_bottom() or t.is_bottom():
        return POSSIBLY_EQUAL if s.is_bottom() and t.is_bottom() else DISTINCT
    # each piece (p, q, r) is the affine function (p + q*x + r*y)/scale on the
    # unit square, read off the integer arcs over one common denominator
    scale = math.lcm(*(e.scale for u in (s, t) for pair in u.pairs for e in pair))
    ps, pt = set(), set()
    for u, out in ((s, ps), (t, pt)):
        for e, f in u.pairs:
            m, n = scale // e.scale, scale // f.scale
            out.update(
                (a1 * m + a2 * n, (b1 - a1) * m, (b2 - a2) * n)
                for a1, b1 in e.arc
                for a2, b2 in f.arc
            )
    if ps == pt:
        return POSSIBLY_EQUAL
    for piece in ps - pt:
        if _exceeds_somewhere(piece, pt):
            return DISTINCT
    for piece in pt - ps:
        if _exceeds_somewhere(piece, ps):
            return DISTINCT
    return POSSIBLY_EQUAL


class ReducedElement(Value):
    """A class of the pair quotient (a, b) ~ (a', b') iff a+b'+c = a'+b+c.

    The witness c ranges over non-bottom tensors; addition is written
    multiplicatively here, so the laws read like fraction arithmetic with
    tensor_mul as the common-denominator product.
    """

    __slots__ = ("a", "b")
    __match_args__ = __slots__

    def __init__(self, a: FormalTensor, b: FormalTensor):
        _set(self, "a", a)
        _set(self, "b", b)


def gamma(t: FormalTensor) -> ReducedElement:
    return ReducedElement(t, FormalTensor.neutral())


def reduced_add(x: ReducedElement, y: ReducedElement) -> ReducedElement:
    num = tensor_add(tensor_product((x.a, y.b)), tensor_product((y.a, x.b)))
    return ReducedElement(num, tensor_product((x.b, y.b)))


def reduced_mul(x: ReducedElement, y: ReducedElement) -> ReducedElement:
    return ReducedElement(tensor_product((x.a, y.a)), tensor_product((x.b, y.b)))


def _witness_candidates(parts, witness_bound: int, hint: FormalTensor | None, product):
    """Yield the witness candidates one at a time, each as soon as it is built.

    The order is the hint, then each level of products of the previous level
    with the parts, up to `witness_bound` levels and 200 distinct candidates.
    The neutral tensor counts among the 200 and seeds the first level, but is
    not yielded: a product with it changes nothing, so it could only certify
    cross tensors that are already equal.  `product` builds each candidate.
    """
    seen: set[FormalTensor] = {FormalTensor.neutral()}
    if hint is not None and not hint.is_bottom() and hint not in seen:
        seen.add(hint)
        yield hint
    parts = [p for p in parts if not p.is_bottom()]
    level = [FormalTensor.neutral()]
    for _ in range(max(0, witness_bound)):
        nxt = []
        for base in level:
            for p in parts:
                c = product((base, p))
                if c not in seen:
                    seen.add(c)
                    yield c
                    nxt.append(c)
                if len(seen) >= 200:
                    return
        level = nxt


def reduced_equal(
    x: ReducedElement, y: ReducedElement, witness_bound: int = 2, hint: FormalTensor | None = None
) -> tuple[str, FormalTensor | None]:
    """EQUAL with a certifying witness, DISTINCT via the separator, else UNKNOWN.

    The cross tensors a+b' and a'+b are compared directly: any witness c adds
    the same finite bivariate envelope to both sides, so a separator verdict
    on the cross pair already quantifies over every admissible witness.
    Witness candidates are tested as they are built, so the search stops at
    the first that certifies.  The pairs that its products cross, summed,
    may not pass MAX_WITNESS_PAIRS; past it the search raises OutOfBudget.
    """
    lhs = tensor_product((x.a, y.b))
    rhs = tensor_product((y.a, x.b))
    if lhs == rhs:
        return EQUAL, FormalTensor.neutral()
    if eval_separator(lhs, rhs) == DISTINCT:
        return DISTINCT, None
    crossed = 0

    def product(factors) -> FormalTensor:
        nonlocal crossed
        crossed += math.prod(len(t.pairs) for t in factors)
        within(crossed, MAX_WITNESS_PAIRS, OutOfBudget, "witness search crossed more than {cap} pairs")
        return tensor_product(factors)

    for c in _witness_candidates((x.a, x.b, y.a, y.b), witness_bound, hint, product):
        if product((x.a, y.b, c)) == product((y.a, x.b, c)):
            return EQUAL, c
    return UNKNOWN, None


def cancellation_instance(
    a: FormalTensor,
    b: FormalTensor,
    c: FormalTensor,
    d: FormalTensor,
    e: FormalTensor,
) -> tuple[ReducedElement, ReducedElement, FormalTensor]:
    """Instance of the cancellativity proof: x*(c,d) and y*(c,d) with y = x shifted by e.

    Returns (x*(c,d), y*(c,d), c+d): the product pairs are equivalent by
    construction and the returned tensor is the witness the proof exhibits.
    """
    x = ReducedElement(tensor_product((a, c)), tensor_product((b, d)))
    y = ReducedElement(tensor_product((a, e, c)), tensor_product((b, e, d)))
    return x, y, tensor_product((c, d))


def random_envelope(rng: random.Random, max_lines: int = 3, span: int = 4) -> Envelope:
    # each line is (n1/den, n2/den) with den drawn from (1, 1, 2), built over 2
    lines = []
    for _ in range(rng.randint(1, max_lines)):
        m = 2 // rng.choice((1, 1, 2))
        lines.append((rng.randint(-span, span) * m, rng.randint(-span, span) * m))
    return Envelope.from_grid(lines, 2)


def random_tensor(
    rng: random.Random,
    max_pairs: int = 2,
    max_lines: int = 3,
    span: int = 4,
    bottom_rate: float = 0.0,
) -> FormalTensor:
    if bottom_rate and rng.random() < bottom_rate:
        return FormalTensor.bottom()
    pairs = [
        (random_envelope(rng, max_lines, span), random_envelope(rng, max_lines, span))
        for _ in range(rng.randint(1, max_pairs))
    ]
    return FormalTensor.make(pairs)


def cancellativity_experiment(sample_size: int, seed: int = 0) -> list[dict]:
    """Sample (a, a', c) with a != a' and report how the oracles see a+c vs a'+c.

    Report only: the underlying question is open, so no record carries a
    verdict, just both oracle outputs and a candidate flag for the pairs
    where the products stay unseparated while the factors are separated.
    """
    rng = random.Random(seed)
    records = []
    for i in range(sample_size):
        a = random_tensor(rng)
        a2 = random_tensor(rng)
        while a2 == a:
            a2 = random_tensor(rng)
        c = random_tensor(rng)
        pa = tensor_product((a, c))
        pb = tensor_product((a2, c))
        factors_sep = eval_separator(a, a2)
        products_sep = eval_separator(pa, pb)
        products_norm_equal = pa == pb
        records.append(
            {
                "sample": i,
                "a": a,
                "a_prime": a2,
                "c": c,
                "factors_separator": factors_sep,
                "products_separator": products_sep,
                "products_normalize_equal": products_norm_equal,
                "candidate": factors_sep == DISTINCT and products_sep == POSSIBLY_EQUAL,
                "sandwich_violation": products_norm_equal and factors_sep == DISTINCT,
            }
        )
    return records
