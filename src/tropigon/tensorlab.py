"""Formal tensors over the envelope semiring of Q(i) and the reduced quotient.

A FormalTensor is a finite set of envelope pairs standing for a sum of
elementary tensors.  True equality in the tensor product is not known to be
decidable here, so two one-sided oracles bracket it: `normalize` equality is
a sufficient certificate (every rewrite follows from bilinearity), and
`eval_separator` DISTINCT is a necessary refutation (it exhibits a concrete
bilinear map to B that disagrees).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .envelope import NEG_INF, Envelope, eval_at, leq, phi, phi_inv, tmax, tplus
from .errors import OutOfBudget, WrongField
from .polygeom import scale_act
from .quadfield import QuadInt, QuadRat

Pair = tuple[Envelope, Envelope]

DISTINCT = "distinct"
POSSIBLY_EQUAL = "possibly_equal"
EQUAL = "equal"
UNKNOWN = "unknown"

# Caps on the witness search of `reduced_equal`: the depth a caller may ask
# for, and the pairs its tensor products may cross in all.  Past the second
# the search raises OutOfBudget.
MAX_WITNESS_BOUND = 16
MAX_WITNESS_PAIRS = 5_000


def _sorted_pairs(pairs) -> tuple[Pair, ...]:
    """The pairs in the order of their `lines` views, compared in integers.

    Each arc is rescaled to the lcm L of all scales in the set: x -> x*L/s
    is strictly increasing, so the order is that of the rationals x/s.
    """
    lcm = math.lcm(*(e.scale for pair in pairs for e in pair))

    def rescaled(e: Envelope):
        m = lcm // e.scale
        return tuple((a * m, b * m) for a, b in e.arc)

    return tuple(sorted(pairs, key=lambda pair: (rescaled(pair[0]), rescaled(pair[1]))))


def _normalize_pairs(pairs) -> tuple[Pair, ...]:
    # a bottom component annihilates its pair: any bilinear map kills it
    cur = {(e, f) for e, f in pairs if not e.is_bottom() and not f.is_bottom()}
    while True:
        by_first: dict[Envelope, Envelope] = {}
        for e, f in cur:
            by_first[e] = tmax(by_first[e], f) if e in by_first else f
        merged = {(e, f) for e, f in by_first.items()}
        by_second: dict[Envelope, Envelope] = {}
        for e, f in merged:
            by_second[f] = tmax(by_second[f], e) if f in by_second else e
        merged = {(e, f) for f, e in by_second.items()}
        kept = {
            p
            for p in merged
            if not any(q != p and leq(p[0], q[0]) and leq(p[1], q[1]) for q in merged)
        }
        if kept == cur:
            return _sorted_pairs(cur)
        cur = kept


@dataclass(frozen=True)
class FormalTensor:
    pairs: tuple[Pair, ...]

    @staticmethod
    def make(pairs) -> FormalTensor:
        return FormalTensor(_normalize_pairs(pairs))

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
    if any(t.is_bottom() for t in factors):
        return FormalTensor.bottom()
    acc: list[Pair] = [(Envelope.zero(), Envelope.zero())]
    for t in factors:
        acc = [(tplus(e, e2), tplus(f, f2)) for e, f in acc for e2, f2 in t.pairs]
    return FormalTensor.make(acc)


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


@dataclass(frozen=True)
class ReducedElement:
    """A class of the pair quotient (a, b) ~ (a', b') iff a+b'+c = a'+b+c.

    The witness c ranges over non-bottom tensors; addition is written
    multiplicatively here, so the laws read like fraction arithmetic with
    tensor_mul as the common-denominator product.
    """

    a: FormalTensor
    b: FormalTensor


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
        if crossed > MAX_WITNESS_PAIRS:
            raise OutOfBudget(f"witness search crossed more than {MAX_WITNESS_PAIRS} pairs")
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
