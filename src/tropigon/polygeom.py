"""Idempotent semiring of unit-symmetric convex polygons.

A value's CCW integer orbit hull is symmetric under -1, so its upper chain
is its lower chain negated, and a value is stored as its lower chain
(`lower`): the hull's vertices from its lexicographically least one to that
vertex's negation, over a denominator `scale`, in lowest terms: divided by
gcd(scale, *coordinates), so that equal polygons compare and hash equal.
EMPTY is the empty chain and ZERO the origin alone, both over scale 1; any
other chain is a proper polygon.  `hull`, the chain followed by its negated
inner points, is a cached view.  `Envelope` stores its values in the same
encoding, and the point helpers below (`to_grid`, `over_lcm`,
`lowest_terms`) are shared by both.  Every kernel works on integer points
over a common denominator, so everything is exact, and the empty set and the
origin need no case of their own.  `from_grid` and `hull_union`, on the two
lower chains, make one `monotone_chain` pass, the only hull routine;
`minkowski_sum` merges the two lower chains' edges by angle (`chain_sum`,
linear in the vertex count); `scale_act` maps the hull's vertices, because
multiplying by a nonzero scalar keeps them the vertices of the image, and
keeps the half from the least one.  The membership search's sector cover is
one `from_grid` call.  Its candidates m*D_K are the lattice points (a, b) of
one polygon, an interval of a per row b found by floor division
(`_candidates`), each D_K's lower chain mapped by m with no polygon built
for it, and each polygon the search reaches is its support vector packed
into one int.  `covers` is the one half-plane test: `contains_polygon`, on
two lower chains, and `envelope.leq` call it.

The canonical sector vertices (one per unit orbit, argument in
[0, 2*pi/sigma), sorted by increasing argument) are one cyclic run of the
hull, and `sector_elements` gives them as elements of K through
`quadfield.from_affix`.  `sector` and `orbit_points` are rational plane
views of the hull, kept for callers that read plane points.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import cache, cached_property
from operator import lshift

from .errors import (
    MAX_MEMBERSHIP_NODES,
    MAX_MEMBERSHIP_NORM,
    NotLattice,
    NotProper,
    OutOfBudget,
    WrongField,
    ZeroInput,
    within,
)
from .quadfield import Field, PlanePoint, QuadInt, QuadRat, Value, from_affix, gcd, same_field

EMPTY = "empty"
ZERO = "zero"
PROPER = "proper"

_set = object.__setattr__


def to_grid(pairs):
    """Rational pairs (x, y) as integer points over the lcm of their denominators."""
    pairs = list(pairs)
    s = math.lcm(1, *(c.denominator for p in pairs for c in p))
    return [(x.numerator * (s // x.denominator), y.numerator * (s // y.denominator)) for x, y in pairs], s


def over_lcm(p, s: int, q, t: int):
    """Integer points p over s and q over t, both rescaled to lcm(s, t)."""
    u = math.lcm(s, t)
    m, n = u // s, u // t
    return [(x * m, y * m) for x, y in p], [(x * n, y * n) for x, y in q], u


def lowest_terms(scale: int, pts):
    """(scale, points) divided by gcd(scale, *coordinates); points become a tuple."""
    g = math.gcd(scale, *(c for p in pts for c in p))
    if g == 1:
        return scale, tuple(pts)
    return scale // g, tuple((x // g, y // g) for x, y in pts)


def monotone_chain(pts):
    # Andrew's monotone chain (IPL 9(5), 1979) on points already sorted: the
    # chain turning strictly left, the lower hull of ascending points and the
    # upper hull of descending ones; only a repeated lone point stays doubled
    out = []
    for p in pts:
        while len(out) >= 2:
            ox, oy = out[-2]
            ax, ay = out[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                out.pop()
            else:
                break
        out.append(p)
    return out


def _orbit_expand(f: Field, pts, scale):
    # closes an integer point set under the unit action; d = 3 doubles the grid
    if f.sigma == 4:
        pts = [q for x, y in pts for q in ((x, y), (-y, x))]
    elif f.sigma == 6:
        pts = [q for x, y in pts for q in ((2 * x, 2 * y), (x - 3 * y, x + y), (-x - 3 * y, x - y))]
        scale *= 2
    return {q for x, y in pts for q in ((x, y), (-x, -y))}, scale


def _edges(chain):
    # the edge vectors chain[i + 1] - chain[i]
    return [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(chain, chain[1:])]


def chain_sum(p, q):
    """The Minkowski sum of two convex chains, by merging their edges by angle.

    Precondition: p and q are walks over integer vertices, CCW with strict
    turns, that start at their extreme vertex in one shared direction: lower
    chains from the lexicographically least vertex (edges in (-pi/2, pi/2]),
    or envelope arcs from the greatest.  Then two edges that the merge
    compares are less than pi apart, so one cross product orders them.  The
    sum starts at p[0] + q[0] and joins parallel edges, so its turns are
    strict too; O(len(p) + len(q)) steps.  A single point has no edge, so
    it moves the other chain.  An empty chain gives [].
    """
    if not p or not q:
        return []
    e, f = _edges(p), _edges(q)
    steps = []
    i = j = 0
    while i < len(e) and j < len(f):
        (ax, ay), (bx, by) = e[i], f[j]
        c = ax * by - ay * bx
        if c >= 0:
            i += 1
        if c <= 0:
            j += 1
        steps.append((ax, ay) if c > 0 else (bx, by) if c < 0 else (ax + bx, ay + by))
    x, y = p[0][0] + q[0][0], p[0][1] + q[0][1]
    out = [(x, y)]
    for dx, dy in steps + e[i:] + f[j:]:
        x += dx
        y += dy
        out.append((x, y))
    return out


def _mul_affix(f: Field, pts, u: int, v: int):
    # each point (x, y) times the plane point (u, v), as (x + y*sqrt(d)i)(u + v*sqrt(d)i)
    return [(x * u - f.d * y * v, x * v + y * u) for x, y in pts]


def _half_normals(chain):
    # the primitive outward normals of a CCW chain from a vertex v of a
    # centrally symmetric hull to -v: the hull's other edges are these negated
    out = []
    for ex, ey in _edges(chain):
        g = math.gcd(ex, ey)
        out.append((ey // g, -ex // g))
    return out


def _upper(n):
    # the one of n, -n that is lexicographically positive
    return n if n > (0, 0) else (-n[0], -n[1])


def covers(walk, s: int, pts, t: int) -> bool:
    """Every point (x/t, y/t) has cross(b - a, p - a) >= 0, times s*t, for each
    edge a -> b of the integer walk over s; a closed hull walks hull + hull[:1]."""
    for (ax, ay), (bx, by) in zip(walk, walk[1:]):
        ex, ey = bx - ax, by - ay
        c = t * (ex * ay - ey * ax)
        for x, y in pts:
            if s * (ex * y - ey * x) < c:
                return False
    return True


class SymPolygon(Value):
    __slots__ = ("field", "scale", "lower", "_hash", "__dict__")  # the views are cached in __dict__
    __match_args__ = ("field", "scale", "lower")

    def __init__(self, field: Field, scale: int, lower: tuple[tuple[int, int], ...]):
        _set(self, "field", field)
        _set(self, "scale", scale)
        _set(self, "lower", lower)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.scale, self.lower) == (other.field, other.scale, other.lower)

    def __hash__(self):
        # stored at the first call
        try:
            return self._hash
        except AttributeError:
            h = hash((self.field, self.scale, self.lower))
            _set(self, "_hash", h)
            return h

    @property
    def tag(self) -> str:
        return EMPTY if not self.lower else ZERO if len(self.lower) == 1 else PROPER

    @cached_property
    def hull(self) -> tuple[tuple[int, int], ...]:
        """The whole CCW hull: `lower`, then its inner points negated."""
        return self.lower + tuple((-x, -y) for x, y in self.lower[1:-1])

    @staticmethod
    def empty(f: Field) -> SymPolygon:
        return SymPolygon(f, 1, ())

    @staticmethod
    def zero(f: Field) -> SymPolygon:
        return SymPolygon(f, 1, ((0, 0),))

    @staticmethod
    def from_points(f: Field, points) -> SymPolygon:
        return SymPolygon.from_grid(f, *to_grid((p.x, p.y) for p in points))

    @staticmethod
    def from_grid(f: Field, grid, scale: int) -> SymPolygon:
        """The hull of the unit orbits of the points (x/scale, y/scale), (x, y) in grid."""
        return SymPolygon._from_orbit(f, *_orbit_expand(f, grid, scale))

    @staticmethod
    def _from_orbit(f: Field, pts, scale: int) -> SymPolygon:
        # pts hold the lower chain of a set closed under -1, so a one-point
        # chain is the origin and a two-point one a segment through it; the
        # set drops repeats
        lower = monotone_chain(sorted(set(pts)))
        if len(lower) == 2:
            raise NotProper("orbit hull has empty interior")
        return SymPolygon(f, *lowest_terms(scale, lower))

    def _sector_run(self) -> list[tuple[tuple[int, int], QuadInt]]:
        # The hull runs CCW around the origin and the sector is a cone of angle
        # at most pi, so the sector vertices are one cyclic run of the hull.
        # Each comes with its ring coordinates over `scale`.
        if self.tag != PROPER:
            return []
        f = self.field
        run = [((x, y), from_affix(f, x, y)) for x, y in self.hull]
        inside = [q.in_sector() for _, q in run]
        start = next(i for i, ok in enumerate(inside) if ok and not inside[i - 1])
        return (run[start:] + run[:start])[: sum(inside)]

    @cached_property
    def sector(self) -> tuple[PlanePoint, ...]:
        """The sector vertices as rational plane points: a view kept for callers."""
        s = self.scale
        return tuple(PlanePoint(Fraction(x, s), Fraction(y, s)) for (x, y), _ in self._sector_run())

    @cached_property
    def sector_elements(self) -> tuple[QuadRat, ...]:
        """The sector vertices as elements of K, in the order of `sector`."""
        return tuple(QuadRat.make(q, self.scale) for _, q in self._sector_run())

    def orbit_points(self) -> list[PlanePoint]:
        """The hull vertices as rational plane points: a view kept for callers."""
        s = self.scale
        return [PlanePoint(Fraction(x, s), Fraction(y, s)) for x, y in self.hull]

    def contains_polygon(self, other: SymPolygon) -> bool:
        if self.tag != PROPER:
            return other.tag == EMPTY or self.tag == other.tag
        # both hulls are symmetric under -1: a point of `other` outside an
        # upper edge has its negative, also a point of `other`, outside the
        # lower edge it mirrors.  A lower edge's outward normal has angle in
        # (-pi, 0], and in every such direction `other` attains its maximum
        # at a vertex of its lower chain (the chain runs from the least x to
        # the greatest), so that chain is the only point set to test.
        return covers(self.lower, self.scale, other.lower, other.scale)

    def __repr__(self):
        if self.tag != PROPER:
            return f"SymPolygon(d={self.field.d}, {self.tag})"
        vs = ", ".join(f"({p.x},{p.y})" for p in self.sector)
        return f"SymPolygon(d={self.field.d}, [{vs}])"


@cache
def dk(f: Field) -> SymPolygon:
    return SymPolygon.from_grid(f, [f.one.affix(), f.omega.affix()], f.case)


def hull_union(a: SymPolygon, b: SymPolygon) -> SymPolygon:
    same_field(a, b)
    # the union's lower chain is that of the two operands' lower chains
    p, q, s = over_lcm(a.lower, a.scale, b.lower, b.scale)
    return SymPolygon._from_orbit(a.field, p + q, s)


def minkowski_sum(a: SymPolygon, b: SymPolygon) -> SymPolygon:
    same_field(a, b)
    p, q, s = over_lcm(a.lower, a.scale, b.lower, b.scale)
    return SymPolygon(a.field, *lowest_terms(s, chain_sum(p, q)))


def scale_act(mu: QuadRat, a: SymPolygon) -> SymPolygon:
    same_field(mu, a)
    # mu is the plane point (u, v) over case*den.  For mu != 0, multiplying by it
    # is linear with determinant u^2 + d*v^2 > 0 and commutes with the units, so
    # the image of the CCW hull is the new hull, with strict turns; its lower
    # chain is the half from its least vertex.  mu = 0 sends every vertex to
    # the origin.
    f = a.field
    u, v = mu.num.affix()
    pts = _mul_affix(f, a.hull, u, v)
    if not (u or v):
        pts = pts[:1]
    i = min(range(len(pts)), key=pts.__getitem__, default=0)
    lower = (pts[i:] + pts[:i])[: len(pts) // 2 + 1]
    return SymPolygon(f, *lowest_terms(a.scale * f.case * mu.den, lower))


class GeneratorDecomposition(Value):
    __slots__ = ("summand_sets",)
    __match_args__ = __slots__

    def __init__(self, summand_sets: tuple[tuple[QuadRat, ...], ...]):
        _set(self, "summand_sets", summand_sets)

    def replay(self, f: Field) -> SymPolygon:
        base = dk(f)
        acc = SymPolygon.empty(f)
        for ms in self.summand_sets:
            term = SymPolygon.zero(f)
            for h in ms:
                term = minkowski_sum(term, scale_act(h, base))
            acc = hull_union(acc, term)
        return acc


def _sector_cover(f: Field, sector_ints) -> SymPolygon:
    # the hull union of the s*D_K over ring elements s: s*D_K is the hull of
    # the unit orbits of s and s*omega, so the union is one orbit hull
    return SymPolygon.from_grid(f, [q.affix() for s in sector_ints for q in (s, s * f.omega)], f.case)


def _candidates(scaled: SymPolygon, walls, bound: int) -> list[tuple[QuadInt, list[tuple[int, int]]]]:
    """The m in the sector (b > 0, or b = 0 < a) with m*D_K inside `scaled`,
    b ascending, then a, each with D_K's lower chain mapped by m over
    dk(f).scale*case, unrotated and unreduced.

    For d not in {1, 3}: `walls` are `_half_normals(scaled.lower)` and
    `bound` is at least the norm of each vertex of `scaled`.  Both polygons
    are symmetric under -1, so m*D_K lies in `scaled` exactly when
    |n.(m*q)| <= h for each wall n and each q of D_K's lower chain but its
    end, the negation of its start, where h is n's value on `scaled` over
    D_K's scale, rounded down.  A support function is maximised at an
    edge's outward normal on that edge, so wall i's value is n_i.lower[i].
    n.(m*q) = alpha*a + beta*b, so on each row b the admissible a are one
    interval.  The norm is largest at a vertex, so every such m has norm at
    most `bound`, and rows past that bound hold none.  m != 0 acts linearly
    with positive determinant and commutes with the units, so the mapped
    chain is CCW with strict turns, from a vertex of m*D_K to its negation.
    """
    f = scaled.field
    base = dk(f)
    bscale = base.scale * f.case
    tr, d, c = f.trace_omega, f.d, f.case
    ineqs = []
    for (nx, ny), (x, y) in zip(walls, scaled.lower):
        h = (nx * x + ny * y) * bscale // scaled.scale
        for qx, qy in base.lower[:-1]:
            # m's affix is (c*a + tr*b, b) over c
            al, be = c * (nx * qx + ny * qy), nx * (tr * qx - d * qy) + ny * (qx + tr * qy)
            ineqs.append((al, be, h) if al >= 0 else (-al, -be, h))
    out = []
    for b in range(math.isqrt(4 * bound // -f.discriminant) + 1):
        # D_K's lower chain spans the plane, so some alpha > 0 bounds both ends
        lo, hi = (1 if b == 0 else -math.inf), math.inf
        for al, be, h in ineqs:
            if al:
                lo, hi = max(lo, -((h + be * b) // al)), min(hi, (h - be * b) // al)
            elif abs(be * b) > h:
                break
        else:
            for a in range(lo, hi + 1):
                m = QuadInt(f, a, b)
                out.append((m, _mul_affix(f, base.lower, *m.affix())))
    return out


def membership_in_generated(
    p: SymPolygon, gens: list[QuadRat] | None = None
) -> tuple[bool, GeneratorDecomposition | None]:
    """Decide p in Semiring({h*D_K : h in the ideal generated by gens}).

    gens defaults to [1] (the full ring).  On success the witness decomposition
    replays to p exactly: each multiset is one Minkowski sum, the list is
    joined by hull-union.
    """
    f = p.field
    if gens is None:
        gens = [QuadRat.from_int(f, 1)]
    for h in gens:
        same_field(h, p)
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

    def times_g(m: QuadInt) -> QuadRat:
        # g*m as one ring product: no QuadRat wrap of m and no second field check
        return QuadRat.make(g.num * m, g.den)

    scaled = scale_act(g.inverse(), p)
    if any(q.den != 1 for q in scaled.sector_elements):
        return False, None
    sector_ints = [q.num for q in scaled.sector_elements]

    if _sector_cover(f, sector_ints) == scaled:
        dec = GeneratorDecomposition(tuple((times_g(s),) for s in sector_ints))
        return True, dec
    if f.sigma > 2:
        # with enough symmetries the sector decomposition is exact, so this
        # polygon is not in the semiring
        return False, None

    # breadth-first closure over Minkowski sums of admissible generators
    bound = max(s.norm() for s in sector_ints)
    within(bound, MAX_MEMBERSHIP_NORM, OutOfBudget, "membership search norm bound {value} is over {cap}")
    walls = _half_normals(scaled.lower)
    cand = _candidates(scaled, walls, bound)

    # Each node is a polygon's integer support vector over a direction set N:
    # the primitive outward edge normals of `scaled` (first, so that they are
    # the first lanes below) and of every candidate, then for each vertex v of
    # `scaled` the sum n1 + n2 of the normals of its two edges.  The values
    # are integers over big = lcm(scaled.scale, bscale).  This is exact:
    # - support functions add, h_{A+B} = h_A + h_B, so a child is the sum of
    #   its parent's vector and its candidate's;
    # - a Minkowski sum's edge normals are the union of its summands', so
    #   each reached polygon is the intersection of its half-planes over N,
    #   and two reached polygons are equal exactly when their vectors are;
    # - `scaled` is the intersection of its own half-planes, so a polygon
    #   lies in it exactly when its vector is <= `top` at those normals;
    # - n1 + n2 lies strictly inside v's normal cone, where v is the only
    #   maximiser over `scaled`, so a polygon inside `scaled` contains v
    #   exactly when it is tight there: its h at n1 + n2 equals `scaled`'s;
    # - the hull of the reached polygons is `scaled` exactly when every
    #   vertex of `scaled` lies in one of them, as the extreme points of a
    #   hull lie in the union;
    # - every polygon here is symmetric under -1, so h(n) = h(-n) is the
    #   max of |n.p| over a chain from a vertex to its negation, N keeps
    #   each direction only up to sign (`_upper`), and the corners of the
    #   lower chain of `scaled` but its end are, up to sign, those of all of
    #   its vertices;
    # - none of this depends on the order of N, or on a common scale larger
    #   than the lcm of the reduced ones, which multiplies every vector by
    #   one positive constant.
    # So the queue order, the first multiset per node and the answer are
    # those of the search on polygons, and no polygon is built per node or
    # per candidate.
    #
    # A vector is packed into one int, lane i holding its value at N[i] in
    # w bits from bit w*i, with w = (2*max(top)).bit_length() + 1:
    # - every lane is nonnegative: each candidate and each reached polygon
    #   contains the origin, and lies in `scaled`, so its value at N[i] is
    #   in [0, top[i]];
    # - a child is a node plus a candidate, so each of its lanes is at most
    #   2*max(top) < 2**(w - 1): adding packed ints carries out of no lane,
    #   and the lane's top bit, its guard bit, stays clear;
    # - in lim, wall lane i holds top[i] with the guard bit set, so
    #   lim - (child & wallmask) is, lane by lane, 2**(w - 1) + top[i] -
    #   child[i], in (0, 2**w): no lane borrows, and the guard bit survives
    #   exactly when child[i] <= top[i].
    # A node's multiset is a sorted tuple of candidate ranks in (a, b) order.
    bscale = dk(f).scale * f.case
    prev = [(-walls[-1][0], -walls[-1][1])] + walls[:-1]
    corners = [(x1 + x2, y1 + y2) for (x1, y1), (x2, y2) in zip(prev, walls)]
    others = [n for _, pts in cand for n in _half_normals(pts)] + corners
    dirs = list(dict.fromkeys(map(_upper, walls + others)))
    big = math.lcm(scaled.scale, bscale)

    def support(chain, scale: int) -> list[int]:
        k = big // scale
        out = [0] * len(dirs)
        for x, y in chain:
            out = list(map(max, out, [abs(nx * x + ny * y) for nx, ny in dirs]))
        return [v * k for v in out]

    top = support(scaled.lower, scaled.scale)
    w = (2 * max(top)).bit_length() + 1

    def pack(vals) -> int:
        return sum(map(lshift, vals, range(0, w * len(vals), w)))

    nw = len(walls)
    wallmask = (1 << (w * nw)) - 1
    guard = pack([1 << (w - 1)] * nw)
    lim = pack(top[:nw]) | guard
    mask = (1 << w) - 1
    tips = [(w * i, top[i]) for i in dict.fromkeys(dirs.index(_upper(c)) for c in corners)]
    ms = sorted((m for m, _ in cand), key=lambda m: (m.a, m.b))
    rank = {m: r for r, m in enumerate(ms)}
    vecs = [(rank[m], pack(support(pts, bscale))) for m, pts in cand]

    seen: dict[int, tuple[int, ...]] = {}
    queue = deque()

    def reach(v: int, rs: tuple[int, ...]):
        seen[v] = rs
        queue.append(v)
        within(len(seen), MAX_MEMBERSHIP_NODES, OutOfBudget, "membership search reached more than {cap} nodes")

    for r, v in vecs:
        if v not in seen:
            reach(v, (r,))
    while queue:
        cur = queue.popleft()
        rs = seen[cur]
        for r, v in vecs:
            nxt = cur + v
            if nxt in seen or (lim - (nxt & wallmask)) & guard != guard:
                continue
            reach(nxt, tuple(sorted(rs + (r,))))

    if not all(any((v >> s) & mask == t for v in seen) for s, t in tips):
        return False, None
    gm = [times_g(m) for m in ms]
    dec = GeneratorDecomposition(tuple(tuple(gm[r] for r in rs) for rs in seen.values()))
    return True, dec


def sector_decompose(p: SymPolygon) -> list[QuadInt]:
    if p.field.sigma == 2:
        raise WrongField("sector decomposition needs the d=1 or d=3 unit group")
    if p.tag != PROPER:
        raise NotProper("sector decomposition of a degenerate value")
    out = []
    for q in p.sector_elements:
        if q.den != 1:
            v = q.plane()
            raise NotLattice(f"vertex ({v.x},{v.y}) not integral")
        out.append(q.num)
    return out


def reconstruct_lemma_polygon(p: SymPolygon) -> SymPolygon:
    return _sector_cover(p.field, sector_decompose(p))


def global_sections_check(p: SymPolygon) -> bool:
    # only the empty set and {0} are fixed by the whole monoid action
    return p.tag in (EMPTY, ZERO)


def aut_orbit_equiv(mu: QuadRat, nu: QuadRat) -> bool:
    if mu.is_zero() or nu.is_zero():
        raise ZeroInput("aut_orbit_equiv on zero")
    q = mu / nu
    return q.den == 1 and q.num.is_unit()


class StalkElement(Value):
    __slots__ = ("polygon", "generator")
    __match_args__ = __slots__

    def __init__(self, polygon: SymPolygon, generator: QuadRat):
        _set(self, "polygon", polygon)
        _set(self, "generator", generator)

    def member(self) -> tuple[bool, GeneratorDecomposition | None]:
        return membership_in_generated(self.polygon, [self.generator])


def stalk_scale(k: QuadRat, p: SymPolygon) -> StalkElement:
    if k.is_zero():
        raise ZeroInput("stalk at the zero module")
    return StalkElement(scale_act(k, p), k)
