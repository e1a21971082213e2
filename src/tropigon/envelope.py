"""Piecewise-affine convex envelopes on the segment from 1 to i.

A line (a, b) is the function t -> a + (b - a)*t on [0, 1], i.e. the linear
form a*x + b*y restricted to x + y = 1, x, y >= 0.  An envelope is the
pointwise max of finitely many lines, kept in canonical form: exactly the
lines that attain the max on a subinterval of positive length, sorted by
slope.  BOTTOM is the constant -infinity.

Read as a point, a line's value at t is its pairing with the direction
(1 - t, t), so an envelope is the support function of its points over the
quarter-turn of directions from (1, 0) to (0, 1).  The canonical form is
therefore one arc of the convex hull of the points.  An envelope is stored
as that arc in the encoding of `polygeom.SymPolygon`: integers over a
denominator `scale`, in lowest terms by `polygeom.lowest_terms`, so that
equal envelopes compare and hash equal.  BOTTOM is the empty arc, over scale
1 like EMPTY, and the zero envelope is the origin, like ZERO.  `lines` is the
rational view of the arc: the CCW hull vertices, strict turns only, from the
point maximizing (a, b) lexicographically to the one maximizing (b, a), so
slopes b - a increase.  `from_grid` builds it by one
`polygeom.monotone_chain` pass over the points sorted in reverse, the upper
hull from the greatest point, cut at its first highest point; `phi` makes
the same cut on a polygon's stored lower chain negated, its upper chain.
Over a common denominator, `tmax` is `from_grid` on the union of two arcs
(descending runs, which the sort merges), as `hull_union` is for polygons,
and `tplus` is their Minkowski sum by `polygeom.chain_sum`, as
`minkowski_sum` is: an arc starts at its lexicographically greatest point
and every edge points strictly between the directions (0, 1) and (-1, 0),
so the merged arc is the arc of the sum, and `leq` is the half-plane test
`polygeom.covers` on g's arc closed by its two end directions.  All are
exact, and BOTTOM and zero need no case of their own.

For d = 1 the support function of a symmetric polygon restricted to this
segment gives an isomorphism of semirings: hull-union becomes pointwise max
and Minkowski sum becomes pointwise +.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import OutOfDomain, WrongField
from .polygeom import SymPolygon, chain_sum, covers, lowest_terms, monotone_chain, over_lcm, to_grid
from .quadfield import field

Line = tuple[Fraction, Fraction]

NEG_INF = float("-inf")


def _cut(upper, scale: int) -> Envelope:
    # an upper hull chain from its greatest point, up to its first highest
    # point: the one maximizing (b, a).  An empty chain is BOTTOM.
    i = max(range(len(upper)), key=lambda i: upper[i][1], default=-1)
    return Envelope(*lowest_terms(scale, upper[: i + 1]))


@dataclass(frozen=True)
class Envelope:
    scale: int
    arc: tuple[tuple[int, int], ...]  # () encodes BOTTOM

    @staticmethod
    def bottom() -> Envelope:
        return Envelope(1, ())

    @staticmethod
    def of(lines) -> Envelope:
        return Envelope.from_grid(*to_grid((Fraction(a), Fraction(b)) for a, b in lines))

    @staticmethod
    def from_grid(pts, scale: int) -> Envelope:
        """The envelope of the lines (x/scale, y/scale) for integer points (x, y)."""
        return _cut(monotone_chain(sorted(pts, reverse=True)), scale)

    @staticmethod
    def zero() -> Envelope:
        return Envelope(1, ((0, 0),))

    def is_bottom(self) -> bool:
        return not self.arc

    @cached_property
    def lines(self) -> tuple[Line, ...] | None:
        """The canonical lines as rationals, by increasing slope; None for BOTTOM."""
        if not self.arc:
            return None
        s = self.scale
        return tuple((Fraction(a, s), Fraction(b, s)) for a, b in self.arc)

    def __repr__(self):
        if not self.arc:
            return "Envelope(bottom)"
        return "Envelope(" + ", ".join(f"({a},{b})" for a, b in self.lines) + ")"


def tmax(f: Envelope, g: Envelope) -> Envelope:
    p, q, s = over_lcm(f.arc, f.scale, g.arc, g.scale)
    return Envelope.from_grid(p + q, s)


def tplus(f: Envelope, g: Envelope) -> Envelope:
    p, q, s = over_lcm(f.arc, f.scale, g.arc, g.scale)
    return Envelope(*lowest_terms(s, chain_sum(p, q)))


def eval_at(f: Envelope, t: Fraction):
    """Value at t in [0, 1]; -inf for BOTTOM."""
    t = Fraction(t)
    if t < 0 or t > 1:
        raise OutOfDomain(f"t = {t} outside [0, 1]")
    if not f.arc:
        return NEG_INF
    # a + (b - a)*t at t = n/m, over the common denominator scale*m
    n, m = t.numerator, t.denominator
    return Fraction(max(a * (m - n) + b * n for a, b in f.arc), f.scale * m)


def leq(f: Envelope, g: Envelope) -> bool:
    """Pointwise f <= g on [0, 1]; BOTTOM lies below everything.

    A line of f minus g is concave and piecewise linear with kinks only at
    g's breakpoints, so f <= g holds exactly when every line of f is at most
    g at t = 0, at t = 1 and at each breakpoint of g.  So f's points lie
    inside each edge of g's arc walked from (a0, b0 - 1) to (a1 - 1, b1):
    the step in has normal (1, 0) and value a0 = g(0), the step out normal
    (0, 1) and value b1 = g(1).  `polygeom.covers` tests that walk.
    """
    if not f.arc:
        return True
    if not g.arc:
        return False
    (a0, b0), (a1, b1) = g.arc[0], g.arc[-1]
    return covers(((a0, b0 - 1),) + g.arc + ((a1 - 1, b1),), g.scale, f.arc, f.scale)


def phi(p: SymPolygon) -> Envelope:
    if p.field.d != 1:
        raise WrongField("the functional dual is built for d=1")
    # the stored lower chain negated is the upper chain, from the greatest vertex
    return _cut([(-x, -y) for x, y in p.lower], p.scale)


def phi_inv(f: Envelope) -> SymPolygon:
    return SymPolygon.from_grid(field(1), f.arc, f.scale)
