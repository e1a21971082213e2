"""Reference definitions of the polygon and envelope kernels, for the tests.

Each operation of `tropigon.polygeom` and `tropigon.envelope` is written
here from its definition, in exact rationals.  This module imports only the
standard library and shares no code with the package, so a fault in a kernel
cannot hide in its own oracle.

A point (x, y) of the plane stands for x + y*sqrt(d)*i, and a ring element
(a, b) for a + b*omega.  A polygon is the tuple of its convex hull's
vertices, CCW from the lexicographically least one, strict turns only: ()
is EMPTY and ((0, 0),) ZERO.  A line (a, b) is the function
t -> a + (b - a)*t on [0, 1], and an envelope is the tuple of the lines that
attain its max on an interval of positive length, by increasing slope b - a:
() is BOTTOM.  Coordinates are `Fraction`s; an operation on many points
brings them over one common denominator first, where the arithmetic is on
integers and so fast enough for polygons of a few hundred vertices.
"""

import math
from fractions import Fraction

NEG_INF = float("-inf")


def rational(pts, den=1):
    """Integer points over den as `Fraction` points."""
    return tuple((Fraction(x, den), Fraction(y, den)) for x, y in pts)


def _over_one(*point_lists):
    # lists of rational points as integer lists over their least common denominator
    den = math.lcm(1, *(c.denominator for pts in point_lists for p in pts for c in p))

    def over(c):
        return c.numerator * (den // c.denominator)

    return [[(over(x), over(y)) for x, y in pts] for pts in point_lists], den


def integer_form(pts):
    """(den, integer points): rational points over their least common denominator."""
    (grid,), den = _over_one(pts)
    return den, tuple(grid)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(pts):
    # Andrew's two passes over the sorted set: the lower hull, then the upper
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts
    halves = []
    for run in (pts, pts[::-1]):
        half = []
        for p in run:
            while len(half) >= 2 and _cross(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        halves.append(half[:-1])
    return halves[0] + halves[1]


def hull(points):
    """The vertices of the convex hull of rational points."""
    (grid,), den = _over_one(list(points))
    return rational(_hull(grid), den)


def omega(d):
    """omega as a plane point: i*sqrt(d) for d = 1, 2, else (1 + i*sqrt(d))/2."""
    return (Fraction(0), Fraction(1)) if d % 4 in (1, 2) else (Fraction(1, 2), Fraction(1, 2))


def times(d, p, q):
    """The product of two plane points."""
    return (p[0] * q[0] - d * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def units(d):
    """The units as plane points: the powers of i for d = 1, of omega for d = 3,
    and of -1 otherwise, from 1."""
    gen = {1: (0, 1), 3: omega(3)}.get(d, (-1, 0))
    out = [(Fraction(1), Fraction(0))]
    while (u := times(d, out[-1], gen)) != out[0]:
        out.append(u)
    return out


def orbit_hull(d, points):
    """The hull of the unit orbits of the points."""
    return hull([times(d, p, u) for p in points for u in units(d)])


def hull_union(a, b):
    return hull(a + b)


def minkowski_sum(a, b):
    """The hull of the pairwise sums."""
    (p, q), den = _over_one(a, b)
    return rational(_hull({(x1 + x2, y1 + y2) for x1, y1 in p for x2, y2 in q}), den)


def scale_act(d, mu, a):
    """The hull of the vertices of a times the ring element mu = (m, n), m + n*omega."""
    (m, n), (wx, wy) = mu, omega(d)
    return hull([times(d, v, (m + n * wx, n * wy)) for v in a])


def _inside(poly, p):
    # p lies on the left of, or on, every edge of the closed CCW polygon;
    # a polygon of fewer than three vertices holds only its vertices
    if len(poly) < 3:
        return p in poly
    return all(_cross(u, v, p) >= 0 for u, v in zip(poly, poly[1:] + poly[:1]))


def contains(a, b):
    """Every vertex of b, so all of b, lies in a."""
    (p, q), _ = _over_one(a, b)
    return all(_inside(p, pt) for pt in q)


def covers(walk, points):
    """Every point lies on the left of, or on, every edge u -> v of the walk."""
    (w, q), _ = _over_one(walk, points)
    return all(_cross(u, v, p) >= 0 for u, v in zip(w, w[1:]) for p in q)


def sector(d, a):
    """The vertices of a with argument in [0, 2*pi/sigma), by increasing argument."""
    z = units(d)[1]  # the unit of argument 2*pi/sigma
    inside = [v for v in a if v[1] == 0 < v[0] or (v[1] > 0 and _cross((0, 0), v, z) > 0)]
    # for y > 0 the argument grows as x/y falls; y = 0 is argument 0
    return tuple(sorted(inside, key=lambda v: (v[1] > 0, -v[0] / v[1] if v[1] else 0)))


def sector_elements(d, a):
    """The sector vertices as ring elements (a, b), a + b*omega."""
    wx, wy = omega(d)
    return tuple((x - y / wy * wx, y / wy) for x, y in sector(d, a))


def _on_top(line, others):
    # whether line is at least every other line on an interval of positive length
    a, b = line
    lo, hi = Fraction(0), Fraction(1)
    for c, e in others:
        da, ds = a - c, (b - a) - (e - c)
        if ds > 0:
            lo = max(lo, -da / ds)
        elif ds < 0:
            hi = min(hi, -da / ds)
        elif da < 0:
            return False
    return lo < hi


def envelope(lines):
    """The lines that attain the max on an interval of positive length, by slope.

    Only the vertices of the hull of the lines, read as points, that no other
    vertex dominates at both t = 0 and t = 1 are tested: at each t the max is
    attained at such a vertex, since the lines at the max are a face of the
    hull and that face's lexicographically greatest vertex is undominated.
    """
    cand, top = [], None
    for a, b in sorted(hull(lines), reverse=True):
        if top is None or b > top:
            cand.append((a, b))
            top = b
    kept = [ln for ln in cand if _on_top(ln, [m for m in cand if m != ln])]
    return tuple(sorted(kept, key=lambda ln: ln[1] - ln[0]))


def tmax(f, g):
    return envelope(f + g)


def tplus(f, g):
    """The envelope of the pairwise sums of the lines."""
    return envelope({(a + c, b + e) for a, b in f for c, e in g})


def eval_at(f, t):
    """The max of the lines at t; -inf for none."""
    return max((a + (b - a) * t for a, b in f), default=NEG_INF)


def _breakpoints(f):
    return [(a0 - a1) / ((b1 - a1) - (b0 - a0)) for (a0, b0), (a1, b1) in zip(f, f[1:])]


def leq(f, g):
    """f <= g at 0, at 1 and at every breakpoint of both: f - g is linear between them."""
    ts = [Fraction(0), Fraction(1)] + _breakpoints(f) + _breakpoints(g)
    return all(eval_at(f, t) <= eval_at(g, t) for t in ts)


def phi(a):
    """The support function of a on the directions (1 - t, t): the envelope of its vertices."""
    return envelope(a)


def phi_inv(f):
    """The Gaussian polygon whose support function on those directions is f:
    the hull of the unit orbits of its lines."""
    return orbit_hull(1, f)
