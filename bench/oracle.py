"""Independent exact arithmetic the checks compare the program against.

Nothing here calls tropigon: plane points are (x, y) pairs of Fractions
standing for x + y*sqrt(d)*i, ring elements are (a, b) coordinates in the
(1, omega) basis, envelopes are tuples of (a, b) lines on [0, 1].
"""

from __future__ import annotations

import bisect
from fractions import Fraction


def case(d: int) -> int:
    return 1 if d % 4 in (1, 2) else 2


def norm(d: int, a: int, b: int) -> int:
    if case(d) == 1:
        return a * a + d * b * b
    return a * a + a * b + (1 + d) // 4 * b * b


def mul(d: int, x, y):
    a1, b1 = x
    a2, b2 = y
    if case(d) == 1:
        return (a1 * a2 - d * b1 * b2, a1 * b2 + a2 * b1)
    m = (1 + d) // 4
    return (a1 * a2 - m * b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)


def conj(d: int, x):
    a, b = x
    return (a, -b) if case(d) == 1 else (a + b, -b)


def divides(d: int, g, x) -> bool:
    n = norm(d, *g)
    w = mul(d, x, conj(d, g))
    return w[0] % n == 0 and w[1] % n == 0


def plane(d: int, x):
    a, b = x
    if case(d) == 1:
        return (Fraction(a), Fraction(b))
    return (Fraction(2 * a + b, 2), Fraction(b, 2))


def plane_mul(d: int, p, q):
    return (p[0] * q[0] - d * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def units(d: int):
    if d == 1:
        return [(1, 0), (0, 1), (-1, 0), (0, -1)]
    if d == 3:
        return [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    return [(1, 0), (-1, 0)]


def orbit(d: int, points) -> set:
    us = [plane(d, u) for u in units(d)]
    return {plane_mul(d, p, u) for p in points for u in us}


def inside_ccw(hull, p) -> bool:
    """Is p in the closed convex polygon with CCW vertex list `hull`?"""
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0:
            return False
    return True


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def splitting(d: int, p: int) -> str:
    """split / inert / ramified for the rational prime p in Q(sqrt(-d))."""
    disc = -4 * d if case(d) == 1 else -d
    if disc % p == 0:
        return "ramified"
    if p == 2:
        return "split" if (-disc) % 8 == 7 else "inert"
    return "split" if legendre(disc, p) == 1 else "inert"


def vp(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ------------------------------------------------------------- envelopes


def env_at(lines, t: Fraction) -> Fraction:
    return max(a + (b - a) * t for a, b in lines)


def breakpoints(lines) -> list[Fraction] | None:
    """Crossings of slope-consecutive lines of a canonical envelope, or None if not canonical.

    Canonical means slopes strictly increase and every line attains the max
    on an interval of positive length, i.e. the crossings strictly increase
    inside (0, 1).
    """
    ts = []
    for (a1, b1), (a2, b2) in zip(lines, lines[1:]):
        s1, s2 = b1 - a1, b2 - a2
        if s2 <= s1:
            return None
        t = Fraction(a1 - a2, s2 - s1)
        if not 0 < t < 1 or (ts and t <= ts[-1]):
            return None
        ts.append(t)
    return ts


def is_envelope_of(out_lines, in_lines) -> bool:
    """Is `out_lines` the canonical upper envelope of `in_lines`?

    Each output line must be an input line, the output must be canonical, and
    no input line may rise above it.  A line minus a convex piecewise-linear
    function peaks at the breakpoint where the line's slope falls between the
    slopes of the two pieces meeting there (or at an endpoint), so one point
    per input line suffices.
    """
    ins = set(in_lines)
    if not out_lines or any(ln not in ins for ln in out_lines):
        return False
    bps = breakpoints(out_lines)
    if bps is None:
        return False
    slopes = [b - a for a, b in out_lines]
    for a, b in ins:
        j = bisect.bisect_left(slopes, b - a)
        t = Fraction(0) if j == 0 else Fraction(1) if j == len(slopes) else bps[j - 1]
        c, g = out_lines[min(j, len(slopes) - 1)]
        if a + (b - a) * t > c + (g - c) * t:
            return False
    return True


def env_leq(f_lines, g_lines) -> bool | None:
    """Pointwise f <= g for canonical f and g (None if either is not canonical).

    f - g is piecewise linear, so it peaks at a breakpoint of f or g or at an endpoint.
    """
    bf, bg = breakpoints(f_lines), breakpoints(g_lines)
    if bf is None or bg is None:
        return None
    probes = [Fraction(0), *bf, *bg, Fraction(1)]
    return all(env_at(f_lines, t) <= env_at(g_lines, t) for t in probes)


def tensor_at(pairs, x: Fraction, y: Fraction) -> Fraction:
    return max(env_at(e, x) + env_at(f, y) for e, f in pairs)


def _pieces(pairs):
    """The affine pieces (c, cx, cy) of c + cx*x + cy*y whose max is the tensor's function."""
    return {(a1 + a2, b1 - a1, b2 - a2) for e, f in pairs for a1, b1 in e for a2, b2 in f}


def _above_somewhere(piece, others):
    """A point of the unit square where `piece` is strictly above every one of `others`, or None.

    The closed region where it is at least as high is the square cut by one
    half-plane per other piece; when that region has positive area, the mean
    of its corners lies inside it, where every inequality is strict.
    """
    poly = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    for o in others:
        c0, cx, cy = (u - v for u, v in zip(piece, o))
        cut = []
        for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
            v1, v2 = c0 + cx * x1 + cy * y1, c0 + cx * x2 + cy * y2
            if v1 >= 0:
                cut.append((x1, y1))
            if v1 * v2 < 0:
                s = v1 / (v1 - v2)
                cut.append((x1 + s * (x2 - x1), y1 + s * (y2 - y1)))
        poly = cut
        if len(poly) < 3:
            return None
    area2 = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    if area2 == 0:
        return None
    return sum(x for x, _ in poly) / len(poly), sum(y for _, y in poly) / len(poly)


def differing_point(s_pairs, t_pairs):
    """A point (x, y) where the two tensors' functions differ, or None when they are equal.

    Where they differ, say s > t, some piece of s lies above every piece of t
    on an open set, so one region per piece suffices.
    """
    ps, pt = _pieces(s_pairs), _pieces(t_pairs)
    for mine, theirs in ((ps, pt), (pt, ps)):
        for piece in mine - theirs:
            point = _above_somewhere(piece, theirs)
            if point is not None:
                return point
    return None
