"""geometry: polygon semiring operations over all nine fields.

Per cycle of 1200 operations: kernel calls (from_points, hull_union,
minkowski_sum on fresh pairs and on accumulated chains, scale_act,
contains_polygon) make up the cheap common case; membership_in_generated
runs on the d in {1, 3} sector path, on the d not in {1, 3} BFS with small
random polygons and the selftest c02 counterexamples, and once per cycle on
each member of the growth family n*D_K + (D_K u (1+omega)D_K) for d = 2, 7
and n = 2, 3, 4.  The BFS ops are 3 % of a cycle, so op_p99_ms falls in the
membership search; the family runs at 0.5 % above it.
"""

from __future__ import annotations

import math
import random

import oracle
from harness import Op
from tropigon import wire
from tropigon.errors import NotProper
from tropigon.polygeom import (
    SymPolygon,
    dk,
    hull_union,
    membership_in_generated,
    minkowski_sum,
    scale_act,
)
from tropigon.quadfield import HEEGNER_DS, PlanePoint, QuadInt, QuadRat, field

NAME = "geometry"
IMPORT = "tropigon"
FAMILY = [(d, n) for d in (2, 7) for n in (2, 3, 4)]
BFS_DS = (2, 7, 11, 19, 43, 67, 163)
MIX = {
    "from_points": 240,
    "hull_union": 200,
    "minkowski_sum": 120,
    "minkowski_chain": 120,
    "scale_act": 200,
    "contains_polygon": 200,
    "member_sector": 64,
    "member_bfs": 36,
    "member_c02": 14,
}
CYCLE_OPS = sum(MIX.values()) + len(FAMILY)
TRACE_CYCLE_S = 2.8  # rough traced wall time of one cycle, sizes the traced run
CHAIN_MAX_ORBIT = 100


def _sector_ints(p):
    return [(v.x, v.y) for v in p.sector]


def _orbit(p):
    return oracle.orbit(p.field.d, _sector_ints(p))


def _ring_points(rng, f, span, count):
    while True:
        pts = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(count)]
        pts = [p for p in pts if p != (0, 0)]
        if pts:
            return [QuadInt(f, a, b).plane() for a, b in pts]


def _polygon(rng, f, span=3, max_points=3):
    # one point spans no area when the only units are +-1, so draw again
    while True:
        pts = _ring_points(rng, f, span, rng.randint(1, max_points))
        try:
            return SymPolygon.from_points(f, pts)
        except NotProper:
            continue


def _scalar(rng, f):
    while True:
        num = QuadInt(f, rng.randint(-4, 4), rng.randint(-4, 4))
        if not num.is_zero():
            return QuadRat.make(num, rng.randint(1, 4))


def _emit_member(out):
    ok, dec = out
    return {"member": ok, "decomposition": wire.decomposition_to_json(dec)}


def _on_grid(*point_sets):
    """The point sets scaled by one common denominator to integer pairs."""
    scale = math.lcm(*(c.denominator for pts in point_sets for p in pts for c in p))
    return [[(int(x * scale), int(y * scale)) for x, y in pts] for pts in point_sets]


def _vertices_from(p, allowed) -> str | None:
    if p.tag != "proper":
        return f"expected a proper polygon, got {p.tag}"
    extra = [v for v in _sector_ints(p) if v not in allowed]
    return f"vertex {extra[0]} comes from no input point" if extra else None


def _covers(p, points) -> bool:
    hull, pts = _on_grid([(q.x, q.y) for q in p.orbit_points()], points)
    return all(oracle.inside_ccw(hull, q) for q in pts)


def _check_from_points(pts):
    inputs = [(q.x, q.y) for q in pts]

    def check(out):
        err = _vertices_from(out, oracle.orbit(out.field.d, inputs))
        if err:
            return err
        return None if _covers(out, inputs) else "an input point lies outside the hull"

    return check


def _check_union(a, b):
    def check(out):
        inputs = _orbit(a) | _orbit(b)
        err = _vertices_from(out, inputs)
        if err:
            return err
        return None if _covers(out, list(inputs)) else "union misses an input vertex"

    return check


def _check_minkowski(a, b):
    def check(out):
        if out.tag != "proper":
            return f"expected a proper polygon, got {out.tag}"
        oa, ob, verts = _on_grid(list(_orbit(a)), list(_orbit(b)), _sector_ints(out))
        ob = set(ob)
        for x, y in verts:
            if not any((x - px, y - py) in ob for px, py in oa):
                return f"vertex ({x}, {y}) is no sum of input vertices"
        if out.field.sigma * len(out.sector) > len(oa) + len(ob):
            return "more vertices than the two summands have edges"
        return None

    return check


def _check_scale(mu, a):
    d = a.field.d
    m = (mu.plane().x, mu.plane().y)

    def check(out):
        want = {oracle.plane_mul(d, v, m) for v in _orbit(a)}
        err = _vertices_from(out, want)
        if err:
            return err
        if len(out.sector) != len(a.sector):
            return "scaling changed the vertex count"
        return None

    return check


def _check_contains(a, b):
    def check(out):
        want = _covers(a, list(_orbit(b)))
        return None if out is want else f"contains_polygon said {out}, expected {want}"

    return check


def _check_member(p, expect=None):
    def check(out):
        ok, dec = out
        if expect is not None and ok is not expect:
            return f"membership {ok}, expected {expect}"
        if ok:
            if dec is None or dec.replay(p.field) != p:
                return "witness does not replay to the polygon"
        elif dec is not None:
            return "a rejection carries a witness"
        return None

    return check


def family_polygon(d: int, n: int):
    f = field(d)
    base = dk(f)
    side = hull_union(base, scale_act(QuadRat.make(f.one + f.omega, 1), base))
    return minkowski_sum(scale_act(QuadRat.from_int(f, n), base), side)


def c02_polygon(d: int):
    f = field(d)
    long_vertex = QuadInt(f, 3, 0) if d == 2 else QuadInt(f, 2, 0)
    return SymPolygon.from_points(f, [long_vertex.plane(), f.omega.plane()])


class Stream:
    def __init__(self, seed: int):
        self.seed = seed
        self.chain = None
        self.family = {key: _sector_ints(family_polygon(*key)) for key in FAMILY}

    def _chain_step(self, rng, f):
        # the chain keeps its field until its orbit outgrows CHAIN_MAX_ORBIT
        if self.chain is None or self.chain.field.sigma * len(self.chain.sector) > CHAIN_MAX_ORBIT:
            self.chain = _polygon(rng, f)
        acc = self.chain
        q = _polygon(rng, acc.field, span=2)
        self.chain = minkowski_sum(acc, q)
        return acc, q

    def _op(self, kind, rng):
        if kind == "member_c02":
            d = BFS_DS[rng.randrange(len(BFS_DS))]
            p = c02_polygon(d)
            return Op(kind, lambda: membership_in_generated(p), _check_member(p, False), _emit_member)
        if kind.startswith("family_"):
            d, n = (int(x) for x in kind[len("family_d"):].split("_n"))
            # a new object per op, so no cached hull carries over between ops
            p = SymPolygon.from_points(field(d), [PlanePoint(x, y) for x, y in self.family[(d, n)]])
            return Op(kind, lambda: membership_in_generated(p), _check_member(p, True), _emit_member)
        if kind == "member_bfs":
            f = field(BFS_DS[rng.randrange(len(BFS_DS))])
            p = _polygon(rng, f, span=2, max_points=2)
            return Op(kind, lambda: membership_in_generated(p), _check_member(p), _emit_member)
        if kind == "member_sector":
            f = field(rng.choice((1, 3)))
            p = _polygon(rng, f)
            if rng.random() < 0.3:
                # two generators: the ideal they span is found with quadfield.gcd
                k = _scalar(rng, f)
                b = QuadInt(f, rng.randint(-3, 3), rng.randint(1, 3))
                q = scale_act(k, p)
                gens = [k, k * b]
                return Op(kind, lambda: membership_in_generated(q, gens), _check_member(q, True),
                          _emit_member)
            return Op(kind, lambda: membership_in_generated(p), _check_member(p, True), _emit_member)
        f = field(HEEGNER_DS[rng.randrange(len(HEEGNER_DS))])
        if kind == "from_points":
            pts = _ring_points(rng, f, 4, rng.randint(1, 4))
            while True:
                try:
                    SymPolygon.from_points(f, pts)
                    break
                except NotProper:
                    pts = _ring_points(rng, f, 4, rng.randint(2, 4))
            return Op(kind, lambda: SymPolygon.from_points(f, pts), _check_from_points(pts), wire.polygon_to_json)
        if kind == "minkowski_chain":
            a, b = self._chain_step(rng, f)
            return Op(kind, lambda: minkowski_sum(a, b), _check_minkowski(a, b), wire.polygon_to_json)
        a, b = _polygon(rng, f), _polygon(rng, f)
        if kind == "hull_union":
            return Op(kind, lambda: hull_union(a, b), _check_union(a, b), wire.polygon_to_json)
        if kind == "minkowski_sum":
            return Op(kind, lambda: minkowski_sum(a, b), _check_minkowski(a, b), wire.polygon_to_json)
        if kind == "scale_act":
            mu = _scalar(rng, f)
            return Op(kind, lambda: scale_act(mu, a), _check_scale(mu, a), wire.polygon_to_json)
        if kind == "contains_polygon":
            if rng.random() < 0.5:
                a = minkowski_sum(a, b)  # a + b contains b, since 0 lies in a
            return Op(kind, lambda: a.contains_polygon(b), _check_contains(a, b), lambda out: out)
        raise ValueError(kind)

    def cycle(self, c: int) -> list[Op]:
        rng = random.Random(f"{NAME}:{self.seed}:{c}")
        kinds = [k for k, n in MIX.items() for _ in range(n)]
        kinds += [f"family_d{d}_n{n}" for d, n in FAMILY]
        rng.shuffle(kinds)
        return [self._op(kind, rng) for kind in kinds]


def layer_metrics(kind_stats: dict, tracer) -> dict:
    """family_n<k>_s: mean seconds of one family membership call at n = k (d = 2 and 7)."""
    out = {}
    for n in sorted({n for _, n in FAMILY}):
        rows = [kind_stats[f"family_d{d}_n{n}"] for d in (2, 7) if f"family_d{d}_n{n}" in kind_stats]
        calls = sum(r["n"] for r in rows)
        total_ms = sum(r["mean_ms"] * r["n"] for r in rows)
        out[f"polygeom.membership_in_generated.family_n{n}_s"] = total_ms / calls / 1e3 if calls else 0.0
    return out
