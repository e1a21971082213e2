"""Spans around the public functions of each tropigon layer, kept in memory.

`install` replaces each traced function in every module namespace that binds
it (the defining module, `from .x import` copies in other tropigon modules,
and the benchmark's own modules), so calls between layers become child spans.
A span records (id, name, start, end, parent, op); self time is a span's
duration minus the time its children cover.  Spans are recorded only while
`active` is set, that is inside a timed operation.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# spans kept verbatim for the spans file; aggregates cover every span
KEEP_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.edges: dict[tuple[int, int], int] = defaultdict(int)  # (parent, child) -> calls
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_primes: set[tuple[int, int]] = set()
        self.stack: list[list[int]] = []  # [span id, name id, child ns]
        self.next_span = 0
        self.spans = array("q")  # flattened (id, name, start, end, parent, op)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, name: str, fn, post=None):
        nid = self.name_id(name)
        tr = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            sid = tr.next_span
            tr.next_span += 1
            frame = [sid, nid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tr.calls[nid] += 1
                tr.self_ns[nid] += t1 - t0 - frame[2]
                parent = stack[-1] if stack else None
                if sid < KEEP_SPANS:
                    tr.spans.extend((sid, nid, t0, t1, parent[0] if parent else -1, tr.op))
            if parent is not None:
                tr.edges[(parent[1], nid)] += 1
                parent[2] += t1 - t0
            if post is not None:
                post(tr, args, out)  # a few additions, charged to the caller's self time
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def n_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def children(self, parent: str, child: str) -> int:
        p, c = self._ids.get(parent), self._ids.get(child)
        return 0 if p is None or c is None else self.edges.get((p, c), 0)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "total_spans": self.next_span,
                                 "kept_spans": min(self.next_span, KEEP_SPANS),
                                 "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"]}))
            fh.write("\n")
            s = self.spans
            for k in range(0, len(s), 6):
                fh.write(json.dumps(list(s[k:k + 6])))
                fh.write("\n")


# ----------------------------------------------------------- count hooks


def _orbit_size(p) -> int:
    # units act freely on nonzero points: each sector vertex stands for sigma hull vertices
    return p.field.sigma * len(p.sector) if p.tag == "proper" else 0


def _post_minkowski(tr, args, out):
    a, b = args
    if a.tag == "proper" and b.tag == "proper":
        tr.counts["polygeom.minkowski_sum.candidate_points"] += _orbit_size(a) * _orbit_size(b)
        tr.counts["polygeom.orbit_vertices_out"] += _orbit_size(out)


def _kept(tr, n_in, out):
    tr.counts["envelope.lines_in"] += n_in
    tr.counts["envelope.lines_kept"] += len(out.lines)


def _post_of(tr, args, out):
    lines = args[0]
    if out.lines is not None and hasattr(lines, "__len__"):
        _kept(tr, len(lines), out)


def _post_tmax(tr, args, out):
    f, g = args
    if f.lines is not None and g.lines is not None:
        _kept(tr, len(f.lines) + len(g.lines), out)


def _post_tplus(tr, args, out):
    f, g = args
    if f.lines is not None and g.lines is not None:
        _kept(tr, len(f.lines) * len(g.lines), out)


def _post_phi(tr, args, out):
    if args[0].tag == "proper":
        _kept(tr, _orbit_size(args[0]), out)


def _post_normalize(tr, args, out):
    tr.counts["tensorlab.normalize.pairs_in"] += len(args[0].pairs)
    tr.counts["tensorlab.normalize.pairs_out"] += len(out.pairs)


def _post_reduced_equal(tr, args, out):
    tr.counts[f"tensorlab.reduced_equal.{out[0]}"] += 1


def _primes_above_wrapper(tr, fn):
    """Counts misses: calls on a (field, p) no earlier call in this process asked for.

    Keys are recorded from installation on, also while no span is recorded,
    so requests made while caches warm up are not counted as misses later.
    """
    traced = tr.wrap("adelic.primes_above", fn)

    def primes_above(f, p):
        key = (f.d, p)
        if key not in tr.seen_primes:
            tr.seen_primes.add(key)
            if tr.active:
                tr.counts["adelic.primes_above.misses"] += 1
        return traced(f, p)

    primes_above.__wrapped__ = fn
    return primes_above


# ----------------------------------------------------------- installation

POLYGEOM = ("hull_union", "minkowski_sum", "scale_act", "membership_in_generated")
ENVELOPE = ("tmax", "tplus", "leq", "phi", "phi_inv")
TENSORLAB = ("normalize", "tensor_product", "eval_separator", "reduced_equal")
ADELIC = ("primes_upto", "valuation", "module_from_adele", "adele_from_module",
          "iso_class_equal", "section_act", "ideal_count_upto")
POSTS = {
    "polygeom.minkowski_sum": _post_minkowski,
    "envelope.tmax": _post_tmax,
    "envelope.tplus": _post_tplus,
    "envelope.phi": _post_phi,
    "tensorlab.normalize": _post_normalize,
    "tensorlab.reduced_equal": _post_reduced_equal,
}


def install(tracer: Tracer):
    """Wrap the traced functions everywhere they are bound; returns the tracer."""
    import tropigon.cli  # noqa: F401  (loads every module that binds a traced name)
    from tropigon import adelic, cli, envelope, polygeom, quadfield, tensorlab, wire

    swaps = {}  # id(original) -> wrapper

    def add(module, attr, name):
        fn = getattr(module, attr)
        swaps[id(fn)] = tracer.wrap(name, fn, POSTS.get(name))

    add(quadfield, "gcd", "quadfield.gcd")
    for attr in POLYGEOM:
        add(polygeom, attr, f"polygeom.{attr}")
    for attr in ENVELOPE:
        add(envelope, attr, f"envelope.{attr}")
    for attr in TENSORLAB:
        add(tensorlab, attr, f"tensorlab.{attr}")
    for attr in ADELIC:
        add(adelic, attr, f"adelic.{attr}")
    swaps[id(adelic.primes_above)] = _primes_above_wrapper(tracer, adelic.primes_above)
    for attr, fn in list(vars(wire).items()):
        if callable(fn) and getattr(fn, "__module__", None) == wire.__name__:
            if attr.endswith("_from_json"):
                swaps[id(fn)] = tracer.wrap("wire.parse", fn)
            elif attr.endswith("_to_json") or attr == "dumps":
                swaps[id(fn)] = tracer.wrap("wire.emit", fn)
    add(cli, "main", "cli.main")

    # methods and static constructors live on the classes
    sym, env = polygeom.SymPolygon, envelope.Envelope
    sym.from_points = staticmethod(tracer.wrap("polygeom.from_points", vars(sym)["from_points"].__func__))
    sym.contains_polygon = tracer.wrap("polygeom.contains_polygon", vars(sym)["contains_polygon"])
    env.of = staticmethod(tracer.wrap("envelope.of", vars(env)["of"].__func__, _post_of))

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        path = getattr(mod, "__file__", "") or ""
        if not (name == "tropigon" or name.startswith("tropigon.")
                or os.path.abspath(path).startswith(BENCH_DIR + os.sep)):
            continue
        for attr, val in list(vars(mod).items()):
            wrapper = swaps.get(id(val))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return tracer
