"""tensor: envelope and formal-tensor operations (d = 1 duality included).

Per cycle of 204 operations: Envelope.of on every line count from 1 to 40
once (plus dominated copies), tmax and leq on 1..12 + 1..12 lines, tplus on
1..4 x 1..4 lines, phi / phi_inv and phi(A+B) against tplus, normalize on
noisy tensors, tensor_product, eval_separator on random and on
normalize-equal pairs, and reduced_equal on cancellation instances (witness
from the hint), on additivity pairs and on pairs whose cross tensors differ
only by a pair that lies under the max of two others (witness from search).
Additivity pairs settle at the first cross-product comparison; only the last
kind reaches the witness search.  Line counts are stratified, not drawn, so
every cycle carries the same canonical-form work.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle
from harness import Op, expect
from tropigon import wire
from tropigon.envelope import Envelope, leq, phi, phi_inv, tmax, tplus
from tropigon.polygeom import SymPolygon, minkowski_sum
from tropigon.quadfield import QuadInt, field
from tropigon.tensorlab import (
    DISTINCT,
    EQUAL,
    POSSIBLY_EQUAL,
    UNKNOWN,
    FormalTensor,
    cancellation_instance,
    eval_separator,
    gamma,
    normalize,
    reduced_add,
    reduced_equal,
    tensor_add,
    tensor_product,
)

NAME = "tensor"
IMPORT = "tropigon"
MAX_LINES = 40
MIX = {
    "of": MAX_LINES,
    "tmax": 24,
    "leq": 24,
    "tplus": 16,
    "phi": 14,
    "phi_inv": 14,
    "phi_sum": 10,
    "normalize": 16,
    "tensor_product": 12,
    "sep_random": 12,
    "sep_equal": 8,
    "reduced_cancel": 6,
    "reduced_additive": 4,
    "reduced_search": 4,
}
CYCLE_OPS = sum(MIX.values())
TRACE_CYCLE_S = 1.3
CANCEL_SHAPES = ((1, 1, 2, 2, 1), (2, 1, 2, 1, 1), (1, 1, 1, 1, 2))
GRID = [(Fraction(x), Fraction(y)) for x in (0, Fraction(1, 3), Fraction(1, 2), 1)
        for y in (0, Fraction(1, 4), Fraction(2, 3), 1)]


def _tangent_lines(rng, n: int):
    """n lines that all touch the convex curve 60 t^2, so all n stay on the envelope."""
    den = 4 * n + 1
    lines = []
    for j in sorted(rng.sample(range(1, den), n)):
        t = Fraction(j, den)
        lines.append((-60 * t * t, 60 * (2 * t - t * t)))
    return lines


def _lowered(rng, lines):
    return [(a - rng.randint(1, 3), b - rng.randint(1, 3)) for a, b in lines]


def _envelope(rng, n: int) -> Envelope:
    return Envelope.of(_tangent_lines(rng, n))


def _small_envelope(rng, max_lines=3, span=4) -> Envelope:
    lines = []
    for _ in range(rng.randint(1, max_lines)):
        den = rng.choice((1, 1, 2))
        lines.append((Fraction(rng.randint(-span, span), den), Fraction(rng.randint(-span, span), den)))
    return Envelope.of(lines)


def _tensor(rng, max_pairs: int) -> FormalTensor:
    return FormalTensor.make([(_small_envelope(rng), _small_envelope(rng))
                              for _ in range(rng.randint(1, max_pairs))])


def _noisy(rng, t: FormalTensor) -> FormalTensor:
    """The same function as t plus duplicate and dominated pairs, not normalized."""
    pairs = list(t.pairs)
    for e, f in t.pairs:
        pairs.append((e, f))
        pairs.append((Envelope.of(_lowered(rng, e.lines)), Envelope.of(_lowered(rng, f.lines))))
    rng.shuffle(pairs)
    return FormalTensor(tuple(pairs))


def _polygon(rng):
    f = field(1)
    pts = [QuadInt(f, rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
    pts = [p.plane() for p in pts if not p.is_zero()] or [f.one.plane()]
    return SymPolygon.from_points(f, pts)


def _pairs(t: FormalTensor):
    return [(e.lines, f.lines) for e, f in t.pairs]


def _same_function(s: FormalTensor, t: FormalTensor) -> bool:
    ps, pt = _pairs(s), _pairs(t)
    return all(oracle.tensor_at(ps, x, y) == oracle.tensor_at(pt, x, y) for x, y in GRID)


def _emit_reduced(out):
    status, witness = out
    return {"status": status, "witness": wire.tensor_to_json(witness) if witness is not None else None}


class Stream:
    def __init__(self, seed: int):
        self.seed = seed

    def _op(self, kind, rng, k):
        if kind == "of":
            lines = _tangent_lines(rng, k + 1)
            lines += _lowered(rng, rng.sample(lines, (k + 1) // 4))
            return Op(kind, lambda: Envelope.of(lines),
                      lambda out: expect(oracle.is_envelope_of(out.lines, lines), "not the upper envelope"),
                      wire.envelope_to_json)
        if kind in ("tmax", "leq"):
            e, g = _envelope(rng, k % 12 + 1), _envelope(rng, (k * 5) % 12 + 1)
            if kind == "tmax":
                return Op(kind, lambda: tmax(e, g),
                          lambda out: expect(oracle.is_envelope_of(out.lines, e.lines + g.lines),
                                              "not the max of the two envelopes"),
                          wire.envelope_to_json)
            if k % 2:
                g = tmax(e, g)  # half the pairs are ordered
            return Op(kind, lambda: leq(e, g),
                      lambda out: expect(out is oracle.env_leq(e.lines, g.lines), f"leq said {out}"),
                      lambda out: out)
        if kind == "tplus":
            e, g = _envelope(rng, k % 4 + 1), _envelope(rng, k // 4 % 4 + 1)
            sums = [(a + c, b + d) for a, b in e.lines for c, d in g.lines]
            return Op(kind, lambda: tplus(e, g),
                      lambda out: expect(oracle.is_envelope_of(out.lines, sums), "not the sum envelope"),
                      wire.envelope_to_json)
        if kind == "phi":
            p = _polygon(rng)
            return Op(kind, lambda: phi(p), lambda out: expect(phi_inv(out) == p, "phi_inv(phi(p)) != p"),
                      wire.envelope_to_json)
        if kind == "phi_inv":
            p = _polygon(rng)
            e = phi(p)
            return Op(kind, lambda: phi_inv(e), lambda out: expect(out == p, "phi_inv(phi(p)) != p"),
                      wire.polygon_to_json)
        if kind == "phi_sum":
            a, b = _polygon(rng), _polygon(rng)
            return Op(kind, lambda: phi(minkowski_sum(a, b)),
                      lambda out: expect(out == tplus(phi(a), phi(b)), "phi(A+B) != tplus(phi A, phi B)"),
                      wire.envelope_to_json)
        if kind == "normalize":
            raw = _noisy(rng, _tensor(rng, 3))

            def check(out):
                if normalize(out) != out:
                    return "normalize is not idempotent"
                return expect(_same_function(out, raw), "normalize changed the function")

            return Op(kind, lambda: normalize(raw), check, wire.tensor_to_json)
        if kind == "tensor_product":
            factors = [_tensor(rng, 2) for _ in range(rng.randint(2, 3))]

            def check(out):
                fs = [_pairs(t) for t in factors]
                ok = all(oracle.tensor_at(_pairs(out), x, y) == sum(oracle.tensor_at(p, x, y) for p in fs)
                         for x, y in GRID)
                return expect(ok, "product is not the sum of the factors")

            return Op(kind, lambda: tensor_product(factors), check, wire.tensor_to_json)
        if kind == "sep_random":
            s, t = _tensor(rng, 2), _tensor(rng, 2)

            def check(out):
                if out == POSSIBLY_EQUAL:
                    return expect(_same_function(s, t), "tensors that differ on the grid were not separated")
                if out != DISTINCT:
                    return f"separator said {out}"
                pt = oracle.differing_point(_pairs(s), _pairs(t))
                ok = pt is not None and oracle.tensor_at(_pairs(s), *pt) != oracle.tensor_at(_pairs(t), *pt)
                return expect(ok, "separated two tensors with the same function")

            return Op(kind, lambda: eval_separator(s, t), check, lambda out: out)
        if kind == "sep_equal":
            s = _tensor(rng, 2)
            raw = _noisy(rng, s)
            return Op(kind, lambda: eval_separator(s, raw),
                      lambda out: expect(out == POSSIBLY_EQUAL, "normalize-equal pair separated"),
                      lambda out: out)
        if kind == "reduced_cancel":
            shape = CANCEL_SHAPES[k % len(CANCEL_SHAPES)]
            x, y, w = cancellation_instance(*(_tensor(rng, n) for n in shape))
            return Op(kind, lambda: reduced_equal(x, y, hint=w), _check_reduced(x, y), _emit_reduced)
        if kind == "reduced_additive":
            s, t = _tensor(rng, 2), _tensor(rng, 2)
            x, y = gamma(tensor_add(s, t)), reduced_add(gamma(s), gamma(t))
            return Op(kind, lambda: reduced_equal(x, y), _check_reduced(x, y), _emit_reduced)
        if kind == "reduced_search":
            x, y = _search_instance(rng)
            return Op(kind, lambda: reduced_equal(x, y), _check_reduced(x, y, UNKNOWN), _emit_reduced)
        raise ValueError(kind)

    def cycle(self, c: int) -> list[Op]:
        rng = random.Random(f"{NAME}:{self.seed}:{c}")
        slots = [(kind, k) for kind, n in MIX.items() for k in range(n)]
        rng.shuffle(slots)
        return [self._op(kind, rng, k) for kind, k in slots]


def _search_instance(rng):
    """gamma(T) and gamma(T'), where T' drops from T a pair lying under the max of the other two.

    The pairs' functions are k + 2s*x + m, k + m + 2t*y and k + s*x + m + t*y,
    and s*x + t*y <= max(2s*x, 2t*y), so T and T' are the same function.  No
    pair of T lies under another, so they differ formally, the separator
    cannot tell them apart, and reduced_equal has to search for a witness.
    """
    s, t = rng.randint(1, 4), rng.randint(1, 4)
    k, m = rng.randint(-3, 3), rng.randint(-3, 3)

    def env(a, slope):
        return Envelope.of([(Fraction(a), Fraction(a + slope))])

    low = [(env(k, 2 * s), env(m, 0)), (env(k, 0), env(m, 2 * t))]
    return gamma(FormalTensor.make(low + [(env(k, s), env(m, t))])), gamma(FormalTensor.make(low))


def _check_reduced(x, y, also_allowed=None):
    """EQUAL (or `also_allowed`), with the certificate re-checked by the oracle's evaluation."""
    def check(out):
        status, c = out
        if status == also_allowed:
            return expect(_same_function(tensor_add(x.a, y.b), tensor_add(y.a, x.b)),
                          "the cross tensors differ")
        if status != EQUAL or c is None:
            return f"reduced_equal said {status}, expected {EQUAL}"
        # x.a + y.b + c and y.a + x.b + c, each a sum of three factors, agree everywhere checked
        lhs, rhs = [_pairs(x.a), _pairs(y.b), _pairs(c)], [_pairs(y.a), _pairs(x.b), _pairs(c)]
        ok = all(sum(oracle.tensor_at(p, u, v) for p in lhs) == sum(oracle.tensor_at(p, u, v) for p in rhs)
                 for u, v in GRID)
        return expect(ok, "the witness does not certify the equality")

    return check
