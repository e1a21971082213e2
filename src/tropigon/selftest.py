"""Deterministic invariant suite; one JSON line per group on stdout.

Each group draws its randomness from sha512(seed:group), so runs with the
same seed are byte-identical and groups are independent of each other.  No
timings or environment data appear in the output.
"""

from __future__ import annotations

import hashlib
import random
import sys

from . import adelic, tensorlab, wire
from .adelic import (
    GENERIC,
    INERT,
    RAMIFIED,
    SPLIT,
    ValuationVector,
    adele_from_module,
    complementary_generator,
    ideal_count_upto,
    iso_class_equal,
    module_from_adele,
    primes_above,
    primes_upto,
    pullback_fiber,
    valuation,
)
from .envelope import Envelope, phi, phi_inv, tmax, tplus
from .errors import CheckFailed, NotProper, check
from .polygeom import (
    EMPTY,
    PROPER,
    ZERO,
    SymPolygon,
    dk,
    global_sections_check,
    hull_union,
    membership_in_generated,
    minkowski_sum,
    scale_act,
    stalk_scale,
)
from .quadfield import HEEGNER_DS, QuadInt, QuadRat, canonical_unit_rep, enumerate_norm_le, field
from .tensorlab import (
    DISTINCT,
    EQUAL,
    POSSIBLY_EQUAL,
    FormalTensor,
    cancellation_instance,
    eval_separator,
    gamma,
    normalize,
    random_tensor,
    reduced_add,
    reduced_equal,
    tensor_add,
    tensor_mul,
)


def _group_rng(seed: int, group: str) -> random.Random:
    digest = hashlib.sha512(f"{seed}:{group}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def random_polygon(rng: random.Random, f, span: int = 3, degenerate_rate: float = 0.1):
    r = rng.random()
    if r < degenerate_rate / 2:
        return SymPolygon.empty(f)
    if r < degenerate_rate:
        return SymPolygon.zero(f)
    while True:
        pts = [
            QuadInt(f, rng.randint(-span, span), rng.randint(-span, span))
            for _ in range(rng.randint(1, 3))
        ]
        grid = [p.affix() for p in pts if not p.is_zero()]
        if not grid:
            continue
        try:
            return SymPolygon.from_grid(f, grid, f.case)
        except NotProper:
            continue


def random_proper_polygon(rng: random.Random, f, span: int = 3):
    while True:
        p = random_polygon(rng, f, span, degenerate_rate=0.0)
        if p.tag == PROPER:
            return p


def _c01_semiring(rng: random.Random) -> dict:
    triples = 500
    checked = 0
    for d in HEEGNER_DS:
        f = field(d)
        empty, zero = SymPolygon.empty(f), SymPolygon.zero(f)
        for _ in range(triples):
            a = random_polygon(rng, f)
            b = random_polygon(rng, f)
            c = random_polygon(rng, f)
            check(hull_union(a, b) == hull_union(b, a))
            check(hull_union(hull_union(a, b), c) == hull_union(a, hull_union(b, c)))
            check(hull_union(a, a) == a)
            check(minkowski_sum(a, b) == minkowski_sum(b, a))
            check(minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c)))
            check(minkowski_sum(a, hull_union(b, c)) == hull_union(
                minkowski_sum(a, b), minkowski_sum(a, c)
            ))
            check(hull_union(a, empty) == a)
            check(minkowski_sum(a, zero) == a)
            check(minkowski_sum(a, empty) == empty)
            checked += 1
    return {"fields": len(HEEGNER_DS), "triples": checked}


def _c02_membership_dichotomy(rng: random.Random) -> dict:
    accepted = 0
    for d in (1, 3):
        f = field(d)
        for _ in range(200):
            p = random_proper_polygon(rng, f)
            ok, dec = membership_in_generated(p)
            check(ok, f"integral polygon rejected over d={d}: {p}")
            check(dec is not None and dec.replay(f) == p)
            accepted += 1
    rejected = []
    for d in (2, 7, 11, 19, 43, 67, 163):
        f = field(d)
        long_vertex = QuadInt(f, 3, 0) if d == 2 else QuadInt(f, 2, 0)
        p = SymPolygon.from_grid(f, [long_vertex.affix(), f.omega.affix()], f.case)
        ok, dec = membership_in_generated(p)
        check(ok is False and dec is None, f"counterexample accepted over d={d}")
        rejected.append(d)
    return {"accepted": accepted, "rejected_fields": rejected}


def _c03_duality(rng: random.Random) -> dict:
    f = field(1)
    pairs = 1000
    for _ in range(pairs):
        a = random_polygon(rng, f)
        b = random_polygon(rng, f)
        fa, fb = phi(a), phi(b)
        check(phi(hull_union(a, b)) == tmax(fa, fb))
        check(phi(minkowski_sum(a, b)) == tplus(fa, fb))
        check(phi_inv(fa) == a)
        check(phi(phi_inv(fa)) == fa)
    return {"pairs": pairs}


def _c04_stalks(rng: random.Random) -> dict:
    checked = 0
    for i in range(50):
        f = field(HEEGNER_DS[i % len(HEEGNER_DS)])
        while True:
            num = QuadInt(f, rng.randint(-4, 4), rng.randint(-4, 4))
            if not num.is_zero():
                break
        k = QuadRat.make(num, rng.randint(1, 4))
        p = random_polygon(rng, f, span=2)
        ok_ring, dec_ring = membership_in_generated(p)
        element = stalk_scale(k, p)
        check(element.polygon == scale_act(k, p))
        ok_stalk, dec_stalk = element.member()
        check(ok_stalk == ok_ring)
        if ok_stalk:
            check(dec_stalk.replay(f) == element.polygon)
            check(dec_ring.replay(f) == p)
        checked += 1
    return {"scalars": checked}


def _c05_global_sections(rng: random.Random) -> dict:
    per_field = 200
    passing = 0
    for d in HEEGNER_DS:
        f = field(d)
        corpus = [random_polygon(rng, f, degenerate_rate=0.25) for _ in range(per_field)]
        corpus.extend([SymPolygon.empty(f), SymPolygon.zero(f)])
        for p in corpus:
            got = global_sections_check(p)
            check(got == (p.tag in (EMPTY, ZERO)))
            passing += got
    return {"per_field": per_field, "degenerate_passing": passing}


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _c06_primes(rng: random.Random) -> dict:
    bound = 200
    count_bound = 100
    for d in HEEGNER_DS:
        f = field(d)
        disc = f.discriminant
        for p in adelic.sieve(bound):
            above = primes_above(f, p)
            if disc % p == 0:
                expect = RAMIFIED
            elif p == 2:
                expect = SPLIT if (-disc) % 8 == 7 else INERT
            else:
                expect = SPLIT if _legendre(disc, p) == 1 else INERT
            kinds = {q.kind for q in above}
            check(kinds == {expect}, (d, p, kinds, expect))
            prod = 1
            for q in above:
                check(q.gen.norm() == p**q.residue_degree)
                prod *= q.gen.norm() ** q.ram_index
            check(prod == p * p, (d, p))
            if expect == SPLIT:
                first, second = above
                check(canonical_unit_rep(first.gen.conj()) == second.gen)
        counts = ideal_count_upto(f, count_bound)
        brute = [0] * (count_bound + 1)
        for w in enumerate_norm_le(f, count_bound):
            if w.in_sector():
                brute[w.norm()] += 1
        check(counts[1:] == brute[1:], f"ideal count mismatch over d={d}")
    return {"fields": len(HEEGNER_DS), "prime_bound": bound, "count_bound": count_bound}


def _random_vector(rng: random.Random, f, max_primes: int = 3) -> ValuationVector:
    pool = primes_upto(f, 30)
    rng.shuffle(pool)
    n_exp = rng.randint(0, max_primes)
    n_free = rng.randint(0, 2)
    exps = [(p, rng.choice((-3, -2, -1, 1, 2, 3))) for p in pool[:n_exp]]
    free = pool[n_exp : n_exp + n_free]
    return ValuationVector.make(f, exps, free)


def _random_quadrat(rng: random.Random, f, span: int = 6) -> QuadRat:
    while True:
        num = QuadInt(f, rng.randint(-span, span), rng.randint(-span, span))
        if not num.is_zero():
            return QuadRat.make(num, rng.randint(1, 12))


def _c07_adeles(rng: random.Random) -> dict:
    per_field = 100
    for d in HEEGNER_DS:
        f = field(d)
        delta = complementary_generator(f)
        for _ in range(per_field):
            a = _random_vector(rng, f)
            h = module_from_adele(a)
            check(adele_from_module(h) == a)
            check(module_from_adele(adele_from_module(h)) == h)
            q = _random_quadrat(rng, f)
            support = set(primes_upto(f, 40))
            support.update(adelic.support_primes(q))
            support.update(adelic.support_primes(delta))
            support.update(p for p, _ in a.exps)
            direct = all(
                valuation(q, p) >= valuation(delta, p) - a.exp_of(p)
                for p in support
                if p not in set(a.free)
            )
            check(h.member(q) == direct)
            b = _random_vector(rng, f)
            eq, k = iso_class_equal(a, b)
            check(eq == (a.free == b.free))
            if eq:
                places = set(p for p, _ in a.exps) | set(p for p, _ in b.exps)
                places.update(adelic.support_primes(k))
                for p in places:
                    if p in set(a.free):
                        continue
                    check(valuation(k, p) == b.exp_of(p) - a.exp_of(p))
    return {"fields": len(HEEGNER_DS), "vectors_per_field": per_field}


def _c08_fibers(rng: random.Random) -> dict:
    g = pullback_fiber(GENERIC)
    table = []
    for x in g.elements:
        for y in g.elements:
            table.append((x, y, g.add(x, y), g.mul(x, y)))
    check(g.add("empty", "empty") == "empty")
    check(g.add("empty", "zero") == "zero" == g.add("zero", "empty"))
    check(g.add("zero", "zero") == "zero")
    check(g.mul("zero", "zero") == "zero")
    check(g.mul("empty", "zero") == "empty" == g.mul("zero", "empty"))
    check(g.mul("empty", "empty") == "empty")

    f = field(1)
    (p2,) = primes_above(f, 2)
    fiber = pullback_fiber(p2)
    one = QuadRat.from_int(f, 1)
    inside = scale_act(one / QuadInt(f, 1, 1), dk(f))
    outside = scale_act(one / 3, dk(f))
    ok_in, level = fiber.member(inside)
    ok_out, _ = fiber.member(outside)
    check(ok_in is True and level == 1)
    check(ok_out is False)
    check(fiber.module.member(one / QuadInt(f, 1, 1)))
    check(not fiber.module.member(one / 3))
    return {"table_size": len(table), "localized_prime": 2}


def _lowered(rng: random.Random, e: Envelope) -> Envelope:
    s = e.scale
    lines = [(a - rng.randint(1, 3) * s, b - rng.randint(1, 3) * s) for a, b in e.arc]
    return Envelope.from_grid(lines, s)


def _noisy_variant(rng: random.Random, t: FormalTensor) -> FormalTensor:
    """Same tensor via rewrites the fixpoint provably undoes.

    Duplicates and lowered-second pairs always re-merge with their source by
    shared first component; lowered-first pairs re-merge by shared second,
    but only if the lowered envelope collides with no other first component
    (group-by-first runs before the domination pass), so those are filtered.
    """
    pairs = list(t.pairs)
    firsts = {e for e, _ in t.pairs}
    for e, f in t.pairs:
        roll = rng.random()
        if roll < 0.4:
            pairs.append((e, f))
        elif roll < 0.7:
            pairs.append((e, _lowered(rng, f)))
        else:
            drop = _lowered(rng, e)
            if drop not in firsts:
                firsts.add(drop)
                pairs.append((drop, f))
    rng.shuffle(pairs)
    return FormalTensor(tuple(pairs))


def _free_noise(rng: random.Random, t: FormalTensor) -> FormalTensor:
    """Pairs dominated by some pair of t, no collision constraints."""
    pairs = list(t.pairs)
    for e, f in t.pairs:
        pairs.append((_lowered(rng, e), _lowered(rng, f)))
    rng.shuffle(pairs)
    return FormalTensor(tuple(pairs))


def _c09_tensor_sandwich(rng: random.Random) -> dict:
    rounds = 2000
    verdicts = {DISTINCT: 0, POSSIBLY_EQUAL: 0}
    for _ in range(rounds):
        s = random_tensor(rng, bottom_rate=0.03)
        t = random_tensor(rng, bottom_rate=0.03)
        v = eval_separator(s, t)
        verdicts[v] += 1
        if s == t:
            check(v == POSSIBLY_EQUAL, "normalize-equal pair separated")

        raw = _noisy_variant(rng, s)
        check(normalize(raw) == s, "undoable rewrite changed the canonical form")
        n = normalize(_free_noise(rng, s))
        check(normalize(n) == n, "normalize not idempotent")
        if not s.is_bottom():
            # free noise may land in a different normal form of the same
            # function; the separator decides function equality exactly
            check(eval_separator(n, s) == POSSIBLY_EQUAL, "identity separated")
            check(eval_separator(raw, s) == POSSIBLY_EQUAL)

        e1 = tensorlab.random_envelope(rng)
        e2 = tensorlab.random_envelope(rng)
        f1 = tensorlab.random_envelope(rng)
        g1 = tensorlab.random_envelope(rng)
        one = FormalTensor.make([(e1, f1)])
        # bilinearity in each slot, idempotence, bottom absorption
        merged = tensor_add(one, FormalTensor.make([(e2, f1)]))
        check(merged == FormalTensor.make([(tmax(e1, e2), f1)]))
        check(eval_separator(merged, FormalTensor.make([(tmax(e1, e2), f1)])) == POSSIBLY_EQUAL)
        second = tensor_add(one, FormalTensor.make([(e1, g1)]))
        check(second == FormalTensor.make([(e1, tmax(f1, g1))]))
        check(eval_separator(second, FormalTensor.make([(e1, tmax(f1, g1))])) == POSSIBLY_EQUAL)
        check(tensor_add(one, one) == one)
        check(FormalTensor.make([(e1, Envelope.bottom())]) == FormalTensor.bottom())
        check(tensor_mul(one, FormalTensor.bottom()) == FormalTensor.bottom())
    return {"rounds": rounds, "separated": verdicts[DISTINCT], "unseparated": verdicts[POSSIBLY_EQUAL]}


def _c10_reduced(rng: random.Random) -> dict:
    instances = 200
    for _ in range(instances):
        a, b, c, d, e = (random_tensor(rng) for _ in range(5))
        x, y, w = cancellation_instance(a, b, c, d, e)
        status, got = reduced_equal(x, y, hint=w)
        check(status == EQUAL, "proof witness failed to certify")
        check(got is not None)
    additive = 200
    for _ in range(additive):
        s = random_tensor(rng)
        t = random_tensor(rng)
        lhs = gamma(tensor_add(s, t))
        rhs = reduced_add(gamma(s), gamma(t))
        check(lhs.a == rhs.a and lhs.b == rhs.b)
        status, _ = reduced_equal(lhs, rhs)
        check(status == EQUAL)
    return {"cancellations": instances, "additivity_pairs": additive}


GROUPS = (
    ("c01", _c01_semiring),
    ("c02", _c02_membership_dichotomy),
    ("c03", _c03_duality),
    ("c04", _c04_stalks),
    ("c05", _c05_global_sections),
    ("c06", _c06_primes),
    ("c07", _c07_adeles),
    ("c08", _c08_fibers),
    ("c09", _c09_tensor_sandwich),
    ("c10", _c10_reduced),
)


def run(seed: int, out=None, only: set[str] | None = None) -> bool:
    out = out or sys.stdout
    all_ok = True
    for name, fn in GROUPS:
        if only is not None and name not in only:
            continue
        rng = _group_rng(seed, name)
        try:
            stats = fn(rng)
            ok = True
        except CheckFailed as exc:
            stats = {"failure": str(exc) or "assertion failed"}
            ok = False
        line = {"group": name, "ok": ok, "seed": seed}
        line.update(stats)
        print(wire.dumps(line), file=out)
        all_ok = all_ok and ok
    return all_ok
