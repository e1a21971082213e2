"""adelic: primes, valuations and modules, mostly on a warm prime cache.

Before timing, primes_above is asked for every rational prime up to 200 in
all nine fields, so the common operations (module <-> vector round trips,
valuations, iso_class_equal, ModuleHandle.member, section validate and act,
ideal_count_upto) run on cached primes.  Per cycle of 250 operations, 11
(4.4 %) miss that cache: primes_above on a (field, prime) pair never asked
before, drawn from 10^3..10^4 (2 ops), 10^4..3*10^4 (3), 10^5..1.2*10^5 (3)
and 10^6..1.01*10^6 (1), and quadfield.gcd on 7-digit coefficients (2).
op_p50_ms lands in the round trips and op_p99_ms in the 10^5 misses.

Each band holds fresh pairs for more than 4000 cycles (over 150 cycles a second
for 25 s); a run that uses a band up stops with an error instead of reusing a
cached prime.
"""

from __future__ import annotations

import random

import oracle
from harness import Op, expect
from tropigon import wire
from tropigon.adelic import (
    FiniteSection,
    ValuationVector,
    adele_from_module,
    ideal_count_upto,
    iso_class_equal,
    module_from_adele,
    primes_above,
    primes_upto,
    section_act,
    section_validate,
    valuation,
)
from tropigon.quadfield import HEEGNER_DS, QuadInt, QuadRat, field, gcd

NAME = "adelic"
IMPORT = "tropigon"
WARM_BOUND = 200
# decade -> (low, high) of the fresh primes drawn for it
# (narrow at the top, where one miss costs as much as a whole cycle of cached work)
MISS_BANDS = {3: (10**3, 10**4), 4: (10**4, 3 * 10**4), 5: (10**5, 12 * 10**4), 6: (10**6, 101 * 10**4)}
MIX = {
    "roundtrip": 110,
    "valuation": 30,
    "iso": 20,
    "member": 30,
    "section": 25,
    "ideal_count": 24,
    "miss_p1e3": 2,
    "miss_p1e4": 3,
    "miss_p1e5": 3,
    "miss_p1e6": 1,
    "gcd7": 2,
}
CYCLE_OPS = sum(MIX.values())
TRACE_CYCLE_S = 0.35


def _prime_pool(f):
    return primes_upto(f, 30)


def _vector(rng, f, max_primes=3) -> ValuationVector:
    pool = _prime_pool(f)
    rng.shuffle(pool)
    n_exp = rng.randint(0, max_primes)
    n_free = rng.randint(0, 2)
    exps = [(p, rng.choice((-3, -2, -1, 1, 2, 3))) for p in pool[:n_exp]]
    return ValuationVector.make(f, exps, pool[n_exp:n_exp + n_free])


def _quadrat(rng, f, span=6) -> QuadRat:
    while True:
        num = QuadInt(f, rng.randint(-span, span), rng.randint(-span, span))
        if not num.is_zero():
            return QuadRat.make(num, rng.randint(1, 12))


def _ring(rng, f, lo, hi):
    a, b = (rng.choice((-1, 1)) * rng.randrange(lo, hi) for _ in range(2))
    return QuadInt(f, a, b)


def _check_primes(f, p):
    def check(out):
        kind = oracle.splitting(f.d, p)
        if {q.kind for q in out} != {kind}:
            return f"p={p}: kinds {sorted({q.kind for q in out})}, Legendre says {kind}"
        if len(out) != (2 if kind == "split" else 1):
            return f"p={p}: {len(out)} primes above a {kind} prime"
        prod = 1
        for q in out:
            n = oracle.norm(f.d, q.gen.a, q.gen.b)
            if n != p ** q.residue_degree:
                return f"p={p}: generator norm {n}"
            prod *= n ** q.ram_index
        return expect(prod == p * p, f"p={p}: product of N(P)^e is {prod}, not p^2")

    return check


def _check_gcd(x, y):
    d = x.field.d

    def check(out):
        g, s, t = out
        gx = (g.a, g.b)
        lin = oracle.mul(d, (s.a, s.b), (x.a, x.b))
        lin2 = oracle.mul(d, (t.a, t.b), (y.a, y.b))
        if (lin[0] + lin2[0], lin[1] + lin2[1]) != gx:
            return "g != s*x + t*y"
        ok = oracle.divides(d, gx, (x.a, x.b)) and oracle.divides(d, gx, (y.a, y.b))
        return expect(ok, "g does not divide both arguments")

    return check


class Stream:
    def __init__(self, seed: int):
        self.seed = seed
        for d in HEEGNER_DS:
            primes_upto(field(d), WARM_BOUND)
        # every (field, prime) pair of a band once, in a seeded order
        self.fresh = {}
        for k, (lo, hi) in MISS_BANDS.items():
            pool = [(d, p) for p in range(lo, hi) if oracle.is_prime(p) for d in HEEGNER_DS]
            random.Random(f"{NAME}:{seed}:band{k}").shuffle(pool)
            self.fresh[k] = pool

    def _fresh_prime(self, k):
        if not self.fresh[k]:
            lo, hi = MISS_BANDS[k]
            raise RuntimeError(f"adelic: every prime in {lo}..{hi} was used in every field; "
                               "widen MISS_BANDS or shorten --seconds")
        d, p = self.fresh[k].pop()
        return field(d), p

    def _op(self, kind, rng, k):
        if kind.startswith("miss_p1e"):
            f, p = self._fresh_prime(int(kind[-1]))
            return Op(kind, lambda: primes_above(f, p), _check_primes(f, p),
                      lambda out: [wire.prime_to_json(q) for q in out])
        f = field(HEEGNER_DS[rng.randrange(len(HEEGNER_DS))])
        if kind == "gcd7":
            x, y = _ring(rng, f, 10**6, 10**7), _ring(rng, f, 10**6, 10**7)
            return Op(kind, lambda: gcd(x, y), _check_gcd(x, y),
                      lambda out: [wire.quadint_to_json(z) for z in out])
        if kind == "roundtrip":
            a = _vector(rng, f)

            def run():
                h = module_from_adele(a)
                return h, adele_from_module(h)

            return Op(kind, run, lambda out: expect(out[1] == a, "vector -> module -> vector changed it"),
                      lambda out: [wire.module_to_json(out[0]), wire.vector_to_json(out[1])])
        if kind == "valuation":
            q = _quadrat(rng, f)
            p = rng.choice(_small_primes(q) or [2])
            above = primes_above(f, p)

            def check(out):
                # sum of f_P * v_P(q) over P | p is v_p(N(q)), with N(q) = N(num) / den^2
                n = oracle.norm(f.d, q.num.a, q.num.b)
                want = oracle.vp(n, p) - 2 * oracle.vp(q.den, p)
                got = sum(P.residue_degree * v for P, v in zip(above, out))
                return expect(got == want, f"valuations {out} at p={p} do not add up to {want}")

            return Op(kind, lambda: [valuation(q, P) for P in above], check, lambda out: out)
        if kind == "iso":
            a, b = _vector(rng, f), _vector(rng, f)
            if rng.random() < 0.5:
                # the same free set makes the two isomorphic
                b = ValuationVector.make(f, [(P, e) for P, e in b.exps if P not in a.free], a.free)

            def check(out):
                eq, k = out
                if eq != (a.free == b.free):
                    return f"iso_class_equal said {eq}"
                if eq:
                    for P in {P for P, _ in a.exps} | {P for P, _ in b.exps}:
                        if valuation(k, P) != b.exp_of(P) - a.exp_of(P):
                            return "witness has the wrong valuation"
                return None

            return Op(kind, lambda: iso_class_equal(a, b), check,
                      lambda out: {"equal": out[0], "witness": wire.quadrat_to_json(out[1]) if out[0] else None})
        if kind == "member":
            h = module_from_adele(_vector(rng, f))
            q = _quadrat(rng, f)
            return Op(kind, lambda: (h.member(q), h.member(h.gen)),
                      lambda out: expect(out[1] is True, "a module does not contain its generator"),
                      lambda out: list(out))
        if kind == "section":
            pool = _prime_pool(f)
            values = []
            for P in rng.sample(pool, rng.randint(1, 3)):
                pi = QuadRat(P.gen, 1)
                values.append((P, QuadRat.make(QuadInt(f, rng.randint(1, 5), rng.randint(-3, 3)), 1)
                               * pi.pow(-rng.randint(1, 3))))
            s = FiniteSection.make(f, WARM_BOUND, values)
            k = QuadInt(f, rng.randint(1, 6), rng.randint(-3, 3))

            def check(out):
                valid, acted = out
                if not valid:
                    return "a section with local denominators was rejected"
                return expect([x for _, x in acted.values] == [x * k for _, x in s.values],
                               "section_act did not scale every value")

            return Op(kind, lambda: (section_validate(s), section_act(k, s)), check,
                      lambda out: [out[0], wire.section_to_json(out[1])])
        if kind == "ideal_count":
            # bounds stratified over 50..200, so every cycle counts the same amount
            bound = 50 + (WARM_BOUND - 50) * k // MIX["ideal_count"]

            def check(out):
                if len(out) != bound + 1 or out[1] != 1:
                    return "counts malformed"
                for p in range(2, bound + 1):
                    if oracle.is_prime(p):
                        want = {"split": 2, "ramified": 1, "inert": 0}[oracle.splitting(f.d, p)]
                        if out[p] != want:
                            return f"{out[p]} ideals of norm {p}, expected {want}"
                return None

            return Op(kind, lambda: ideal_count_upto(f, bound), check, lambda out: out)
        raise ValueError(kind)

    def cycle(self, c: int) -> list[Op]:
        rng = random.Random(f"{NAME}:{self.seed}:{c}")
        slots = [(kind, k) for kind, n in MIX.items() for k in range(n)]
        rng.shuffle(slots)
        return [self._op(kind, rng, k) for kind, k in slots]


def _small_primes(q: QuadRat) -> list[int]:
    """Rational primes dividing N(num) * den, all below 200 for the values drawn here."""
    n = oracle.norm(q.field.d, q.num.a, q.num.b) * q.den
    return [p for p in range(2, 200) if n % p == 0 and oracle.is_prime(p)]


def layer_metrics(kind_stats: dict, tracer) -> dict:
    """primes_above.p1e<k>_s: mean seconds of one cache miss with p in decade k."""
    out = {}
    for k in MISS_BANDS:
        row = kind_stats.get(f"miss_p1e{k}")
        out[f"adelic.primes_above.p1e{k}_s"] = row["mean_ms"] / 1e3 if row else 0.0
    return out
