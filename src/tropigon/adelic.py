"""Prime splitting, valuation vectors, and the catalog of submodules of K.

Finitely supported data only: a vector stores its nonzero exponents plus the
set of primes where the component is zero ("free", no constraint).  Every
module of K that arises this way is principal away from the free primes, so a
single rational generator plus the free set is a faithful handle.

Points over C, pairs (a, lam) of a vector and an archimedean coordinate, are
compared only through their canonical descriptor `point_over_c`; `point_iso`
is equality of descriptors.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

from .errors import (
    MAX_NAMED_PRIME,
    InvalidSection,
    MalformedInput,
    OutOfBudget,
    OutOfDomain,
    ZeroInput,
    ZeroModule,
    check,
    within,
)
from .polygeom import PROPER, SymPolygon, membership_in_generated, scale_act
from .quadfield import Field, QuadInt, QuadRat, Value, canonical_unit_rep, gcd, same_field

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

GENERIC = "generic"

ZERO_MODULE = "zero"
PRINCIPAL = "principal"
LOCALIZED = "localized"

_set = object.__setattr__


class PrimeIdeal(Value):
    __slots__ = ("field", "p", "kind", "gen", "index", "_hash")
    __match_args__ = ("field", "p", "kind", "gen", "index")

    def __init__(self, field: Field, p: int, kind: str, gen: QuadInt, index: int):
        _set(self, "field", field)
        _set(self, "p", p)
        _set(self, "kind", kind)
        _set(self, "gen", gen)
        _set(self, "index", index)  # 0, or 1 for the second member of a split pair
        _set(self, "_hash", hash((field, p, kind, gen, index)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.p, self.kind, self.gen, self.index) == (
            other.field, other.p, other.kind, other.gen, other.index
        )

    def __hash__(self):
        return self._hash

    @property
    def residue_degree(self) -> int:
        return 2 if self.kind == INERT else 1

    @property
    def ram_index(self) -> int:
        # valuation of the rational prime p at this place
        return 2 if self.kind == RAMIFIED else 1

    def sort_key(self) -> tuple[int, int]:
        return (self.p, self.index)

    def __repr__(self):
        return f"PrimeIdeal(d={self.field.d}, p={self.p}, {self.kind}, gen=({self.gen.a},{self.gen.b}))"


def _ideal_gen(f: Field, p: int, r: int) -> QuadInt:
    # generator of (p, omega - r); class number 1 makes it principal
    g, _, _ = gcd(QuadInt(f, p, 0), QuadInt(f, -r, 1))
    check(g.norm() == p)
    return g


@lru_cache(maxsize=4096)
def primes_above(f: Field, p: int) -> tuple[PrimeIdeal, ...]:
    if _prime_factors(p)[0] != [p]:
        raise OutOfDomain(f"{p} is not a rational prime")
    tr, nm = f.trace_omega, f.norm_omega
    roots = [r for r in range(p) if (r * r - tr * r + nm) % p == 0]
    if not roots:
        return (PrimeIdeal(f, p, INERT, canonical_unit_rep(QuadInt(f, p, 0)), 0),)
    if f.discriminant % p == 0:
        return (PrimeIdeal(f, p, RAMIFIED, _ideal_gen(f, p, roots[0]), 0),)
    # split: the smaller root labels the first conjugate
    return tuple(PrimeIdeal(f, p, SPLIT, _ideal_gen(f, p, r), i) for i, r in enumerate(roots))


def sieve(bound: int) -> list[int]:
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(2, bound + 1) if flags[i]]


def primes_upto(f: Field, bound: int) -> list[PrimeIdeal]:
    out: list[PrimeIdeal] = []
    for p in sieve(bound):
        out.extend(primes_above(f, p))
    return out


def valuation(q: QuadRat, prime: PrimeIdeal) -> int:
    same_field(q, prime)
    if q.is_zero():
        raise ZeroInput("valuation of 0")
    # divide the numerator by pi while the quotient x*conj(pi)/N(pi) stays integral
    n, conj = prime.gen.norm(), prime.gen.conj()
    v = 0
    cur = q.num
    while True:
        w = cur * conj
        if w.a % n or w.b % n:
            break
        cur = QuadInt(cur.field, w.a // n, w.b // n)
        v += 1
    den, k = q.den, 0
    while den % prime.p == 0:
        den //= prime.p
        k += 1
    return v - k * prime.ram_index


@cache
def complementary_generator(f: Field) -> QuadRat:
    # delta with (delta) = {x : tr(x*O_K) in Z}: the inverse different,
    # 1/P'(omega) = 1/(omega - conj(omega)) for omega's minimal polynomial P
    return QuadRat.from_int(f, 1) / (f.omega - f.omega.conj())


def _unit_canonical_rat(q: QuadRat) -> QuadRat:
    # unit multiplication is a GL2(Z) change of coordinates, so lowest terms survive
    return QuadRat(canonical_unit_rep(q.num), q.den)


def _prime_pow(prime: PrimeIdeal, e: int) -> QuadRat:
    return QuadRat(prime.gen, 1).pow(e)


def _realize(k: QuadRat, exps) -> QuadRat:
    """k * prod pi^-e over the (prime, e) pairs of exps."""
    for prime, e in exps:
        k = k * _prime_pow(prime, -e)
    return k


def _strip(k: QuadRat, free) -> QuadRat:
    """k with its valuation cleared at each free prime.

    pi^-v changes no valuation at any other prime, so the result is
    integral exactly when k is integral away from the free primes.
    """
    for prime in free:
        v = valuation(k, prime)
        if v:
            k = k * _prime_pow(prime, -v)
    return k


def _sorted_primes(f: Field, primes) -> tuple[PrimeIdeal, ...]:
    primes = set(primes)
    for prime in primes:
        same_field(prime, f.one)
    return tuple(sorted(primes, key=PrimeIdeal.sort_key))


def _keyed_primes(f: Field, pairs, what: str, keep) -> tuple:
    """A dict or list of (prime, value) pairs over f, as a tuple sorted by prime.

    A prime over another field raises FieldMismatch and a repeated prime
    MalformedInput.  keep(prime, value) runs on each pair in input order,
    may raise, and drops the pair when false.
    """
    items = []
    seen: set[PrimeIdeal] = set()
    for prime, x in pairs.items() if isinstance(pairs, dict) else pairs:
        same_field(prime, f.one)
        if prime in seen:
            raise MalformedInput(f"duplicate prime in {what}")
        seen.add(prime)
        if keep(prime, x):
            items.append((prime, x))
    items.sort(key=lambda t: t[0].sort_key())
    return tuple(items)


def _prime_factors(n: int, upto: int | None = None) -> tuple[list[int], int]:
    """The distinct prime factors of n, ascending; with upto, only those <= upto.

    Also returns the cofactor left over: 1, or the part of |n| whose prime
    factors all lie above upto.
    """
    n = abs(n)
    if upto is None:
        upto = n
    out = []
    p = 2
    while p * p <= n and p <= upto:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    # what is left is 1, a prime, or has only prime factors above upto
    if 1 < n <= upto:
        out.append(n)
        n = 1
    return out, n


def support_primes(q: QuadRat) -> list[PrimeIdeal]:
    # every prime where v(q) could be nonzero lies above norm(num)*den
    # rest is 0, 1, or has only prime factors over the cap, so it is over the cap iff it is over 1
    ps, rest = _prime_factors(q.num.norm() * q.den, MAX_NAMED_PRIME)
    within(rest, MAX_NAMED_PRIME, OutOfBudget, "norm times denominator has a prime factor over {cap}")
    within(sum(ps), MAX_NAMED_PRIME, OutOfBudget, "prime factors of norm times denominator sum to more than {cap}")
    out: list[PrimeIdeal] = []
    for p in ps:
        out.extend(primes_above(q.field, p))
    return out


class ValuationVector(Value):
    __slots__ = ("field", "exps", "free")
    __match_args__ = __slots__

    def __init__(self, field: Field, exps: tuple[tuple[PrimeIdeal, int], ...], free: tuple[PrimeIdeal, ...]):
        _set(self, "field", field)
        _set(self, "exps", exps)
        _set(self, "free", free)

    @staticmethod
    def make(f: Field, exps=(), free=()) -> ValuationVector:
        free_t = _sorted_primes(f, free)
        free_set = set(free_t)

        def nonzero(prime: PrimeIdeal, e: int) -> bool:
            if prime in free_set:
                raise MalformedInput("exponent listed at a free prime")
            return e != 0

        items = _keyed_primes(f, exps, "exponent list", nonzero)
        return ValuationVector(f, tuple((prime, int(e)) for prime, e in items), free_t)

    def exp_of(self, prime: PrimeIdeal) -> int:
        for q, e in self.exps:
            if q == prime:
                return e
        return 0

    def __repr__(self):
        es = ", ".join(f"({p.p},{p.index}):{e}" for p, e in self.exps)
        fs = ", ".join(f"({p.p},{p.index})" for p in self.free)
        return f"ValuationVector(d={self.field.d}, exps=[{es}], free=[{fs}])"


class ModuleHandle(Value):
    __slots__ = ("field", "kind", "gen", "free")
    __match_args__ = __slots__

    def __init__(self, field: Field, kind: str, gen: QuadRat | None, free: tuple[PrimeIdeal, ...]):
        _set(self, "field", field)
        _set(self, "kind", kind)
        _set(self, "gen", gen)
        _set(self, "free", free)

    @staticmethod
    def zero(f: Field) -> ModuleHandle:
        return ModuleHandle(f, ZERO_MODULE, None, ())

    @staticmethod
    def make(f: Field, gen: QuadRat, free=()) -> ModuleHandle:
        same_field(gen, f.one)
        if gen.is_zero():
            raise ZeroInput("nonzero module with zero generator")
        free_t = _sorted_primes(f, free)
        # valuations at free primes carry no information: clear them so equal
        # modules compare equal as handles
        gen = _unit_canonical_rat(_strip(gen, free_t))
        kind = LOCALIZED if free_t else PRINCIPAL
        return ModuleHandle(f, kind, gen, free_t)

    def member(self, q: QuadRat) -> bool:
        same_field(q, self)
        if self.kind == ZERO_MODULE:
            return q.is_zero()
        if q.is_zero():
            return True
        return _strip(q / self.gen, self.free).is_integral()

    def __repr__(self):
        if self.kind == ZERO_MODULE:
            return f"ModuleHandle(d={self.field.d}, zero)"
        fs = ", ".join(f"({p.p},{p.index})" for p in self.free)
        return f"ModuleHandle(d={self.field.d}, {self.kind}, gen={self.gen}, free=[{fs}])"


def module_from_adele(a: ValuationVector) -> ModuleHandle:
    # H_a = {q : v(q) >= v(delta) - e at every constrained prime}
    return ModuleHandle.make(a.field, _realize(complementary_generator(a.field), a.exps), a.free)


def adele_from_module(h: ModuleHandle) -> ValuationVector:
    if h.kind == ZERO_MODULE:
        raise ZeroModule("the zero module is not of the form H_a")
    ratio = complementary_generator(h.field) / h.gen
    exps = [(prime, valuation(ratio, prime)) for prime in support_primes(ratio) if prime not in h.free]
    return ValuationVector.make(h.field, exps, h.free)


def iso_class_equal(a: ValuationVector, b: ValuationVector) -> tuple[bool, QuadRat | None]:
    same_field(a, b)
    if a.free != b.free:
        return False, None
    # the witness carries b's exponents minus a's
    return True, _realize(QuadRat.from_int(a.field, 1), a.exps + tuple((prime, -e) for prime, e in b.exps))


def point_over_c(a: ValuationVector, lam: QuadRat):
    """Canonical descriptor of the pair (a, lam) under the joint K* action.

    The archimedean coordinate is divided by a generator realizing the
    exponents, stripped of free-prime valuations, and reduced modulo units.
    A zero coordinate gives None, so such degenerate pairs compare by their
    free set alone.
    """
    same_field(lam, a)
    if lam.is_zero():
        return (a.field.d, a.free, None)
    return (a.field.d, a.free, _unit_canonical_rat(_strip(_realize(lam, a.exps), a.free)))


def point_iso(pa: tuple[ValuationVector, QuadRat], pb: tuple[ValuationVector, QuadRat]) -> bool:
    """Are the pairs (a, lam) and (b, mu) one point over C?"""
    same_field(pa[0], pb[0])
    return point_over_c(*pa) == point_over_c(*pb)


class FiniteSection(Value):
    __slots__ = ("field", "prime_bound", "values")
    __match_args__ = __slots__

    def __init__(self, field: Field, prime_bound: int, values: tuple[tuple[PrimeIdeal, QuadRat], ...]):
        _set(self, "field", field)
        _set(self, "prime_bound", prime_bound)
        _set(self, "values", values)

    @staticmethod
    def make(f: Field, prime_bound: int, values=()) -> FiniteSection:
        def nonzero(prime: PrimeIdeal, xi: QuadRat) -> bool:
            same_field(xi, f.one)
            return not xi.is_zero()

        return FiniteSection(f, prime_bound, _keyed_primes(f, values, "section", nonzero))


def section_violation(s: FiniteSection) -> PrimeIdeal | None:
    # only denominator primes can fail, and only at places other than the
    # component's own prime; the bound keeps the check finite
    for prime, xi in s.values:
        for p in _prime_factors(xi.den, s.prime_bound)[0]:
            for q in primes_above(s.field, p):
                if q != prime and valuation(xi, q) < 0:
                    return q
    return None


def section_validate(s: FiniteSection) -> bool:
    return section_violation(s) is None


def section_act(k: QuadInt, s: FiniteSection) -> FiniteSection:
    same_field(k, s)
    bad = section_violation(s)
    if bad is not None:
        raise InvalidSection(bad)
    out = FiniteSection.make(
        s.field, s.prime_bound, [(prime, xi * k) for prime, xi in s.values]
    )
    check(section_violation(out) is None)  # integral scaling never lowers a valuation
    return out


class GenericFiber(Value):
    """The two-element semiring: EMPTY is additive zero, ZERO the unit."""

    __slots__ = ("elements",)
    __match_args__ = __slots__

    def __init__(self, elements: tuple[str, str] = ("empty", "zero")):
        _set(self, "elements", elements)

    def _check(self, x: str):
        if x not in self.elements:
            raise OutOfDomain(f"{x!r} is not an element of the generic fiber")

    def add(self, x: str, y: str) -> str:
        self._check(x)
        self._check(y)
        return "zero" if "zero" in (x, y) else "empty"

    def mul(self, x: str, y: str) -> str:
        self._check(x)
        self._check(y)
        return "empty" if "empty" in (x, y) else "zero"


class PrimeFiber(Value):
    __slots__ = ("prime", "module")
    __match_args__ = __slots__

    def __init__(self, prime: PrimeIdeal, module: ModuleHandle):
        _set(self, "prime", prime)
        _set(self, "module", module)

    def member(self, poly: SymPolygon) -> tuple[bool, int | None]:
        """Is the polygon in the semiring generated by {h*D_K : h in H(prime)}?

        Returns (answer, n) where pi^n clears the prime from the witness: the
        scaled polygon lies in the integral semiring.  A polygon whose vertices
        have a denominator at any other place is rejected outright.
        """
        f = self.prime.field
        same_field(poly, self.prime)
        if poly.tag != PROPER:
            return True, 0
        n0 = 0
        for q in poly.sector_elements:
            if not _strip(q, (self.prime,)).is_integral():
                return False, None
            n0 = max(n0, -valuation(q, self.prime))
        # scaling by pi is monotone, so search upward from the first integral level;
        # for d in {1, 3} integrality already decides, elsewhere scan a short window
        tries = 1 if f.sigma > 2 else 3
        for n in range(n0, n0 + tries):
            ok, _ = membership_in_generated(scale_act(_prime_pow(self.prime, n), poly))
            if ok:
                return True, n
        return False, None


def pullback_fiber(at):
    if at == GENERIC:
        return GenericFiber()
    if isinstance(at, PrimeIdeal):
        one = QuadRat.from_int(at.field, 1)
        return PrimeFiber(at, ModuleHandle.make(at.field, one, (at,)))
    raise MalformedInput("expected a prime ideal or 'generic'")


def ideal_count_upto(f: Field, bound: int) -> list[int]:
    """counts[n] = number of ideals of norm exactly n, 0 <= n <= bound."""
    counts = [0] * (bound + 1)
    if bound >= 1:
        counts[1] = 1
    for prime in primes_upto(f, bound):
        q = prime.p**prime.residue_degree
        if q > bound:
            continue
        for n in range(q, bound + 1, q):
            counts[n] += counts[n // q]
    return counts
