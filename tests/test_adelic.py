"""Prime splitting, valuation vectors, module handles, sections, fibers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropigon import (
    HEEGNER_DS,
    INERT,
    RAMIFIED,
    SPLIT,
    FiniteSection,
    GenericFiber,
    ModuleHandle,
    PrimeFiber,
    QuadInt,
    QuadRat,
    SymPolygon,
    ValuationVector,
    adele_from_module,
    canonical_unit_rep,
    complementary_generator,
    dk,
    field,
    ideal_count_upto,
    iso_class_equal,
    module_from_adele,
    point_iso,
    point_over_c,
    primes_above,
    primes_upto,
    pullback_fiber,
    scale_act,
    section_act,
    section_validate,
    valuation,
)
from tropigon.adelic import GENERIC, support_primes
from tropigon.errors import (
    FieldMismatch,
    InvalidSection,
    MalformedInput,
    OutOfBudget,
    OutOfDomain,
    ZeroInput,
    ZeroModule,
)
from tropigon.quadfield import enumerate_norm_le

F1 = field(1)


def _prime(f, p, gen_ab=None):
    above = primes_above(f, p)
    if gen_ab is None:
        assert len(above) == 1
        return above[0]
    for q in above:
        if (q.gen.a, q.gen.b) == gen_ab:
            return q
    raise AssertionError(f"no prime over {p} with generator {gen_ab}")


# --------------------------------------------------------------- splitting


def test_splitting_frozen_gaussian():
    five = primes_above(F1, 5)
    assert [q.kind for q in five] == [SPLIT, SPLIT]
    assert {(q.gen.a, q.gen.b) for q in five} == {(1, 2), (2, 1)}
    assert all(q.residue_degree == 1 and q.ram_index == 1 for q in five)
    (three,) = primes_above(F1, 3)
    assert three.kind == INERT and three.residue_degree == 2
    assert (three.gen.a, three.gen.b) == (3, 0)
    (two,) = primes_above(F1, 2)
    assert two.kind == RAMIFIED and two.ram_index == 2
    assert (two.gen.a, two.gen.b) == (1, 1)


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return r if r == 1 else -1


def _sieve(bound):
    flags = [True] * (bound + 1)
    flags[0] = flags[1] = False
    for n in range(2, int(bound**0.5) + 1):
        if flags[n]:
            flags[n * n :: n] = [False] * len(flags[n * n :: n])
    return [n for n, ok in enumerate(flags) if ok]


@pytest.mark.parametrize("d", HEEGNER_DS)
def test_splitting_matches_legendre_symbol(d):
    f = field(d)
    disc = f.discriminant
    for p in _sieve(60):
        above = primes_above(f, p)
        if disc % p == 0:
            expect = RAMIFIED
        elif p == 2:
            expect = SPLIT if (-disc) % 8 == 7 else INERT
        else:
            expect = SPLIT if _legendre(disc, p) == 1 else INERT
        assert {q.kind for q in above} == {expect}, (d, p)
        # the generator norms multiply (with ramification) to p^2
        prod = 1
        for q in above:
            assert q.gen.norm() == p**q.residue_degree
            prod *= q.gen.norm() ** q.ram_index
        assert prod == p * p
        if expect == SPLIT:
            first, second = above
            assert canonical_unit_rep(first.gen.conj()) == second.gen


def test_primes_upto_ordering_and_bounds():
    ps = primes_upto(F1, 13)
    assert [(q.p, q.index) for q in ps] == [
        (2, 0),
        (3, 0),
        (5, 0),
        (5, 1),
        (7, 0),
        (11, 0),
        (13, 0),
        (13, 1),
    ]
    # fresh list each call
    assert primes_upto(F1, 13) is not ps
    with pytest.raises(OutOfDomain):
        primes_above(F1, 4)


@pytest.mark.parametrize("p", [-7, 0, 1, 4, 9])
def test_primes_above_rejects_non_primes(p):
    with pytest.raises(OutOfDomain):
        primes_above(F1, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_primes_above_accepts_primes(p):
    assert all(q.p == p for q in primes_above(F1, p))


def test_primes_above_cache_is_bounded():
    # a long-lived process asking for fresh primes must not grow without limit
    assert primes_above.cache_parameters()["maxsize"] is not None
    assert primes_above(F1, 1009) is primes_above(F1, 1009)


# --------------------------------------------------------------- valuations


def test_valuation_frozen():
    two = _prime(F1, 2)
    assert valuation(QuadRat.from_int(F1, 2), two) == 2
    assert valuation(QuadRat.from_int(F1, 1), two) == 0
    pa = _prime(F1, 5, (2, 1))
    pb = _prime(F1, 5, (1, 2))
    fifth = QuadRat.make(F1.one, 5)
    assert valuation(fifth, pa) == -1
    assert valuation(fifth, pb) == -1
    assert valuation(QuadRat.make(pa.gen, 1), pa) == 1
    assert valuation(QuadRat.make(pa.gen, 1), pb) == 0
    with pytest.raises(ZeroInput):
        valuation(QuadRat.make(QuadInt(F1, 0, 0), 1), two)


def test_valuation_is_additive():
    rng = random.Random(7)
    ps = primes_upto(F1, 20)
    for _ in range(200):
        x = QuadRat.make(QuadInt(F1, rng.randint(-9, 9), rng.randint(-9, 9)), rng.randint(1, 9))
        y = QuadRat.make(QuadInt(F1, rng.randint(-9, 9), rng.randint(-9, 9)), rng.randint(1, 9))
        if x.is_zero() or y.is_zero():
            continue
        for q in ps:
            assert valuation(x * y, q) == valuation(x, q) + valuation(y, q)


def test_support_primes_refuses_past_the_named_prime_cap():
    # i/den over Z[i] has norm times denominator den; 103 is inert there
    assert [q.p for q in support_primes(QuadRat.make(QuadInt(F1, 0, 1), 103))] == [103]
    with pytest.raises(OutOfBudget, match="prime factor over"):
        support_primes(QuadRat.make(QuadInt(F1, 0, 1), 10_000_019))
    # 11 + 9999991 is over the cap, though each prime is under it
    with pytest.raises(OutOfBudget, match="sum to more than"):
        support_primes(QuadRat.make(QuadInt(F1, 0, 1), 11 * 9_999_991))


def _old_complementary_generator(f):
    # the closed forms per field.case, kept as an oracle for 1/(omega - conj(omega))
    if f.case == 1:
        return QuadRat.make(QuadInt(f, 0, -1), 2 * f.d)
    return QuadRat.make(QuadInt(f, 1, -2), f.d)


@pytest.mark.parametrize("d", HEEGNER_DS)
def test_complementary_generator_identities(d):
    f = field(d)
    delta = complementary_generator(f)
    assert delta == _old_complementary_generator(f)
    # generates the dual lattice: unit norm against the discriminant, and
    # integral traces against a basis of the ring
    n, s = delta.num, delta.den
    assert n.norm() * abs(f.discriminant) == s * s
    assert (n * f.one).trace() % s == 0
    assert (n * f.omega).trace() % s == 0


def test_complementary_generator_frozen():
    assert complementary_generator(F1) == QuadRat.make(QuadInt(F1, 0, -1), 2)
    f3 = field(3)
    assert complementary_generator(f3) == QuadRat.make(QuadInt(f3, 1, -2), 3)


# ----------------------------------------------------------------- modules


def test_module_from_adele_frozen():
    two = _prime(F1, 2)
    m0 = module_from_adele(ValuationVector.make(F1, {}))
    assert m0.kind == "principal" and m0.gen == QuadRat.make(F1.one, 2)
    m1 = module_from_adele(ValuationVector.make(F1, {two: -2}))
    assert m1.kind == "principal" and m1.gen == QuadRat.from_int(F1, 1)
    m2 = module_from_adele(ValuationVector.make(F1, {}, (two,)))
    assert m2.kind == "localized" and m2.gen == QuadRat.from_int(F1, 1)
    assert m2.free == (two,)
    assert m1 != m2
    with pytest.raises(ZeroModule):
        adele_from_module(ModuleHandle.zero(F1))


def test_vector_make_rejects_bad_input():
    two = _prime(F1, 2)
    with pytest.raises(MalformedInput):
        ValuationVector.make(F1, [(two, 1), (two, 2)])
    with pytest.raises(MalformedInput):
        ValuationVector.make(F1, {two: 1}, (two,))
    with pytest.raises(FieldMismatch):
        ValuationVector.make(field(3), {two: 1})


def _random_vector(rng, f, bound=20):
    ps = primes_upto(f, bound)
    rng.shuffle(ps)
    n_exp = rng.randint(0, 3)
    n_free = rng.randint(0, 2)
    exps = {q: rng.randint(-3, 3) for q in ps[:n_exp]}
    free = ps[n_exp : n_exp + n_free]
    return ValuationVector.make(f, exps, free)


@pytest.mark.parametrize("d", HEEGNER_DS)
def test_adele_module_round_trip(d):
    f = field(d)
    rng = random.Random(100 + d)
    for _ in range(25):
        a = _random_vector(rng, f)
        h = module_from_adele(a)
        assert adele_from_module(h) == a
        assert module_from_adele(adele_from_module(h)) == h


def test_module_membership_matches_valuation_condition():
    rng = random.Random(11)
    for _ in range(120):
        a = _random_vector(rng, F1)
        h = module_from_adele(a)
        x = QuadRat.make(
            QuadInt(F1, rng.randint(-8, 8), rng.randint(-8, 8)), rng.randint(1, 8)
        )
        if x.is_zero():
            assert h.member(x)
            continue
        delta = complementary_generator(F1)
        support = set(q for q, _ in a.exps) | set(a.free) | set(primes_upto(F1, 20))
        want = all(
            valuation(x, q) >= valuation(delta, q) - a.exp_of(q)
            for q in support
            if q not in set(a.free)
        )
        assert h.member(x) == want


def test_iso_class_frozen_witness():
    pa = _prime(F1, 5, (2, 1))
    pb = _prime(F1, 5, (1, 2))
    va = ValuationVector.make(F1, {pa: 1})
    vb = ValuationVector.make(F1, {pb: 1})
    ok, w = iso_class_equal(va, vb)
    assert ok and w == QuadRat.make(QuadInt(F1, 4, 3), 5)
    # the witness carries exactly the exponent difference at every prime
    assert valuation(w, pa) == -1 and valuation(w, pb) == 1
    # and transports one module onto the other
    ma, mb = module_from_adele(va), module_from_adele(vb)
    assert ModuleHandle.make(F1, ma.gen / w) == mb


def test_iso_class_free_sets_must_match():
    two = _prime(F1, 2)
    ok, w = iso_class_equal(
        ValuationVector.make(F1, {}, (two,)), ValuationVector.make(F1, {})
    )
    assert (ok, w) == (False, None)


def test_iso_witness_property():
    rng = random.Random(23)
    for _ in range(60):
        a = _random_vector(rng, F1)
        b = _random_vector(rng, F1)
        if a.free != b.free:
            continue
        ok, w = iso_class_equal(a, b)
        assert ok and not w.is_zero()
        for q in set(x for x, _ in a.exps) | set(x for x, _ in b.exps):
            assert valuation(w, q) == b.exp_of(q) - a.exp_of(q)


# ------------------------------------------------------------------ points


def test_point_frozen_cases():
    two = _prime(F1, 2)
    triv = ValuationVector.make(F1, {})
    shift = ValuationVector.make(F1, {two: 1})
    one = QuadRat.from_int(F1, 1)
    i = QuadRat.make(QuadInt(F1, 0, 1), 1)
    opi = QuadRat.make(QuadInt(F1, 1, 1), 1)
    zero = QuadRat.make(QuadInt(F1, 0, 0), 1)
    assert point_iso((triv, one), (triv, i))
    assert point_over_c(triv, one) == point_over_c(triv, i)
    assert point_iso((triv, one), (shift, opi))
    assert point_over_c(triv, one) == point_over_c(shift, opi)
    assert not point_iso((triv, one), (triv, QuadRat.from_int(F1, 2)))
    assert point_iso((triv, zero), (shift, zero))
    assert not point_iso((triv, zero), (triv, one))


def _point_iso_oracle(pa, pb) -> bool:
    # the former point_iso: valuation by valuation over the joint support
    a, lam = pa
    b, mu = pb
    if a.field.d != b.field.d or lam.field.d != a.field.d or mu.field.d != b.field.d:
        raise FieldMismatch("point comparison across fields")
    if a.free != b.free:
        return False
    if lam.is_zero() or mu.is_zero():
        return lam.is_zero() == mu.is_zero()
    k = mu / lam
    ea = dict(a.exps)
    eb = dict(b.exps)
    support = set(ea) | set(eb) | set(support_primes(k))
    free_set = set(a.free)
    for prime in support:
        if prime in free_set:
            continue
        if valuation(k, prime) != eb.get(prime, 0) - ea.get(prime, 0):
            return False
    return True


def _member_oracle(h, q) -> bool:
    # the former ModuleHandle.member: clears only negative free-prime valuations
    if h.kind == "zero":
        return q.is_zero()
    if q.is_zero():
        return True
    r = q / h.gen
    for prime in h.free:
        v = valuation(r, prime)
        if v < 0:
            r = r * QuadRat.make(prime.gen, 1).pow(-v)
    return r.is_integral()


def _prime_pool(f):
    # every kind of prime: split conjugate pairs, inert, and the ramified one,
    # which lies above d (above 2 for d in {1, 2})
    pool = primes_upto(f, 13)
    return pool if any(q.kind == RAMIFIED for q in pool) else pool + list(primes_above(f, f.d))


@st.composite
def _scalars(draw, f):
    if draw(st.integers(0, 7)) == 0:
        return QuadRat.from_int(f, 0)
    num = QuadInt(f, draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
    lam = QuadRat.make(num, draw(st.integers(1, 6)))
    # prime powers, so that valuations at the vector's primes vary
    for q in draw(st.lists(st.sampled_from(_prime_pool(f)), max_size=3)):
        lam = lam * QuadRat.make(q.gen, 1).pow(draw(st.integers(-2, 2)))
    return lam


@st.composite
def _points(draw, f):
    primes = draw(st.lists(st.sampled_from(_prime_pool(f)), unique=True, max_size=4))
    n_free = draw(st.integers(0, len(primes)))
    exps = [(q, draw(st.integers(-2, 2))) for q in primes[n_free:]]
    return ValuationVector.make(f, exps, primes[:n_free]), draw(_scalars(f))


@st.composite
def _point_pairs(draw):
    f = field(draw(st.sampled_from(HEEGNER_DS)))
    pa = draw(_points(f))
    if draw(st.booleans()):
        return pa, draw(_points(f))
    # k*(a, lam) = (a + v(k) away from the free primes, k*lam) is the same point
    a, lam = pa
    k = draw(_scalars(f))
    if k.is_zero():
        return pa, pa
    exps = dict(a.exps)
    for q in support_primes(k):
        if q not in a.free:
            exps[q] = exps.get(q, 0) + valuation(k, q)
    return pa, (ValuationVector.make(f, exps, a.free), lam * k)


@given(_point_pairs())
def test_point_iso_matches_valuation_oracle(pts):
    pa, pb = pts
    assert point_iso(pa, pb) == _point_iso_oracle(pa, pb)


@given(st.sampled_from(HEEGNER_DS).flatmap(lambda d: st.tuples(_points(field(d)), _scalars(field(d)))))
def test_member_matches_negative_only_oracle(draws):
    (a, _), q = draws
    for h in (module_from_adele(a), ModuleHandle.zero(a.field)):
        assert h.member(q) == _member_oracle(h, q)


def test_point_descriptor_agrees_with_point_iso():
    rng = random.Random(31)
    lams = [
        QuadRat.from_int(F1, 1),
        QuadRat.make(QuadInt(F1, 1, 1), 1),
        QuadRat.make(QuadInt(F1, 0, 1), 2),
        QuadRat.from_int(F1, 3),
        QuadRat.make(QuadInt(F1, 2, 1), 5),
    ]
    pts = []
    for _ in range(30):
        a = _random_vector(rng, F1, bound=10)
        pts.append((a, rng.choice(lams)))
    for pa in pts:
        for pb in pts:
            same_desc = point_over_c(*pa) == point_over_c(*pb)
            assert same_desc == _point_iso_oracle(pa, pb), (pa, pb)


# ---------------------------------------------------------------- sections


def test_sections_frozen():
    two = _prime(F1, 2)
    inv_two = QuadRat.make(QuadInt(F1, 1, -1), 2)  # 1/(1+i)
    third = QuadRat.make(F1.one, 3)

    assert section_validate(FiniteSection.make(F1, 10, {}))
    good = FiniteSection.make(F1, 10, {two: inv_two})
    assert section_validate(good)

    bad = FiniteSection.make(F1, 10, {two: third})
    assert not section_validate(bad)
    with pytest.raises(InvalidSection) as info:
        section_act(QuadInt(F1, 1, 1), bad)
    assert info.value.prime.p == 3 and info.value.prime.kind == INERT

    # the denominator prime 3 lies beyond a bound of 2, so the bounded check
    # cannot see the violation
    assert section_validate(FiniteSection.make(F1, 2, {two: third}))

    acted = section_act(QuadInt(F1, 1, 1), good)
    assert dict(acted.values) == {two: QuadRat.from_int(F1, 1)}
    # zero components are dropped at construction
    zeroed = FiniteSection.make(F1, 10, {two: QuadRat.make(QuadInt(F1, 0, 0), 1)})
    assert zeroed.values == ()


def test_section_act_keeps_validity():
    rng = random.Random(43)
    ps = primes_upto(F1, 15)
    for _ in range(80):
        vals = {}
        for q in rng.sample(ps, rng.randint(0, 3)):
            num = QuadInt(F1, rng.randint(-4, 4), rng.randint(-4, 4))
            vals[q] = QuadRat.make(num, 1) / QuadRat.make(q.gen, 1).pow(rng.randint(0, 2))
        s = FiniteSection.make(F1, 15, vals)
        if not section_validate(s):
            continue
        k = QuadInt(F1, rng.randint(-3, 3), rng.randint(-3, 3))
        acted = section_act(k, s)
        assert section_validate(acted)


# ------------------------------------------------------------------ fibers


def test_generic_fiber_tables():
    g = pullback_fiber(GENERIC)
    assert isinstance(g, GenericFiber)
    assert g.add("empty", "empty") == "empty"
    assert g.add("empty", "zero") == "zero"
    assert g.add("zero", "zero") == "zero"
    assert g.mul("zero", "zero") == "zero"
    assert g.mul("empty", "zero") == "empty"
    assert g.mul("empty", "empty") == "empty"
    with pytest.raises(OutOfDomain):
        g.add("empty", "proper")


def test_prime_fiber_frozen():
    two = _prime(F1, 2)
    pf = pullback_fiber(two)
    assert isinstance(pf, PrimeFiber)
    assert pf.module == ModuleHandle.make(F1, QuadRat.from_int(F1, 1), (two,))
    base = dk(F1)
    assert pf.member(base) == (True, 0)
    inv_two = QuadRat.make(QuadInt(F1, 1, -1), 2)
    assert pf.member(scale_act(inv_two, base)) == (True, 1)
    third = QuadRat.make(F1.one, 3)
    assert pf.member(scale_act(third, base)) == (False, None)
    assert pf.member(SymPolygon.empty(F1)) == (True, 0)
    assert pf.member(SymPolygon.zero(F1)) == (True, 0)
    with pytest.raises(MalformedInput):
        pullback_fiber("somewhere")


def test_prime_fiber_accepts_any_pi_power():
    two = _prime(F1, 2)
    pf = pullback_fiber(two)
    pi = QuadRat.make(two.gen, 1)
    base = dk(F1)
    for n in range(-3, 3):
        ok, level = pf.member(scale_act(pi.pow(n), base))
        assert ok and level == max(0, -n)


# ------------------------------------------------------------------ counts


def test_ideal_count_frozen_gaussian():
    assert ideal_count_upto(F1, 10) == [0, 1, 1, 0, 1, 2, 0, 0, 1, 1, 2]


@pytest.mark.parametrize("d", [1, 2, 3, 7, 43])
def test_ideal_count_matches_sector_enumeration(d):
    f = field(d)
    bound = 60
    counts = ideal_count_upto(f, bound)
    brute = [0] * (bound + 1)
    for w in enumerate_norm_le(f, bound):
        if w.in_sector():
            brute[w.norm()] += 1
    assert counts == brute


def test_ideal_count_is_multiplicative():
    counts = ideal_count_upto(F1, 1000)
    for m in range(2, 32):
        for n in range(2, 32):
            if m * n <= 1000 and _coprime(m, n):
                assert counts[m * n] == counts[m] * counts[n]


def _coprime(m, n):
    while n:
        m, n = n, m % n
    return m == 1
