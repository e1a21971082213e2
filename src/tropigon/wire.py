"""JSON wire formats.

Integers stay integers, every other scalar is an exact rational serialized as
a [num, den] pair; no floating point appears in any payload.  Parsers are
strict: unexpected shapes raise MalformedInput, which the CLI maps to exit 2.
Each cap on a JSON input that sizes work is checked here, as the input is
read and before the work it sizes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .adelic import (
    MAX_NAMED_PRIME,
    MAX_PRIME_BOUND,
    FiniteSection,
    LOCALIZED,
    ModuleHandle,
    PRINCIPAL,
    PrimeIdeal,
    ValuationVector,
    ZERO_MODULE,
    primes_above,
)
from .envelope import Envelope
from .errors import MalformedInput, OutOfDomain
from .polygeom import EMPTY, PROPER, ZERO, GeneratorDecomposition, SymPolygon, to_grid
from .quadfield import (
    HEEGNER_DS,
    Field,
    QuadInt,
    QuadRat,
    canonical_unit_rep,
    field,
)
from .tensorlab import FormalTensor

# the sum of |e| * bit length of p over a vector's exponents: a vector's
# generator then has about this many bits, and an iso witness of two vectors
# stays under 2500 digits, below Python's 4300-digit int-to-str limit
MAX_VECTOR_BITS = 4096


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _expect(cond: bool, msg: str):
    if not cond:
        raise MalformedInput(msg)


def at_most(value: int, cap: int, what: str) -> int:
    _expect(value <= cap, f"{what} must be <= {cap}")
    return value


def _as_int(v, what: str) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool), f"{what} must be an integer")
    return v


def as_list(v, what: str) -> list:
    _expect(isinstance(v, list), f"{what} must be a list")
    return v


def as_dict(v, what: str) -> dict:
    _expect(isinstance(v, dict), f"{what} must be an object")
    return v


def _entries(entries: list, item: str, names) -> list[list]:
    """The entries of a list, each a list of one item per name; names spell an entry in messages."""
    out = []
    for entry in entries:
        e = as_list(entry, item)
        _expect(len(e) == len(names), f"{item} must be [{', '.join(names)}]")
        out.append(e)
    return out


def field_from_json(v) -> Field:
    d = _as_int(v, "field")
    _expect(d in HEEGNER_DS, f"field must be one of {list(HEEGNER_DS)}")
    return field(d)


def quadint_to_json(x: QuadInt) -> list[int]:
    return [x.a, x.b]


def quadint_from_json(f: Field, data) -> QuadInt:
    v = as_list(data, "ring element")
    _expect(len(v) == 2, "ring element must be [a, b]")
    return QuadInt(f, _as_int(v[0], "coefficient"), _as_int(v[1], "coefficient"))


def quadrat_to_json(q: QuadRat) -> dict:
    return {"num": quadint_to_json(q.num), "den": q.den}


def quadrat_from_json(f: Field, data) -> QuadRat:
    if isinstance(data, list):  # integral shorthand
        return QuadRat(quadint_from_json(f, data), 1)
    v = as_dict(data, "field element")
    _expect(set(v) == {"num", "den"}, 'field element must be {"num": [a,b], "den": n}')
    den = _as_int(v["den"], "den")
    _expect(den != 0, "den must be nonzero")
    return QuadRat.make(quadint_from_json(f, v["num"]), den)


def _pairs_to_json(pairs) -> list[list[int]]:
    return [[x.numerator, x.denominator, y.numerator, y.denominator] for x, y in pairs]


def _pairs_from_json(entries, item: str, names) -> list[tuple[Fraction, Fraction]]:
    """Rational pairs from [xn, xd, yn, yd] entries; names spells the four in messages."""
    xn, xd, yn, yd = names
    out = []
    for e in _entries(entries, item, names):
        dx, dy = _as_int(e[1], xd), _as_int(e[3], yd)
        _expect(dx != 0 and dy != 0, f"{item} with zero denominator")
        out.append((Fraction(_as_int(e[0], xn), dx), Fraction(_as_int(e[2], yn), dy)))
    return out


def polygon_to_json(p: SymPolygon) -> dict:
    sector = _pairs_to_json((v.x, v.y) for v in p.sector)
    return {"field": p.field.d, "tag": p.tag, "sector": sector}


def polygon_from_json(data, expect_field: Field | None = None) -> SymPolygon:
    v = as_dict(data, "polygon")
    _expect({"field", "tag"} <= set(v), 'polygon needs "field" and "tag"')
    f = field_from_json(v["field"])
    if expect_field is not None:
        _expect(f.d == expect_field.d, f"polygon field d={f.d} does not match --field {expect_field.d}")
    tag = v["tag"]
    if tag == EMPTY:
        return SymPolygon.empty(f)
    if tag == ZERO:
        return SymPolygon.zero(f)
    _expect(tag == PROPER, f"unknown polygon tag {tag!r}")
    pts = _pairs_from_json(as_list(v.get("sector", []), "sector"), "vertex", ("xn", "xd", "yn", "yd"))
    _expect(bool(pts), "proper polygon with empty sector")
    return SymPolygon.from_grid(f, *to_grid(pts))


def envelope_to_json(e: Envelope) -> dict:
    if e.is_bottom():
        return {"tag": "bottom"}
    return {"lines": _pairs_to_json(e.lines)}


def envelope_from_json(data) -> Envelope:
    v = as_dict(data, "envelope")
    if v.get("tag") == "bottom":
        return Envelope.bottom()
    lines = _pairs_from_json(as_list(v.get("lines"), "lines"), "line", ("an", "ad", "bn", "bd"))
    _expect(bool(lines), "envelope with no lines")
    return Envelope.of(lines)


def prime_to_json(p: PrimeIdeal) -> dict:
    return {"p": p.p, "kind": p.kind, "gen": quadint_to_json(p.gen)}


def _named_p(data) -> int:
    v = as_dict(data, "prime")
    _expect({"p", "kind", "gen"} <= set(v), 'prime needs "p", "kind", "gen"')
    p = _as_int(v["p"], "p")
    _expect(p >= 2, "p must be >= 2")
    return at_most(p, MAX_NAMED_PRIME, "p")


def prime_from_json(f: Field, data) -> PrimeIdeal:
    p = _named_p(data)
    gen = quadint_from_json(f, data["gen"])
    _expect(not gen.is_zero(), "prime generator must be nonzero")
    try:
        above = primes_above(f, p)
    except OutOfDomain as exc:
        raise MalformedInput(str(exc)) from exc
    want = canonical_unit_rep(gen)
    for cand in above:
        if cand.kind == data["kind"] and cand.gen == want:
            return cand
    raise MalformedInput(f"no prime over {p} in d={f.d} with that kind and generator")


def _named_primes(f: Field, entries: list) -> list[PrimeIdeal]:
    # primes_above scans range(p) for each fresh p, so the distinct p of one
    # vector, module or section are capped by their sum before any is resolved
    total = sum({_named_p(entry) for entry in entries})
    _expect(total <= MAX_NAMED_PRIME, f"the distinct named primes p must sum to <= {MAX_NAMED_PRIME}")
    return [prime_from_json(f, entry) for entry in entries]


def vector_to_json(a: ValuationVector) -> dict:
    return {
        "exps": [[prime_to_json(p), e] for p, e in a.exps],
        "free": [prime_to_json(p) for p in a.free],
    }


def vector_from_json(f: Field, data) -> ValuationVector:
    v = as_dict(data, "valuation vector")
    entries = _entries(as_list(v.get("exps", []), "exps"), "exponent entry", ("prime", "e"))
    primes = _named_primes(f, [p for p, _ in entries] + as_list(v.get("free", []), "free"))
    exps = [(prime, _as_int(e, "exponent")) for prime, (_, e) in zip(primes, entries)]
    bits = sum(abs(e) * prime.p.bit_length() for prime, e in exps)
    at_most(bits, MAX_VECTOR_BITS, "sum of |e| * bit length of p")
    return ValuationVector.make(f, exps, primes[len(exps) :])


def module_to_json(h: ModuleHandle) -> dict:
    if h.kind == ZERO_MODULE:
        return {"kind": ZERO_MODULE}
    out = {"kind": h.kind, "gen": quadrat_to_json(h.gen)}
    if h.kind == LOCALIZED:
        out["free"] = [prime_to_json(p) for p in h.free]
    return out


def module_from_json(f: Field, data) -> ModuleHandle:
    v = as_dict(data, "module")
    kind = v.get("kind")
    if kind == ZERO_MODULE:
        return ModuleHandle.zero(f)
    _expect(kind in (PRINCIPAL, LOCALIZED), f"unknown module kind {kind!r}")
    gen = quadrat_from_json(f, v.get("gen"))
    free = _named_primes(f, as_list(v.get("free", []), "free"))
    _expect(bool(free) == (kind == LOCALIZED), "free set must match the module kind")
    return ModuleHandle.make(f, gen, free)


def section_to_json(s: FiniteSection) -> dict:
    return {
        "bound": s.prime_bound,
        "values": [[prime_to_json(p), quadrat_to_json(x)] for p, x in s.values],
    }


def section_from_json(f: Field, data) -> FiniteSection:
    v = as_dict(data, "section")
    bound = at_most(_as_int(v.get("bound", 200), "bound"), MAX_PRIME_BOUND, "bound")
    entries = _entries(as_list(v.get("values", []), "values"), "section entry", ("prime", "value"))
    primes = _named_primes(f, [p for p, _ in entries])
    values = [(prime, quadrat_from_json(f, x)) for prime, (_, x) in zip(primes, entries)]
    return FiniteSection.make(f, bound, values)


def tensor_to_json(t: FormalTensor) -> dict:
    return {"pairs": [[envelope_to_json(e), envelope_to_json(g)] for e, g in t.pairs]}


def tensor_from_json(data) -> FormalTensor:
    v = as_dict(data, "tensor")
    pairs = [
        (envelope_from_json(e), envelope_from_json(g))
        for e, g in _entries(as_list(v.get("pairs", []), "pairs"), "tensor pair", ("envelope", "envelope"))
    ]
    return FormalTensor.make(pairs)


def decomposition_to_json(dec: GeneratorDecomposition | None):
    if dec is None:
        return None
    return [[quadrat_to_json(h) for h in ms] for ms in dec.summand_sets]
