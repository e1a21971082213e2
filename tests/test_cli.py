"""End-to-end CLI runs in a subprocess (exit codes, JSON shapes, determinism), and the wire caps in process."""

import json
import math
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from tropigon import adelic, cli, errors, wire
from tropigon.errors import (
    MAX_EXPERIMENT_SAMPLES,
    MAX_MEMBERSHIP_NODES,
    MAX_MEMBERSHIP_NORM,
    MAX_NAMED_PRIME,
    MAX_PRIME_BOUND,
    MAX_TENSOR_PAIRS,
    MAX_VECTOR_BITS,
    MAX_WITNESS_BOUND,
    MAX_WITNESS_PAIRS,
    MalformedInput,
    OutOfBudget,
)
from tropigon.tensorlab import random_envelope
from tropigon.quadfield import field

CMD = [sys.executable, "-m", "tropigon.cli"]
ROOT = Path(__file__).resolve().parent.parent


def run(args, stdin=None, timeout=None):
    p = subprocess.run(CMD + args, input=stdin, capture_output=True, text=True, timeout=timeout)
    return p.returncode, p.stdout, p.stderr


def run_json(args, payload=None):
    stdin = json.dumps(payload) if payload is not None else None
    code, out, err = run(args, stdin)
    assert err == "", err
    lines = [json.loads(line) for line in out.strip().splitlines()] if out.strip() else []
    return code, lines


DK1 = {"tag": "proper", "field": 1, "sector": [[1, 1, 0, 1]]}


# ----------------------------------------------------------------- field-info


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11, 19, 43, 67, 163])
def test_field_info_all_fields(d):
    code, (info,) = run_json(["field-info", "--field", str(d)])
    assert code == 0
    assert info["d"] == d
    assert set(info) == {
        "case",
        "d",
        "discriminant",
        "norm_omega",
        "omega",
        "sigma",
        "trace_omega",
        "units",
    }
    assert len(info["units"]) == info["sigma"]


def test_field_info_frozen():
    code, (info,) = run_json(["field-info", "--field", "7"])
    assert code == 0
    assert info == {
        "case": 2,
        "d": 7,
        "discriminant": -7,
        "norm_omega": 2,
        "omega": [0, 1],
        "sigma": 2,
        "trace_omega": 1,
        "units": [[1, 0], [-1, 0]],
    }


def test_field_info_rejects_non_heegner():
    code, out, err = run(["field-info", "--field", "5"])
    assert code == 2
    assert json.loads(out)["kind"] == "malformed-input"


def test_field_info_requires_field():
    code, out, _ = run(["field-info"])
    assert code == 2
    assert json.loads(out)["kind"] == "malformed-input"


# ----------------------------------------------------------------------- poly


def test_poly_union_idempotent():
    code, (out,) = run_json(["poly"], {"op": "union", "A": DK1, "B": DK1})
    assert code == 0
    assert out == {"field": 1, "sector": [[1, 1, 0, 1]], "tag": "proper"}


def test_poly_minkowski_doubles():
    code, (out,) = run_json(["poly"], {"op": "minkowski", "A": DK1, "B": DK1})
    assert code == 0
    assert out["sector"] == [[2, 1, 0, 1]]


def test_poly_scale():
    code, (out,) = run_json(
        ["poly"], {"op": "scale", "A": DK1, "k": {"num": [1, 1], "den": 1}}
    )
    assert code == 0
    assert out["sector"] == [[1, 1, 1, 1]]


def test_poly_output_reparses_as_input():
    code, (out,) = run_json(["poly"], {"op": "minkowski", "A": DK1, "B": DK1})
    code2, (again,) = run_json(["poly"], {"op": "union", "A": out, "B": out})
    assert code2 == 0
    assert again == out


def test_poly_unknown_op():
    code, out, _ = run(["poly"], json.dumps({"op": "intersect", "A": DK1, "B": DK1}))
    assert code == 2
    assert json.loads(out)["kind"] == "malformed-input"


def test_malformed_json_is_exit_2():
    code, out, _ = run(["poly"], "this is not json")
    assert code == 2
    parsed = json.loads(out)
    assert parsed["kind"] == "malformed-input" and "error" in parsed


def test_integer_past_the_digit_limit_is_exit_2():
    # json.loads raises a plain ValueError past the interpreter's 4300-digit limit
    big = "1" + "0" * 5000
    body = '{"op":"union","A":{"tag":"proper","field":1,"sector":[[%s,1,0,1]]},"B":%s}'
    code, out, _ = run(["poly"], body % (big, json.dumps(DK1)))
    assert code == 2
    parsed = json.loads(out)
    assert parsed["kind"] == "malformed-input" and parsed["error"].startswith("invalid JSON: ")


def test_input_file_that_is_not_utf8_is_exit_2(tmp_path):
    target = tmp_path / "bad.json"
    target.write_bytes(b'{"op": "\xff"}')
    code, out, _ = run(["poly", str(target)])
    assert code == 2
    assert json.loads(out)["kind"] == "malformed-input"


def test_field_flag_mismatch_rejected():
    bad = dict(DK1, field=3)
    code, out, _ = run(["member", "--field", "1"], json.dumps(bad))
    assert code == 2
    assert json.loads(out)["kind"] == "malformed-input"


# --------------------------------------------------------------------- member


def test_member_accepts_ring_polygon():
    code, (out,) = run_json(["member"], DK1)
    assert code == 0
    assert out["member"] is True
    assert out["decomposition"] == [[{"den": 1, "num": [1, 0]}]]


def test_member_with_ideal_generators():
    scaled = {"tag": "proper", "field": 1, "sector": [[1, 2, 1, 2]]}  # (1/(1+i)) D_K
    code, (plain,) = run_json(["member"], scaled)
    assert plain["member"] is False
    code, (gen,) = run_json(
        ["member"], {"polygon": scaled, "generators": [{"num": [1, -1], "den": 2}]}
    )
    assert gen["member"] is True


# ----------------------------------------------------------------------- dual


def test_dual_round_trip():
    code, (env,) = run_json(["dual"], DK1)
    assert code == 0
    assert env == {"lines": [[1, 1, 0, 1], [0, 1, 1, 1]]}
    code, (back,) = run_json(["dual"], env)
    assert code == 0
    assert back == {"field": 1, "sector": [[1, 1, 0, 1]], "tag": "proper"}


def test_dual_bottom_and_zero():
    code, (poly,) = run_json(["dual"], {"tag": "bottom"})
    assert poly == {"field": 1, "sector": [], "tag": "empty"}
    code, (env,) = run_json(["dual"], {"tag": "empty", "field": 1})
    assert env == {"tag": "bottom"}


def test_dual_wrong_field_is_domain_error():
    code, out, _ = run(["dual"], json.dumps(dict(DK1, field=3)))
    assert code == 1
    assert json.loads(out)["kind"] == "wrong-field"


# --------------------------------------------------------------------- primes


def test_primes_frozen_gaussian():
    code, (out,) = run_json(["primes", "--field", "1", "--bound", "7"])
    assert code == 0
    assert out == {
        "bound": 7,
        "field": 1,
        "ideal_counts": [0, 1, 1, 0, 1, 2, 0, 0],
        "primes": [
            {"gen": [1, 1], "kind": "ramified", "p": 2},
            {"gen": [3, 0], "kind": "inert", "p": 3},
            {"gen": [1, 2], "kind": "split", "p": 5},
            {"gen": [2, 1], "kind": "split", "p": 5},
            {"gen": [7, 0], "kind": "inert", "p": 7},
        ],
    }


def test_primes_bound_validation():
    code, out, _ = run(["primes", "--field", "1", "--bound", "1"])
    assert code == 2


# One row per capped flag: the cap's declared name and the flag's arguments
CAPPED = [
    ("MAX_PRIME_BOUND", ["primes", "--field", "1", "--bound"]),
    ("MAX_EXPERIMENT_SAMPLES", ["tensor", "experiment", "--bound"]),
    ("MAX_WITNESS_BOUND", ["tensor", "experiment", "--bound", "2", "--witness-bound"]),
    ("MAX_WITNESS_BOUND", ["tensor", "reduce", "--witness-bound"]),
]


@pytest.mark.parametrize("args, cap", [(args, getattr(errors, name)) for name, args in CAPPED])
def test_cap_plus_one_is_malformed(args, cap):
    code, (line,) = run_json(args + [str(cap + 1)], {})
    assert code == 2
    assert line["kind"] == "malformed-input" and str(cap) in line["error"]


def test_primes_at_the_cap():
    code, (out,) = run_json(["primes", "--field", "1", "--bound", str(MAX_PRIME_BOUND)])
    assert code == 0
    assert out["bound"] == MAX_PRIME_BOUND and out["primes"][-1]["p"] == 9973


def test_experiment_at_the_caps():
    code, lines = run_json(["tensor", "experiment", "--bound", "2", "--witness-bound", str(MAX_WITNESS_BOUND)])
    assert code == 0 and len(lines) == 2
    # the sample cap reaches the experiment unchanged; a stub stands in for its run time
    script = (
        "import sys\n"
        "from tropigon import cli, tensorlab\n"
        "seen = []\n"
        "tensorlab.cancellativity_experiment = lambda n, seed: seen.append(n) or []\n"
        f"code = cli.main(['tensor', 'experiment', '--bound', '{MAX_EXPERIMENT_SAMPLES}'])\n"
        "print(seen)\n"
        "sys.exit(code)\n"
    )
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert p.returncode == 0 and p.stdout == f"[{MAX_EXPERIMENT_SAMPLES}]\n"


def test_reduce_at_the_witness_cap():
    x = {"a": {"pairs": [[ENV_SQ, ENV_SQ]]}, "b": {"pairs": [[ENV_SQ, ENV_SQ]]}}
    code, (out,) = run_json(["tensor", "reduce", "--witness-bound", str(MAX_WITNESS_BOUND)], {"x": x, "y": x})
    assert code == 0 and out["status"] == "equal"


def _lines(*lines):
    # each line (a, b) is the affine function a + (b - a)*x on [0, 1]
    out = []
    for a, b in lines:
        a, b = Fraction(a), Fraction(b)
        out.append([a.numerator, a.denominator, b.numerator, b.denominator])
    return {"lines": out}


def _gamma_pair(x_pairs, y_pairs):
    # the reduce request for gamma(X) against gamma(Y)
    one = {"pairs": [[_lines((0, 0)), _lines((0, 0))]]}
    return {"x": {"a": {"pairs": x_pairs}, "b": one}, "y": {"a": {"pairs": y_pairs}, "b": one}}


def test_reduce_stops_at_the_first_witness():
    # gamma(T + p) against gamma(T), where p = (k + s*x) (x) (m + t*y) lies under the max of two
    # pairs of T, and T carries two random pairs of up to 5 lines
    rng = random.Random(0)
    s, t, k, m = 1, 3, -1, 2
    extra = [[wire.envelope_to_json(random_envelope(rng, 5)) for _ in range(2)] for _ in range(2)]
    low = [[_lines((k, k + 2 * s)), _lines((m, m))], [_lines((k, k)), _lines((m, m + 2 * t))]] + extra
    request = _gamma_pair(low + [[_lines((k, k + s)), _lines((m, m + t))]], low)
    args = ["tensor", "reduce", "--witness-bound", str(MAX_WITNESS_BOUND)]
    code, out, err = run(args, json.dumps(request), timeout=15)
    assert code == 0, err
    assert json.loads(out)["status"] == "equal"


def _named_prime(p):
    prime = {"p": p, "kind": "inert", "gen": [p, 0]}
    return {"op": "module", "vector": {"exps": [[prime, 1]], "free": []}}


def _generator_over(den):
    return {"op": "vector", "module": {"kind": "principal", "gen": {"num": [1, 0], "den": den}}}


def _named_primes(primes):
    return {"op": "module", "vector": {"exps": [[prime, 1] for prime in primes], "free": []}}


def _inert_primes_below(n, count):
    # a prime p = 3 (mod 4) is inert in Z[i], generated by p itself
    out = []
    while len(out) < count:
        n -= 1
        if n % 4 == 3 and all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            out.append({"p": n, "kind": "inert", "gen": [n, 0]})
    return out


# 5000011 is inert in Z[i]; 5000077 = 2211**2 + 334**2 splits
P5000011 = {"p": 5_000_011, "kind": "inert", "gen": [5_000_011, 0]}
P5000077 = {"p": 5_000_077, "kind": "split", "gen": [2211, 334]}


def _square_scaled(n):
    # the d = 1 square through (n, 0) and (0, n), scaled by n: its vertices are n**2
    return {"op": "scale", "A": {"field": 1, "tag": "proper", "sector": [[n, 1, 0, 1], [0, 1, n, 1]]}, "k": [n, 0]}


def _power_of_three(e):
    three = {"p": 3, "kind": "inert", "gen": [3, 0]}
    return {"op": "module", "vector": {"exps": [[three, e]], "free": []}}


def _rhombus(a, b):
    # the d = 2 polygon through a + b*omega and 1 (or omega when b = 0), in a stalk at 1 + omega
    other = [0, 1, 1, 1] if b == 0 else [1, 1, 0, 1]
    return {"polygon": {"field": 2, "tag": "proper", "sector": [[a, 1, b, 1], other]}, "k": [1, 1]}


def _family(n):
    # n*D_K + (D_K u (1 + omega)*D_K) over d = 2
    sector = [[n + 1, 1, 1, 1], [1, 1, n + 1, 1], [-2, 1, n + 1, 1], [-n - 2, 1, 1, 1]]
    return {"field": 2, "tag": "proper", "sector": sector}


# (E + 1) (x) F and E (x) (F + 1) are the same function but no witness joins
# them: every level of the search is built, and the answer is unknown
_SHIFTED = _gamma_pair([[_lines((2, 1), (1, 2)), _lines((2, -1))]], [[_lines((1, 0), (0, 1)), _lines((3, 0))]])
# four pairs against the same minus -2 (x) max(-y, 7y - 3), which lies under
# the max of the others; the search finds nothing and grows about 3x per level
_UNDER = [
    [_lines((-3, 0)), _lines((Fraction(-3, 2), -2))],
    [_lines((1, 0)), _lines((-1, -4))],
    [_lines((1, 3)), _lines((-3, 4))],
]
_FRUITLESS = _gamma_pair(_UNDER + [[_lines((-2, -2)), _lines((0, -1), (-3, 4))]], _UNDER)


def _antichain(n, step=1):
    # (k - kx) (x) (-k + ky) for k < n: no pair bounds another and nothing merges
    return {"pairs": [[_lines((k * step, -k * step)), _lines((-k * step, k * step))] for k in range(n)]}


def _cross(m, n):
    # gamma(A) against the neutral element shifted by B: the cross tensor A*B keeps all m*n pairs
    one = {"pairs": [[_lines((0, 0)), _lines((0, 0))]]}
    return {"x": {"a": _antichain(m), "b": one}, "y": {"a": one, "b": _antichain(n, m)}}


# One row per cap on an input that sizes work, led by the cap's declared name:
# the largest allowed input answers within the timeout, and one step past the
# cap exits 2.  A row may name a third input, far past the cap, that must also
# exit 2 in time.
WORK_CAPS = [
    # both primes are inert in Z[i], and primes_above scans range(p)
    pytest.param(
        "MAX_NAMED_PRIME", ["adele", "--field", "1"], _named_prime(9_999_991), _named_prime(10_000_019),
        {"error": f"p must be <= {MAX_NAMED_PRIME}", "kind": "malformed-input"},
        None,
        id="named-prime",
    ),
    # the support of delta/gen lies over 2 and den; 2**61 - 1 is prime, so
    # trial division runs up to the cap before it refuses
    pytest.param(
        "MAX_NAMED_PRIME", ["adele", "--field", "1"], _generator_over(9_999_991), _generator_over(10_000_019),
        {"error": f"norm times denominator has a prime factor over {MAX_NAMED_PRIME}", "kind": "out-of-budget"},
        _generator_over(2**61 - 1),
        id="module-generator",
    ),
    # 3 has bit length 2; at exponent 10**5 the answer would pass the int-to-str limit
    pytest.param(
        "MAX_VECTOR_BITS", ["adele", "--field", "1"], _power_of_three(MAX_VECTOR_BITS // 2), _power_of_three(MAX_VECTOR_BITS // 2 + 1),
        {"error": f"sum of |e| * bit length of p must be <= {MAX_VECTOR_BITS}", "kind": "malformed-input"},
        _power_of_three(100_000),
        id="vector-bits",
    ),
    # each fresh named prime costs a range(p) scan; 170 primes near 10**7 fit MAX_VECTOR_BITS
    pytest.param(
        "MAX_NAMED_PRIME", ["adele", "--field", "1"], _named_prime(9_999_991), _named_primes([P5000011, P5000077]),
        {"error": f"the distinct named primes p must sum to <= {MAX_NAMED_PRIME}", "kind": "malformed-input"},
        _named_primes(_inert_primes_below(10**7, 170)),
        id="named-primes",
    ),
    # (10**2150 - 1)**2 has 4300 digits and 10**4300 has 4301; each input stays under the limit,
    # which is Python's, not a declared cap
    pytest.param(
        None, ["poly"], _square_scaled(10**2150 - 1), _square_scaled(10**2150),
        {"error": f"answer has an integer over the {sys.get_int_max_str_digits()}-digit int-to-str limit",
         "kind": "out-of-budget"},
        _square_scaled(10**4200),
        id="answer-digits",
    ),
    # norm 400 for 20, norm 401 for 3 + 14*omega
    pytest.param(
        "MAX_MEMBERSHIP_NORM", ["stalk"], _rhombus(20, 0), _rhombus(3, 14),
        {"error": f"membership search norm bound 401 is over {MAX_MEMBERSHIP_NORM}", "kind": "out-of-budget"},
        None,
        id="membership-norm",
    ),
    # the search reaches 1664 polygons at n = 10, and more than the budget at n = 11
    pytest.param(
        "MAX_MEMBERSHIP_NODES", ["member"], _family(10), _family(11),
        {"error": f"membership search reached more than {MAX_MEMBERSHIP_NODES} nodes", "kind": "out-of-budget"},
        None,
        id="membership-nodes",
    ),
    # the unknown answer crosses 848 pairs; the fruitless search passes the budget at depth 6
    pytest.param(
        "MAX_WITNESS_PAIRS", ["tensor", "reduce", "--witness-bound", str(MAX_WITNESS_BOUND)], _SHIFTED, _FRUITLESS,
        {"error": f"witness search crossed more than {MAX_WITNESS_PAIRS} pairs", "kind": "out-of-budget"},
        None,
        id="witness-pairs",
    ),
    # every pair is kept, and the largest still answers in under a second; the
    # far request is refused before any of its envelopes is built
    pytest.param(
        "MAX_TENSOR_PAIRS", ["tensor", "normalize"], _antichain(MAX_TENSOR_PAIRS), _antichain(MAX_TENSOR_PAIRS + 1),
        {"error": f"a tensor normal form takes more than {MAX_TENSOR_PAIRS} pairs", "kind": "out-of-budget"},
        _antichain(100_000),
        id="tensor-pairs",
    ),
    # 5000 = 50 * 100 and 5001 = 3 * 1667; the far cross of 10**6 pairs is refused before it is built
    pytest.param(
        "MAX_TENSOR_PAIRS", ["tensor", "reduce"], _cross(50, 100), _cross(3, 1667),
        {"error": f"a tensor normal form takes more than {MAX_TENSOR_PAIRS} pairs", "kind": "out-of-budget"},
        _cross(1000, 1000),
        id="product-pairs",
    ),
]


@pytest.mark.parametrize("cap, args, largest, past, refusal, far", WORK_CAPS)
def test_work_caps(cap, args, largest, past, refusal, far):
    if cap is not None:
        assert str(getattr(errors, cap)) in refusal["error"]
    code, out, err = run(args, json.dumps(largest), timeout=15)
    assert code == 0, err
    assert "error" not in json.loads(out)
    code, out, _ = run(args, json.dumps(past), timeout=15)
    assert code == 2
    assert json.loads(out) == refusal
    if far is not None:
        code, out, _ = run(args, json.dumps(far), timeout=15)
        assert code == 2
        assert json.loads(out)["kind"] == refusal["kind"]


def _declared_caps():
    return {name for name in vars(errors) if name.startswith("MAX_")}


def test_every_cap_has_a_limit_test():
    # a row of CAPPED or WORK_CAPS tests the largest accepted input or the first refused one
    named = ({name for name, _ in CAPPED} | {row.values[0] for row in WORK_CAPS}) - {None}
    assert named == _declared_caps()


def test_the_cap_tables_name_exactly_the_declared_caps():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert set(re.findall(r"errors\.(MAX_\w+)", readme)) == _declared_caps()
    assert set(re.findall(r"\bMAX_\w+", errors.__doc__)) == _declared_caps()


def test_tensor_pairs_are_counted_before_any_envelope_is_built(monkeypatch):
    def unreachable(data):
        raise AssertionError("an envelope was built")

    monkeypatch.setattr(wire, "envelope_from_json", unreachable)
    with pytest.raises(OutOfBudget, match=f"a tensor normal form takes more than {MAX_TENSOR_PAIRS} pairs"):
        wire.tensor_from_json(_antichain(MAX_TENSOR_PAIRS + 1))


@pytest.mark.parametrize(
    "parse, data",
    [
        (wire.vector_from_json, {"exps": [[P5000011, 1]], "free": [P5000077]}),
        (wire.module_from_json, {"kind": "localized", "gen": [1, 0], "free": [P5000011, P5000077]}),
        (wire.section_from_json, {"bound": 50, "values": [[P5000011, [1, 0]], [P5000077, [1, 0]]]}),
    ],
    ids=["vector", "module", "section"],
)
def test_named_primes_are_refused_before_any_is_resolved(monkeypatch, parse, data):
    def unreachable(f, p):
        raise AssertionError(f"primes_above({p}) was called")

    monkeypatch.setattr(adelic, "primes_above", unreachable)
    with pytest.raises(MalformedInput, match="distinct named primes"):
        parse(field(1), data)


# ---------------------------------------------------------------------- adele


P2 = {"p": 2, "gen": [1, 1], "kind": "ramified"}
P5A = {"p": 5, "gen": [2, 1], "kind": "split"}
P5B = {"p": 5, "gen": [1, 2], "kind": "split"}


def test_adele_module_frozen():
    code, (out,) = run_json(
        ["adele", "--field", "1"], {"op": "module", "vector": {"exps": [], "free": []}}
    )
    assert code == 0
    assert out == {"gen": {"den": 2, "num": [1, 0]}, "kind": "principal"}


def test_adele_vector_round_trip():
    vec = {"exps": [[P2, -2]], "free": [P5A]}
    code, (mod,) = run_json(["adele", "--field", "1"], {"op": "vector", "module": {
        "kind": "localized", "gen": {"num": [1, 0], "den": 1}, "free": [P5A]}})
    assert code == 0
    code, (mod2,) = run_json(["adele", "--field", "1"], {"op": "module", "vector": mod})
    assert code == 0
    assert mod2 == {"kind": "localized", "gen": {"den": 1, "num": [1, 0]}, "free": [P5A]}


def test_adele_iso_frozen_witness():
    code, (out,) = run_json(
        ["adele", "--field", "1"],
        {"op": "iso", "A": {"exps": [[P5A, 1]]}, "B": {"exps": [[P5B, 1]]}},
    )
    assert code == 0
    assert out == {"equal": True, "witness": {"den": 5, "num": [4, 3]}}


def test_adele_member():
    code, (out,) = run_json(
        ["adele", "--field", "1"],
        {
            "op": "member",
            "module": {"kind": "principal", "gen": {"num": [1, 0], "den": 2}},
            "q": {"num": [1, 0], "den": 2},
        },
    )
    assert code == 0 and out == {"member": True}


def test_adele_validate_and_act():
    good = {"bound": 10, "values": [[P2, {"num": [1, -1], "den": 2}]]}
    code, (out,) = run_json(["adele", "--field", "1"], {"op": "validate", "section": good})
    assert code == 0 and out == {"valid": True}

    bad = {"bound": 10, "values": [[P2, {"num": [1, 0], "den": 3}]]}
    code, (out,) = run_json(["adele", "--field", "1"], {"op": "validate", "section": bad})
    assert code == 0
    assert out == {
        "valid": False,
        "prime": {"gen": [3, 0], "kind": "inert", "p": 3},
    }

    code, out, _ = run(
        ["adele", "--field", "1"], json.dumps({"op": "act", "section": bad, "k": [1, 1]})
    )
    assert code == 1
    parsed = json.loads(out)
    assert parsed["kind"] == "invalid-section"
    assert parsed["prime"] == {"gen": [3, 0], "kind": "inert", "p": 3}

    code, (out,) = run_json(
        ["adele", "--field", "1"], {"op": "act", "section": good, "k": [1, 1]}
    )
    assert code == 0
    assert out == {"bound": 10, "values": [[P2, {"den": 1, "num": [1, 0]}]]}


@pytest.mark.parametrize("op", ["validate", "act"])
def test_adele_section_with_a_large_prime_denominator_answers(op):
    # only primes up to the bound can fail, so the prime 2^61 - 1 is never factored
    m61 = 2**61 - 1
    section = {"bound": 200, "values": [[P2, {"num": [1, 0], "den": m61}]]}
    request = json.dumps({"op": op, "section": section, "k": [1, 1]})
    code, out, err = run(["adele", "--field", "1"], request, timeout=10)
    assert code == 0, err
    if op == "validate":
        assert json.loads(out) == {"valid": True}
    else:
        assert json.loads(out) == {"bound": 200, "values": [[P2, {"den": m61, "num": [1, 1]}]]}


@pytest.mark.parametrize("op", ["validate", "act"])
def test_adele_section_bound_over_the_cap_is_malformed(op):
    section = {"bound": MAX_PRIME_BOUND + 1, "values": []}
    code, (line,) = run_json(["adele", "--field", "1"], {"op": op, "section": section, "k": [1, 1]})
    assert code == 2
    assert line == {"error": f"bound must be <= {MAX_PRIME_BOUND}", "kind": "malformed-input"}


def test_adele_prime_that_is_not_prime_is_malformed():
    p4 = {"p": 4, "gen": [2, 0], "kind": "inert"}
    code, out, _ = run(
        ["adele", "--field", "1"], json.dumps({"op": "module", "vector": {"exps": [[p4, 1]]}})
    )
    assert code == 2
    parsed = json.loads(out)
    assert parsed["kind"] == "malformed-input" and "not a rational prime" in parsed["error"]


def test_adele_broken_invariant_is_exit_3():
    # a CheckFailed from primes_above is an internal error, not bad input
    script = (
        "import sys\n"
        "from tropigon import adelic, cli\n"
        "from tropigon.errors import CheckFailed\n"
        "def broken(f, p):\n"
        "    raise CheckFailed('broken')\n"
        "adelic.primes_above = broken\n"
        "sys.exit(cli.main(['adele', '--field', '1']))\n"
    )
    payload = json.dumps({"op": "module", "vector": {"exps": [[P2, 1]]}})
    p = subprocess.run([sys.executable, "-c", script], input=payload, capture_output=True, text=True)
    assert p.returncode == 3
    (line,) = p.stdout.splitlines()
    assert json.loads(line) == {"error": "CheckFailed: broken", "kind": "internal-error"}


# ---------------------------------------------------------------------- stalk


def test_stalk_frozen():
    code, (out,) = run_json(
        ["stalk"], {"polygon": DK1, "k": {"num": [1, -1], "den": 2}}
    )
    assert code == 0
    assert out["member"] is True
    assert out["polygon"] == {"field": 1, "sector": [[1, 2, 1, 2]], "tag": "proper"}
    assert out["decomposition"] == [[{"den": 2, "num": [1, -1]}]]


def test_stalk_zero_scalar_is_domain_error():
    code, out, _ = run(
        ["stalk"], json.dumps({"polygon": DK1, "k": {"num": [0, 0], "den": 1}})
    )
    assert code == 1
    assert json.loads(out)["kind"] == "zero-input"


# --------------------------------------------------------------------- tensor


ENV_SQ = {"lines": [[1, 1, 0, 1], [0, 1, 1, 1]]}
ENV_2SQ = {"lines": [[2, 1, 0, 1], [0, 1, 2, 1]]}


def test_tensor_normalize():
    raw = {"pairs": [[ENV_SQ, {"lines": [[1, 1, 0, 1]]}], [ENV_SQ, {"lines": [[0, 1, 1, 1]]}]]}
    code, (out,) = run_json(["tensor", "normalize"], raw)
    assert code == 0
    # equal first slots merge, so one pair with tmax'ed second remains
    assert out == {"pairs": [[ENV_SQ, ENV_SQ]]}


def test_tensor_sep():
    a = {"pairs": [[ENV_SQ, ENV_2SQ]]}
    b = {"pairs": [[ENV_2SQ, ENV_SQ]]}
    code, (out,) = run_json(["tensor", "sep"], {"A": a, "B": b})
    assert code == 0 and out == {"verdict": "distinct"}
    code, (out,) = run_json(["tensor", "sep"], {"A": a, "B": a})
    assert out == {"verdict": "possibly_equal"}


def test_tensor_reduce():
    one = {"pairs": [[{"lines": [[0, 1, 0, 1]]}, {"lines": [[0, 1, 0, 1]]}]]}
    t = {"pairs": [[ENV_SQ, ENV_SQ]]}
    code, (out,) = run_json(
        ["tensor", "reduce"], {"x": {"a": t, "b": one}, "y": {"a": t, "b": one}}
    )
    assert code == 0
    assert out["status"] == "equal" and out["witness"] == one


def test_tensor_file_before_or_after_the_flags(tmp_path, capsys):
    one = {"pairs": [[{"lines": [[0, 1, 0, 1]]}, {"lines": [[0, 1, 0, 1]]}]]}
    t = {"pairs": [[ENV_SQ, ENV_2SQ]]}
    requests = {
        "normalize": t,
        "sep": {"A": t, "B": {"pairs": [[ENV_2SQ, ENV_SQ]]}},
        "reduce": {"x": {"a": t, "b": one}, "y": {"a": t, "b": one}},
    }
    for op, request in requests.items():
        path = tmp_path / f"{op}.json"
        path.write_text(json.dumps(request))
        code, want, _ = run(["tensor", op, "--witness-bound", "4"], json.dumps(request))
        assert code == 0
        # the flag after the file, before it, and before the op; a flag over its cap shows that it arrived
        for wb in ("4", str(MAX_WITNESS_BOUND + 1)):
            for argv in ([op, str(path), "--witness-bound", wb], [op, "--witness-bound", wb, str(path)],
                         ["--witness-bound", wb, op, str(path)]):
                code = cli.main(["tensor", *argv])
                out = capsys.readouterr().out
                if wb == "4":
                    assert (code, out) == (0, want)
                else:
                    assert code == 2 and json.loads(out)["kind"] == "malformed-input"


def test_tensor_experiment_deterministic():
    code1, lines1 = run_json(["tensor", "experiment", "--bound", "5", "--seed", "11"])
    code2, lines2 = run_json(["tensor", "experiment", "--bound", "5", "--seed", "11"])
    assert code1 == code2 == 0
    assert lines1 == lines2
    assert len(lines1) == 5
    for i, rec in enumerate(lines1):
        assert rec["sample"] == i
        assert set(rec) == {
            "sample",
            "a",
            "a_prime",
            "c",
            "factors_separator",
            "products_separator",
            "products_normalize_equal",
            "candidate",
            "sandwich_violation",
        }
    _, other = run_json(["tensor", "experiment", "--bound", "5", "--seed", "12"])
    assert other != lines1


# --------------------------------------------------------------------- render


def test_render_svg_stdout(tmp_path):
    code, out, err = run(["render"], json.dumps(DK1))
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")


def test_render_svg_file(tmp_path):
    target = tmp_path / "out.svg"
    code, (msg,) = run_json(
        ["render", "--svg", str(target)],
        {"polygon": DK1, "overlays": [{"tag": "proper", "field": 1, "sector": [[2, 1, 0, 1]]}]},
    )
    assert code == 0 and msg == {"svg": str(target)}
    root = ET.fromstring(target.read_text())
    assert root.tag.endswith("svg")


def test_render_svg_write_error_is_exit_2(tmp_path):
    target = tmp_path / "missing" / "out.svg"
    code, out, err = run(["render", "--svg", str(target)], json.dumps(DK1))
    assert code == 2 and err == ""
    assert json.loads(out)["kind"] == "malformed-input"


def test_render_degenerate_polygons_draw_blank_canvas():
    code, out, _ = run(["render"], json.dumps({"tag": "empty", "field": 1}))
    assert code == 0
    assert "nothing to draw" in out
    ET.fromstring(out)


# ------------------------------------------------------------------- selftest


def test_sabotaged_selftest_fails_under_dash_O():
    # the checks are not asserts, so python -O keeps them
    script = (
        "from tropigon import selftest\n"
        "selftest.hull_union = lambda a, b: a\n"
        "selftest.run(42, only={'c01'})\n"
    )
    p = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    (line,) = p.stdout.splitlines()
    assert json.loads(line) == {"failure": "assertion failed", "group": "c01", "ok": False, "seed": 42}


def test_selftest_help():
    code, out, _ = run(["selftest", "--help"])
    assert code == 0 and "--seed" in out


def test_every_output_line_is_json():
    # a sweep over successful commands: each line of stdout must parse
    calls = [
        (["field-info", "--field", "163"], None),
        (["poly"], {"op": "union", "A": DK1, "B": DK1}),
        (["member"], DK1),
        (["dual"], DK1),
        (["primes", "--field", "3", "--bound", "11"], None),
        (["tensor", "sep"], {"A": {"pairs": [[ENV_SQ, ENV_SQ]]}, "B": {"pairs": [[ENV_SQ, ENV_SQ]]}}),
    ]
    for args, payload in calls:
        code, lines = run_json(args, payload)
        assert code == 0 and lines


# ---------------------------------------------------------------- error paths


def test_closed_stdout_exits_141_without_traceback():
    # the reader is gone before the first write, as in `selftest | head -1`
    p = subprocess.Popen(
        CMD + ["primes", "--field", "1", "--bound", "50"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    p.stdout.close()
    err = p.stderr.read().decode()
    p.stderr.close()
    assert p.wait() == 141
    assert err == ""


def test_unexpected_exception_is_exit_3():
    script = (
        "import sys\n"
        "from tropigon import cli\n"
        "def boom(args):\n"
        "    raise RuntimeError('boom')\n"
        "cli.cmd_field_info = boom\n"
        "sys.exit(cli.main(['field-info']))\n"
    )
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert p.returncode == 3
    assert p.stderr.startswith("Traceback") and "RuntimeError: boom" in p.stderr
    (line,) = p.stdout.splitlines()
    assert json.loads(line) == {"error": "RuntimeError: boom", "kind": "internal-error"}
