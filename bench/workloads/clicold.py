"""cli-cold: one fresh `python -m tropigon.cli` process per request.

Per cycle of 24 small requests: every subcommand except selftest
(field-info, poly union/minkowski/scale, member on the sector path and the
BFS, dual both ways, primes, adele module/vector/iso/member/validate/act,
stalk, tensor normalize/sep/reduce, render to stdout), plus two malformed
requests and an argparse error (exit 2) and one domain-invalid request
(exit 1).  In the untraced run every operation is one request to a fresh
process, interpreter start included, whose stdout and exit code must equal
the answer of tropigon.cli.main in this process byte for byte.  The traced
run replays the same requests through tropigon.cli.main, so the layers'
spans show.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
from dataclasses import dataclass

import harness
from harness import Op
from tropigon import cli, wire
from tropigon.adelic import FiniteSection, module_from_adele
from tropigon.envelope import phi
from tropigon.quadfield import HEEGNER_DS, QuadRat, field
from tropigon.tensorlab import cancellation_instance
from workloads import adelic, geometry, tensor

NAME = "cli-cold"
IMPORT = "tropigon.cli"
CYCLE_OPS = 24
TRACE_CYCLE_S = 0.08
SPAWN_REPEATS = 5
RSS_OF = resource.RUSAGE_CHILDREN  # the fresh CLI processes do the work
SUBCOMMANDS = ("field-info", "poly", "member", "dual", "primes", "adele", "stalk", "tensor", "render")


@dataclass
class Request:
    sub: str
    argv: list
    payload: str
    code: int  # expected exit code
    kind: str | None = None  # expected error kind

    @property
    def op_kind(self) -> str:
        return self.sub if self.code == 0 else f"{self.sub}!{self.code}"


def call_cli(argv, payload: str) -> tuple[int, str]:
    """One request through tropigon.cli.main in this process: (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def call_cold(req: Request) -> tuple[int, str]:
    p = subprocess.run([sys.executable, "-m", "tropigon.cli", *req.argv], input=req.payload,
                       capture_output=True, text=True, env=harness.program_env(),
                       cwd=harness.ROOT, timeout=harness.OP_TIMEOUT_S)
    return p.returncode, p.stdout


def _check(req: Request):
    def check(out):
        code, text = out
        if code != req.code:
            return f"exit {code}, expected {req.code}: {text[:120]!r}"
        if req.sub == "render" and code == 0:
            return None if text.startswith("<svg") else "render did not print an SVG"
        if req.kind is None and code == 2:
            return None if text == "" else "argparse error printed to stdout"
        body = json.loads(text)
        if code:
            return None if body.get("kind") == req.kind else f"error kind {body.get('kind')}"
        return None

    return check


def _requests(rng) -> list[Request]:
    d = HEEGNER_DS[rng.randrange(len(HEEGNER_DS))]
    f = field(d)

    def poly(g=f):
        return wire.polygon_to_json(geometry._polygon(rng, g))

    a, b = poly(), poly()
    k = geometry._scalar(rng, f)
    f13 = field(rng.choice((1, 3)))
    f_bfs = field(geometry.BFS_DS[rng.randrange(len(geometry.BFS_DS))])
    f1 = field(1)
    p1 = geometry._polygon(rng, f1)
    vec = adelic._vector(rng, f)
    module = wire.module_to_json(module_from_adele(vec))
    P = adelic._prime_pool(f)[rng.randrange(3)]
    value = QuadRat(P.gen, 1).pow(-rng.randint(1, 2))
    section = wire.section_to_json(FiniteSection.make(f, 50, [(P, value)]))
    cancel = cancellation_instance(*(tensor._tensor(rng, 1) for _ in range(5)))
    x, y, w = cancel
    adele = ["adele", "--field", str(d)]
    reqs = [
        Request("field-info", ["field-info", "--field", str(d)], "", 0),
        Request("poly", ["poly"], wire.dumps({"op": "union", "A": a, "B": b}), 0),
        Request("poly", ["poly"], wire.dumps({"op": "minkowski", "A": a, "B": b}), 0),
        Request("poly", ["poly"], wire.dumps({"op": "scale", "A": a, "k": wire.quadrat_to_json(k)}), 0),
        Request("member", ["member"], wire.dumps({"polygon": poly(f13)}), 0),
        Request("member", ["member"],
                wire.dumps({"polygon": wire.polygon_to_json(geometry._polygon(rng, f_bfs, span=2, max_points=2))}), 0),
        Request("dual", ["dual"], wire.dumps(wire.polygon_to_json(p1)), 0),
        Request("dual", ["dual"], wire.dumps(wire.envelope_to_json(phi(geometry._polygon(rng, f1)))), 0),
        Request("primes", ["primes", "--field", str(d), "--bound", str(rng.randint(20, 100))], "", 0),
        Request("adele", adele, wire.dumps({"op": "module", "vector": wire.vector_to_json(vec)}), 0),
        Request("adele", adele, wire.dumps({"op": "vector", "module": module}), 0),
        Request("adele", adele, wire.dumps({"op": "iso", "A": wire.vector_to_json(vec),
                                       "B": wire.vector_to_json(adelic._vector(rng, f))}), 0),
        Request("adele", adele, wire.dumps({"op": "member", "module": module,
                                       "q": wire.quadrat_to_json(adelic._quadrat(rng, f))}), 0),
        Request("adele", adele, wire.dumps({"op": "validate", "section": section}), 0),
        Request("adele", adele, wire.dumps({"op": "act", "section": section,
                                       "k": [rng.randint(1, 4), rng.randint(-2, 2)]}), 0),
        Request("stalk", ["stalk"], wire.dumps({"polygon": a, "k": wire.quadrat_to_json(k)}), 0),
        Request("tensor", ["tensor", "normalize"],
                wire.dumps(wire.tensor_to_json(tensor._noisy(rng, tensor._tensor(rng, 2)))), 0),
        Request("tensor", ["tensor", "sep"], wire.dumps({"A": wire.tensor_to_json(tensor._tensor(rng, 2)),
                                                    "B": wire.tensor_to_json(tensor._tensor(rng, 2))}), 0),
        Request("tensor", ["tensor", "reduce"], wire.dumps({
            "x": {"a": wire.tensor_to_json(x.a), "b": wire.tensor_to_json(x.b)},
            "y": {"a": wire.tensor_to_json(y.a), "b": wire.tensor_to_json(y.b)},
            "hint": wire.tensor_to_json(w)}), 0),
        Request("render", ["render"], wire.dumps(a), 0),
        Request("poly", ["poly"], '{"op": "union", "A": ', 2, "malformed-input"),
        rng.choice([
            Request("field-info", ["field-info", "--field", "5"], "", 2, "malformed-input"),
            Request("poly", ["poly"], wire.dumps({"op": "shear", "A": a}), 2, "malformed-input"),
        ]),
        Request("tensor", ["tensor", "bogus"], "", 2),
    ]
    f2 = field(2)
    bad_section = {"bound": 10, "values": [[wire.prime_to_json(adelic._prime_pool(f1)[0]),
                                            {"num": [1, 0], "den": 3}]]}
    reqs.append(rng.choice([
        Request("dual", ["dual"], wire.dumps(wire.polygon_to_json(geometry._polygon(rng, f2))), 1, "wrong-field"),
        Request("stalk", ["stalk"], wire.dumps({"polygon": a, "k": {"num": [0, 0], "den": 1}}), 1, "zero-input"),
        Request("adele", ["adele", "--field", "1"], wire.dumps({"op": "act", "section": bad_section, "k": [1, 1]}),
                1, "invalid-section"),
    ]))
    return reqs


def _op(req: Request) -> Op:
    return Op(req.op_kind, lambda: call_cli(req.argv, req.payload), _check(req), list,
              lambda out: {"wire.bytes_in": len(req.payload.encode()), "wire.bytes_out": len(out[1].encode())})


class Stream:
    """The requests of each cycle, answered in this process through tropigon.cli.main."""

    def __init__(self, seed: int):
        self.seed = seed

    def requests(self, c: int) -> list[Request]:
        rng = random.Random(f"{NAME}:{self.seed}:{c}")
        reqs = _requests(rng)
        rng.shuffle(reqs)
        return reqs

    def cycle(self, c: int) -> list[Op]:
        return [_op(req) for req in self.requests(c)]


class ColdStream(Stream):
    """The same requests, each timed as a fresh process; its answer must equal the in-process one."""

    def __init__(self, seed: int):
        super().__init__(seed)
        call_cold(self.requests(0)[0])  # untimed: later requests start from compiled bytecode

    def cycle(self, c: int) -> list[Op]:
        return [Op(req.op_kind, lambda req=req: call_cold(req), _check_cold(req), list)
                for req in self.requests(c)]


def _check_cold(req: Request):
    check = _check(req)

    def check_cold(out):
        # the reference answer is computed here, after the clock stopped
        want = call_cli(req.argv, req.payload)
        return check(out) or (None if out == want else f"fresh process answered {out!r}, in-process {want!r}")

    return check_cold


def trace_setup() -> dict:
    """Interpreter start and `import tropigon.cli`, each from fresh processes."""
    bare = harness.SpawnSampler("pass", SPAWN_REPEATS, 0).value()
    loaded = harness.SpawnSampler("import tropigon.cli", SPAWN_REPEATS, 0).value()
    return {"cli.interp_start_ms": bare * 1e3, "cli.import_ms": (loaded - bare) * 1e3}


def layer_metrics(kind_stats: dict, tracer) -> dict:
    """cli.<subcommand>.p50_ms over the traced in-process replay of well-formed requests."""
    return {f"cli.{sub}.p50_ms": kind_stats[sub]["p50_ms"] if sub in kind_stats else 0.0
            for sub in SUBCOMMANDS}
