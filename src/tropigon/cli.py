"""Command-line front end.

JSON comes in through a positional file argument (or stdin when absent or
"-"), results go to stdout as a single sorted-key JSON line; `render` emits
SVG instead.  Exit codes: 0 success, 1 domain error, 2 malformed input or an
unreadable or unwritable file, 3 internal error (traceback on stderr); each
error prints a one-line JSON object describing it.  141 (128 + SIGPIPE): the
reader closed stdout early, and nothing more is printed.

Each input that sizes the work has a cap, and past it the request exits 2:

    input                                  cap                               kind
    primes --bound                         adelic.MAX_PRIME_BOUND            malformed-input
    tensor experiment --bound              MAX_EXPERIMENT_SAMPLES            malformed-input
    tensor --witness-bound                 tensorlab.MAX_WITNESS_BOUND       malformed-input
    "bound" of an adele section            adelic.MAX_PRIME_BOUND            malformed-input
    "p" of a named prime                   adelic.MAX_NAMED_PRIME            malformed-input
    the sum of the distinct named "p" of   adelic.MAX_NAMED_PRIME            malformed-input
      one vector, module or section
    adele vector: a prime factor of        adelic.MAX_NAMED_PRIME            out-of-budget
      norm(num)*den of delta/generator
    adele vector: the sum of those primes  adelic.MAX_NAMED_PRIME            out-of-budget
    sum of |e|*bits(p) of an input vector  wire.MAX_VECTOR_BITS              malformed-input
    digits of an integer in the answer     sys.get_int_max_str_digits()      out-of-budget
    member/stalk search norm bound         polygeom.MAX_MEMBERSHIP_NORM      out-of-budget
    member/stalk search reached polygons   polygeom.MAX_MEMBERSHIP_NODES     out-of-budget
    tensor reduce: pairs that the witness  tensorlab.MAX_WITNESS_PAIRS       out-of-budget
      search's products cross, summed

The membership caps hold for d not in {1, 3}, where membership is a
breadth-first search.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import wire
from .adelic import (
    MAX_PRIME_BOUND,
    adele_from_module,
    ideal_count_upto,
    iso_class_equal,
    module_from_adele,
    primes_upto,
    section_act,
    section_violation,
)
from .envelope import phi, phi_inv
from .errors import DomainError, MalformedInput, OutOfBudget
from .polygeom import hull_union, membership_in_generated, minkowski_sum, scale_act, stalk_scale
from .quadfield import Field
from .render import render_polygon_svg
from .tensorlab import (
    MAX_WITNESS_BOUND,
    ReducedElement,
    cancellativity_experiment,
    eval_separator,
    reduced_equal,
)

MAX_EXPERIMENT_SAMPLES = 1_000


def _load_json(args) -> object:
    path = args.json
    try:
        if path and path != "-":
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except ValueError as exc:
        # JSONDecodeError, a file that is not UTF-8, or an integer past the int-to-str digit limit
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _request(args) -> dict:
    return wire.as_dict(_load_json(args), f"{args.cmd} request")


def _need(data: dict, key: str):
    if key not in data:
        raise MalformedInput(f'missing key "{key}"')
    return data[key]


def _field_flag(args, required: bool = False) -> Field | None:
    d = args.field
    if d is None:
        if required:
            raise MalformedInput("--field is required for this subcommand")
        return None
    return wire.field_from_json(d)


def _polygon_with(args, key: str, parse) -> tuple:
    """The polygon of {"polygon": P, key: [...]} and its parsed list, or a bare polygon and []."""
    data = _request(args)
    ef = _field_flag(args)
    if "polygon" not in data:
        return wire.polygon_from_json(data, ef), []
    p = wire.polygon_from_json(data["polygon"], ef)
    return p, [parse(p.field, x) for x in wire.as_list(data.get(key, []), key)]


def _emit(data):
    try:
        line = wire.dumps(data)
    except ValueError as exc:
        # only an integer past the int-to-str digit limit is refused; any other ValueError is a bug
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise OutOfBudget(f"answer has an integer over the {limit}-digit int-to-str limit") from exc
    print(line)


def cmd_field_info(args) -> dict:
    f = _field_flag(args, required=True)
    return {
        "d": f.d,
        "case": f.case,
        "discriminant": f.discriminant,
        "trace_omega": f.trace_omega,
        "norm_omega": f.norm_omega,
        "sigma": f.sigma,
        "units": [wire.quadint_to_json(u) for u in f.units],
        "omega": wire.quadint_to_json(f.omega),
    }


def cmd_poly(args) -> dict:
    data = _request(args)
    op = _need(data, "op")
    ef = _field_flag(args)
    a = wire.polygon_from_json(_need(data, "A"), ef)
    if op in ("union", "minkowski"):
        b = wire.polygon_from_json(_need(data, "B"), ef)
        out = hull_union(a, b) if op == "union" else minkowski_sum(a, b)
    elif op == "scale":
        k = wire.quadrat_from_json(a.field, _need(data, "k"))
        out = scale_act(k, a)
    else:
        raise MalformedInput(f"unknown poly op {op!r}")
    return wire.polygon_to_json(out)


def cmd_member(args) -> dict:
    p, gens = _polygon_with(args, "generators", wire.quadrat_from_json)
    ok, dec = membership_in_generated(p, gens or None)
    return {"member": ok, "decomposition": wire.decomposition_to_json(dec)}


def cmd_dual(args) -> dict:
    data = _request(args)
    ef = _field_flag(args)
    if data.get("tag") == "bottom" or "lines" in data:
        e = wire.envelope_from_json(data)
        return wire.polygon_to_json(phi_inv(e))
    p = wire.polygon_from_json(data, ef)
    return wire.envelope_to_json(phi(p))


def cmd_primes(args) -> dict:
    f = _field_flag(args, required=True)
    bound = wire.at_most(args.bound, MAX_PRIME_BOUND, "--bound")
    if bound < 2:
        raise MalformedInput("--bound must be >= 2")
    return {
        "field": f.d,
        "bound": bound,
        "primes": [wire.prime_to_json(p) for p in primes_upto(f, bound)],
        "ideal_counts": ideal_count_upto(f, min(bound, 1000)),
    }


def cmd_adele(args) -> dict:
    f = _field_flag(args, required=True)
    data = _request(args)
    op = _need(data, "op")
    if op == "module":
        a = wire.vector_from_json(f, _need(data, "vector"))
        return wire.module_to_json(module_from_adele(a))
    if op == "vector":
        h = wire.module_from_json(f, _need(data, "module"))
        return wire.vector_to_json(adele_from_module(h))
    if op == "iso":
        a = wire.vector_from_json(f, _need(data, "A"))
        b = wire.vector_from_json(f, _need(data, "B"))
        eq, k = iso_class_equal(a, b)
        return {"equal": eq, "witness": wire.quadrat_to_json(k) if eq else None}
    if op == "member":
        h = wire.module_from_json(f, _need(data, "module"))
        q = wire.quadrat_from_json(f, _need(data, "q"))
        return {"member": h.member(q)}
    if op == "validate":
        s = wire.section_from_json(f, _need(data, "section"))
        bad = section_violation(s)
        out = {"valid": bad is None}
        if bad is not None:
            out["prime"] = wire.prime_to_json(bad)
        return out
    if op == "act":
        s = wire.section_from_json(f, _need(data, "section"))
        k = wire.quadint_from_json(f, _need(data, "k"))
        return wire.section_to_json(section_act(k, s))
    raise MalformedInput(f"unknown adele op {op!r}")


def cmd_stalk(args) -> dict:
    data = _request(args)
    ef = _field_flag(args)
    p = wire.polygon_from_json(_need(data, "polygon"), ef)
    k = wire.quadrat_from_json(p.field, _need(data, "k"))
    element = stalk_scale(k, p)
    ok, dec = element.member()
    return {
        "polygon": wire.polygon_to_json(element.polygon),
        "member": ok,
        "decomposition": wire.decomposition_to_json(dec),
    }


def _reduced(data: dict, key: str) -> ReducedElement:
    xd = wire.as_dict(_need(data, key), key)
    return ReducedElement(wire.tensor_from_json(_need(xd, "a")), wire.tensor_from_json(_need(xd, "b")))


def cmd_tensor(args) -> dict | int:
    wb = wire.at_most(args.witness_bound, MAX_WITNESS_BOUND, "--witness-bound")
    if args.op == "experiment":
        samples = wire.at_most(args.bound, MAX_EXPERIMENT_SAMPLES, "--bound")
        for rec in cancellativity_experiment(samples, seed=args.seed):
            for key in ("a", "a_prime", "c"):
                rec[key] = wire.tensor_to_json(rec[key])
            _emit(rec)
        return 0
    data = _request(args)
    if args.op == "normalize":
        t = wire.tensor_from_json(data.get("tensor", data))
        return wire.tensor_to_json(t)
    if args.op == "sep":
        s = wire.tensor_from_json(_need(data, "A"))
        t = wire.tensor_from_json(_need(data, "B"))
        return {"verdict": eval_separator(s, t)}
    x = _reduced(data, "x")
    y = _reduced(data, "y")
    hint = wire.tensor_from_json(data["hint"]) if "hint" in data else None
    status, witness = reduced_equal(x, y, witness_bound=wb, hint=hint)
    return {
        "status": status,
        "witness": wire.tensor_to_json(witness) if witness is not None else None,
    }


def cmd_render(args) -> dict | int:
    p, overlays = _polygon_with(args, "overlays", lambda f, o: wire.polygon_from_json(o, f))
    svg = render_polygon_svg(p, overlays)
    if not args.svg:
        sys.stdout.write(svg)
        return 0
    try:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise MalformedInput(f"cannot write {args.svg}: {exc}") from exc
    return {"svg": args.svg}


def cmd_selftest(args) -> int:
    # imported here so that no other subcommand pays for it
    from . import selftest

    return 0 if selftest.run(args.seed) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropigon",
        description="Convex-polygon semirings over the nine class-number-1 imaginary quadratic fields",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, handler, *, json_arg: bool = False, field: bool = False, help: str = ""):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if json_arg:
            p.add_argument("json", nargs="?", help="JSON input file ('-' or absent: stdin)")
        if field:
            p.add_argument("--field", type=int, help="field id d (one of the nine values)")
        return p

    add("field-info", cmd_field_info, field=True, help="print the invariants of one field")
    add("poly", cmd_poly, json_arg=True, field=True, help="union / minkowski / scale on polygons")
    add("member", cmd_member, json_arg=True, field=True, help="membership in the generated semiring, with witness")
    add("dual", cmd_dual, json_arg=True, field=True, help="d=1 polygon/envelope transform (direction inferred)")
    p = add("primes", cmd_primes, field=True, help="primes above p <= bound, plus ideal counts")
    p.add_argument("--bound", type=int, default=50, help="rational prime bound (default 50)")
    add("adele", cmd_adele, json_arg=True, field=True, help="module/vector round-trips, iso, membership, sections")
    add("stalk", cmd_stalk, json_arg=True, field=True, help="scale a polygon into a stalk and decide membership")
    p = add("tensor", cmd_tensor, help="tensor laboratory")
    # Each op has a parser of its own, so that its JSON file may come before or
    # after the flags.  The flags are accepted before the op too; an op's parser
    # sets one only when it is given, so no default overwrites a flag given there.
    ops = p.add_subparsers(dest="op", required=True)
    parsers = [p]
    for op in ("normalize", "sep", "reduce", "experiment"):
        q = ops.add_parser(op)
        if op != "experiment":
            q.add_argument("json", nargs="?", help="JSON input file ('-' or absent: stdin)")
        parsers.append(q)
    for q in parsers:
        for flag, default, text in (
            ("--witness-bound", 2, "reduce: witness search depth (default 2); each candidate is tested as it is built"),
            ("--seed", 0, "experiment RNG seed (default 0)"),
            ("--bound", 50, "experiment sample count (default 50)"),
        ):
            q.add_argument(flag, type=int, default=default if q is p else argparse.SUPPRESS, help=text)
    p = add("render", cmd_render, json_arg=True, field=True, help="standalone SVG of a polygon with overlays")
    p.add_argument("--svg", help="write the SVG here instead of stdout")
    p = add("selftest", cmd_selftest, help="run the deterministic invariant suite")
    p.add_argument("--seed", type=int, default=0, help="suite seed (default 0)")
    return parser


def _run(args) -> int:
    try:
        # a handler returns its answer, or the exit code once it has written its own output
        answer = args.handler(args)
        if isinstance(answer, int):
            return answer
        _emit(answer)
        return 0
    except (DomainError, MalformedInput, OutOfBudget) as exc:
        # the kind is the class name in kebab case: malformed-input, out-of-budget, ...
        kind = re.sub(r"(?<!^)(?=[A-Z])", "-", exc.__class__.__name__).lower()
        out = {"error": str(exc) or exc.__class__.__name__, "kind": kind}
        prime = getattr(exc, "prime", None)
        if prime is not None:
            out["prime"] = wire.prime_to_json(prime)
        print(wire.dumps(out))
        return 1 if isinstance(exc, DomainError) else 2
    except BrokenPipeError:
        raise
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(wire.dumps({"error": f"{exc.__class__.__name__}: {exc}", "kind": "internal-error"}))
        return 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (`selftest | head -1`); point stdout at devnull so
        # the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
