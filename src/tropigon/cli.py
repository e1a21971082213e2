"""Command-line front end.

JSON comes in through a positional file argument (or stdin when absent or
"-"), results go to stdout as a single sorted-key JSON line; `render` emits
SVG instead.  Exit codes: 0 success, 1 domain error, 2 malformed input or an
unreadable or unwritable file, 3 internal error (traceback on stderr); each
error prints a one-line JSON object describing it.  141 (128 + SIGPIPE): the
reader closed stdout early, and nothing more is printed.

Each input that sizes the work has a cap, and past it the request exits 2:

    input                                  cap                               kind
    primes --bound                         MAX_PRIME_BOUND                   malformed-input
    tensor experiment --bound              MAX_EXPERIMENT_SAMPLES            malformed-input
    tensor --witness-bound                 MAX_WITNESS_BOUND                 malformed-input
    "bound" of an adele section            MAX_PRIME_BOUND                   malformed-input
    "p" of a named prime                   adelic.MAX_NAMED_PRIME            malformed-input
    adele vector: a prime factor of        adelic.MAX_NAMED_PRIME            out-of-budget
      norm(num)*den of delta/generator
    adele vector: the sum of those primes  adelic.MAX_NAMED_PRIME            out-of-budget
    sum of |e|*bits(p) of an input vector  wire.MAX_VECTOR_BITS              malformed-input
    member/stalk search norm bound         polygeom.MAX_MEMBERSHIP_NORM      out-of-budget
    member/stalk search reached polygons   polygeom.MAX_MEMBERSHIP_NODES     out-of-budget

The last two hold for d not in {1, 3}, where membership is a breadth-first
search.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import wire
from .adelic import (
    FiniteSection,
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
    ReducedElement,
    cancellativity_experiment,
    eval_separator,
    reduced_equal,
)

MAX_PRIME_BOUND = 10_000
MAX_EXPERIMENT_SAMPLES = 1_000
MAX_WITNESS_BOUND = 16


def _capped(value: int, cap: int, flag: str) -> int:
    if value > cap:
        raise MalformedInput(f"{flag} must be <= {cap}")
    return value


def _load_json(args) -> object:
    path = getattr(args, "json", None)
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


def _need(data: dict, key: str):
    if not isinstance(data, dict) or key not in data:
        raise MalformedInput(f'missing key "{key}"')
    return data[key]


def _field_flag(args, required: bool = False) -> Field | None:
    d = getattr(args, "field", None)
    if d is None:
        if required:
            raise MalformedInput("--field is required for this subcommand")
        return None
    return wire.field_from_json(d)


def _emit(data):
    print(wire.dumps(data))


def cmd_field_info(args) -> int:
    f = _field_flag(args, required=True)
    info = {
        "d": f.d,
        "case": f.case,
        "discriminant": f.discriminant,
        "trace_omega": f.trace_omega,
        "norm_omega": f.norm_omega,
        "sigma": f.sigma,
        "units": [wire.quadint_to_json(u) for u in f.units],
        "omega": wire.quadint_to_json(f.omega),
    }
    _emit(info)
    return 0


def cmd_poly(args) -> int:
    data = wire.as_dict(_load_json(args), "poly request")
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
    _emit(wire.polygon_to_json(out))
    return 0


def cmd_member(args) -> int:
    data = wire.as_dict(_load_json(args), "member request")
    ef = _field_flag(args)
    if "polygon" in data:
        p = wire.polygon_from_json(data["polygon"], ef)
        gens = [
            wire.quadrat_from_json(p.field, g)
            for g in wire.as_list(data.get("generators", []), "generators")
        ] or None
    else:
        p = wire.polygon_from_json(data, ef)
        gens = None
    ok, dec = membership_in_generated(p, gens)
    _emit({"member": ok, "decomposition": wire.decomposition_to_json(dec)})
    return 0


def cmd_dual(args) -> int:
    data = wire.as_dict(_load_json(args), "dual request")
    ef = _field_flag(args)
    if data.get("tag") == "bottom" or "lines" in data:
        e = wire.envelope_from_json(data)
        _emit(wire.polygon_to_json(phi_inv(e)))
    else:
        p = wire.polygon_from_json(data, ef)
        _emit(wire.envelope_to_json(phi(p)))
    return 0


def cmd_primes(args) -> int:
    f = _field_flag(args, required=True)
    bound = _capped(args.bound, MAX_PRIME_BOUND, "--bound")
    if bound < 2:
        raise MalformedInput("--bound must be >= 2")
    out = {
        "field": f.d,
        "bound": bound,
        "primes": [wire.prime_to_json(p) for p in primes_upto(f, bound)],
        "ideal_counts": ideal_count_upto(f, min(bound, 1000)),
    }
    _emit(out)
    return 0


def _section(f: Field, data: dict) -> FiniteSection:
    s = wire.section_from_json(f, _need(data, "section"))
    _capped(s.prime_bound, MAX_PRIME_BOUND, "bound")
    return s


def cmd_adele(args) -> int:
    f = _field_flag(args, required=True)
    data = wire.as_dict(_load_json(args), "adele request")
    op = _need(data, "op")
    if op == "module":
        a = wire.vector_from_json(f, _need(data, "vector"))
        _emit(wire.module_to_json(module_from_adele(a)))
    elif op == "vector":
        h = wire.module_from_json(f, _need(data, "module"))
        _emit(wire.vector_to_json(adele_from_module(h)))
    elif op == "iso":
        a = wire.vector_from_json(f, _need(data, "A"))
        b = wire.vector_from_json(f, _need(data, "B"))
        eq, k = iso_class_equal(a, b)
        _emit({"equal": eq, "witness": wire.quadrat_to_json(k) if eq else None})
    elif op == "member":
        h = wire.module_from_json(f, _need(data, "module"))
        q = wire.quadrat_from_json(f, _need(data, "q"))
        _emit({"member": h.member(q)})
    elif op == "validate":
        s = _section(f, data)
        bad = section_violation(s)
        out = {"valid": bad is None}
        if bad is not None:
            out["prime"] = wire.prime_to_json(bad)
        _emit(out)
    elif op == "act":
        s = _section(f, data)
        k = wire.quadint_from_json(f, _need(data, "k"))
        _emit(wire.section_to_json(section_act(k, s)))
    else:
        raise MalformedInput(f"unknown adele op {op!r}")
    return 0


def cmd_stalk(args) -> int:
    data = wire.as_dict(_load_json(args), "stalk request")
    ef = _field_flag(args)
    p = wire.polygon_from_json(_need(data, "polygon"), ef)
    k = wire.quadrat_from_json(p.field, _need(data, "k"))
    element = stalk_scale(k, p)
    ok, dec = element.member()
    _emit(
        {
            "polygon": wire.polygon_to_json(element.polygon),
            "member": ok,
            "decomposition": wire.decomposition_to_json(dec),
        }
    )
    return 0


def _experiment_record_json(rec: dict) -> dict:
    out = dict(rec)
    for key in ("a", "a_prime", "c"):
        out[key] = wire.tensor_to_json(out[key])
    return out


def cmd_tensor(args) -> int:
    wb = _capped(args.witness_bound, MAX_WITNESS_BOUND, "--witness-bound")
    if args.op == "experiment":
        samples = _capped(args.bound, MAX_EXPERIMENT_SAMPLES, "--bound")
        seed = args.seed if args.seed is not None else 0
        for rec in cancellativity_experiment(samples, witness_bound=wb, seed=seed):
            _emit(_experiment_record_json(rec))
        return 0
    data = wire.as_dict(_load_json(args), "tensor request")
    if args.op == "normalize":
        t = wire.tensor_from_json(data.get("tensor", data))
        _emit(wire.tensor_to_json(t))
    elif args.op == "sep":
        s = wire.tensor_from_json(_need(data, "A"))
        t = wire.tensor_from_json(_need(data, "B"))
        _emit({"verdict": eval_separator(s, t)})
    elif args.op == "reduce":
        xd = wire.as_dict(_need(data, "x"), "x")
        yd = wire.as_dict(_need(data, "y"), "y")
        x = ReducedElement(wire.tensor_from_json(_need(xd, "a")), wire.tensor_from_json(_need(xd, "b")))
        y = ReducedElement(wire.tensor_from_json(_need(yd, "a")), wire.tensor_from_json(_need(yd, "b")))
        hint = wire.tensor_from_json(data["hint"]) if "hint" in data else None
        status, witness = reduced_equal(x, y, witness_bound=wb, hint=hint)
        _emit(
            {
                "status": status,
                "witness": wire.tensor_to_json(witness) if witness is not None else None,
            }
        )
    else:  # pragma: no cover - argparse restricts choices
        raise MalformedInput(f"unknown tensor op {args.op!r}")
    return 0


def cmd_render(args) -> int:
    data = wire.as_dict(_load_json(args), "render request")
    ef = _field_flag(args)
    if "polygon" in data:
        p = wire.polygon_from_json(data["polygon"], ef)
        overlays = [
            wire.polygon_from_json(o, p.field)
            for o in wire.as_list(data.get("overlays", []), "overlays")
        ]
    else:
        p = wire.polygon_from_json(data, ef)
        overlays = []
    svg = render_polygon_svg(p, overlays)
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise MalformedInput(f"cannot write {args.svg}: {exc}") from exc
        _emit({"svg": args.svg})
    else:
        sys.stdout.write(svg)
    return 0


def cmd_selftest(args) -> int:
    # imported here so that no other subcommand pays for it
    from . import selftest

    seed = args.seed if args.seed is not None else 0
    return 0 if selftest.run(seed) else 1


_HANDLERS = {
    "field-info": cmd_field_info,
    "poly": cmd_poly,
    "member": cmd_member,
    "dual": cmd_dual,
    "primes": cmd_primes,
    "adele": cmd_adele,
    "stalk": cmd_stalk,
    "tensor": cmd_tensor,
    "render": cmd_render,
    "selftest": cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropigon",
        description="Convex-polygon semirings over the nine class-number-1 imaginary quadratic fields",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, *, json_arg: bool = False, field: bool = False, help: str = ""):
        p = sub.add_parser(name, help=help)
        if json_arg:
            p.add_argument("json", nargs="?", help="JSON input file ('-' or absent: stdin)")
        if field:
            p.add_argument("--field", type=int, help="field id d (one of the nine values)")
        return p

    add("field-info", field=True, help="print the invariants of one field")
    add("poly", json_arg=True, field=True, help="union / minkowski / scale on polygons")
    add("member", json_arg=True, field=True, help="membership in the generated semiring, with witness")
    add("dual", json_arg=True, field=True, help="d=1 polygon/envelope transform (direction inferred)")
    p = add("primes", field=True, help="primes above p <= bound, plus ideal counts")
    p.add_argument("--bound", type=int, default=50, help="rational prime bound (default 50)")
    add("adele", json_arg=True, field=True, help="module/vector round-trips, iso, membership, sections")
    add("stalk", json_arg=True, field=True, help="scale a polygon into a stalk and decide membership")
    p = add("tensor", help="tensor laboratory")
    p.add_argument("op", choices=("normalize", "sep", "reduce", "experiment"))
    p.add_argument("json", nargs="?", help="JSON input file ('-' or absent: stdin)")
    p.add_argument("--witness-bound", type=int, default=2, help="witness search depth (default 2)")
    p.add_argument("--seed", type=int, help="experiment RNG seed (default 0)")
    p.add_argument("--bound", type=int, default=50, help="experiment sample count (default 50)")
    p = add("render", json_arg=True, field=True, help="standalone SVG of a polygon with overlays")
    p.add_argument("--svg", help="write the SVG here instead of stdout")
    p = add("selftest", help="run the deterministic invariant suite")
    p.add_argument("--seed", type=int, help="suite seed (default 0)")
    return parser


def _run(args) -> int:
    try:
        return _HANDLERS[args.cmd](args)
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
    # tensor's positional op shares the name "op" with nothing else; json may
    # be consumed only by subcommands that declared it
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
