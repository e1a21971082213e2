"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload geometry --seed 42 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json with tracing
off.  --trace 1 measures the per-layer metrics: it runs the first cycle
untraced twice, then the same cycle and further ones with spans around every
traced function, and reports the tracing overhead on that first cycle.  The
last stdout line holds {"correct", "attempted", "failed", "metrics"}; a
results file with the environment, sample counts, digest and failures goes to
bench/results/.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys

import harness

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
DEFAULT_SEED = 42
SETUP_REPEATS = 15
MAX_FAILURE_LINES = 20


def load_spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(workload: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(BENCH_DIR, "expected_digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def plain_run(wl, args, dumps) -> tuple[dict, list, int, dict]:
    """End-to-end metrics with tracing off."""
    setup = harness.SpawnSampler(f"import {wl.IMPORT}", SETUP_REPEATS, args.seconds)
    # cli-cold times fresh processes; the other workloads time calls in this one
    stream = (wl.ColdStream if hasattr(wl, "ColdStream") else wl.Stream)(args.seed)
    res = harness.run_loop(stream, args.seconds, wl.CYCLE_OPS,
                           corrupt_op=args.corrupt_op, dumps=dumps, between_cycles=setup.due)
    lm = harness.latency_metrics(res)
    metrics = {
        "setup_s": setup.value(),
        "ops_per_s": lm["ops_per_s"],
        "op_p50_ms": lm["op_p50_ms"],
        "op_p99_ms": lm["op_p99_ms"],
        # every operation is one request of the client
        "req_p50_ms": lm["op_p50_ms"],
        "req_p90_ms": lm["op_p90_ms"],
        "peak_rss_mb": harness.peak_rss_mb(getattr(wl, "RSS_OF", resource.RUSAGE_SELF)),
    }
    info = {"samples": lm["samples"], "cycles": lm["cycles"], "digest": res.digest,
            "kinds": harness.kind_breakdown(res)}
    return metrics, res.failures, res.attempted, info


def traced_run(wl, args, dumps, layer_names) -> tuple[dict, list, int, dict]:
    """Per-layer metrics from spans; the first cycle also gives the tracing overhead."""
    import tracing

    tracer = tracing.install(tracing.Tracer())
    extras = wl.trace_setup() if hasattr(wl, "trace_setup") else {}
    n = wl.CYCLE_OPS
    first = harness.run_loop(wl.Stream(args.seed), 0, n, max_cycles=1,
                             corrupt_op=args.corrupt_op, dumps=dumps)
    warm = harness.run_loop(wl.Stream(args.seed), 0, n, max_cycles=1, dumps=dumps)
    cycles = max(2, math.ceil(args.seconds / wl.TRACE_CYCLE_S))
    traced = harness.run_loop(wl.Stream(args.seed), 0, n, max_cycles=cycles, tracer=tracer,
                              dumps=dumps)
    failures = first.failures + warm.failures + traced.failures
    digests = {first.digest, warm.digest, traced.digest}
    if len(digests) != 1:
        failures.append(f"digests differ between untraced and traced runs: {sorted(digests)}")
    # cycle 0 of the traced pass replays warm caches, so per-kind figures skip it
    kinds = harness.kind_breakdown(traced, start=n)
    if hasattr(wl, "layer_metrics"):
        extras.update(wl.layer_metrics(kinds, tracer))
    extras["trace.overhead_s"] = traced.digest_wall_s - warm.digest_wall_s

    values = {}
    for name in layer_names:
        base, _, leaf = name.rpartition(".")
        if name in extras:
            values[name] = extras[name]
        elif leaf == "calls":
            values[name] = tracer.n_calls(base)
        elif leaf == "self_s":
            values[name] = tracer.self_s(base)
        elif name == "polygeom.membership_in_generated.minkowski_children":
            values[name] = tracer.children("polygeom.membership_in_generated", "polygeom.minkowski_sum")
        elif name == "tensorlab.reduced_equal.product_children":
            values[name] = tracer.children("tensorlab.reduced_equal", "tensorlab.tensor_product")
        else:
            # counters and workload-specific figures stay 0 where this workload never reaches them
            values[name] = tracer.counts.get(name, 0)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans_file = os.path.join(RESULTS_DIR, f"{args.workload}-s{args.seed}.spans.jsonl")
    tracer.write_spans(spans_file)
    info = {"samples": traced.stats_ops, "cycles": len(traced.cycles), "digest": traced.digest,
            "untraced_first_cycle_s": warm.digest_wall_s,
            "traced_first_cycle_s": traced.digest_wall_s, "spans_file": spans_file,
            "total_spans": tracer.next_span, "kinds": kinds}
    return values, failures, first.attempted + warm.attempted + traced.attempted, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # test hook: replace this operation's answer by None before it is checked
    ap.add_argument("--corrupt-op", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    harness.use_source_tree()
    import workloads
    from tropigon import wire

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.NAMES)}")
    spec = load_spec()
    wl = workloads.load(args.workload)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, failures, attempted, info = traced_run(wl, args, wire.dumps, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, failures, attempted, info = plain_run(wl, args, wire.dumps)
    want = expected_digest(args.workload, args.seed)
    if want is not None and info["digest"] != want:
        failures.append(f"digest {info['digest']} differs from the recorded {want}")
    missing = [n for n in names if n not in values]
    if missing:
        raise SystemExit(f"bench: {args.workload} does not produce {missing}")

    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(args.seed),
        "error_rate": failed / attempted,
        "digest_expected": want,
        "failures": failures[:MAX_FAILURE_LINES],
        **info,
        **result,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
