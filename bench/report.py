"""Run every workload untraced and traced, and print all metrics in one table.

    python3 bench/report.py --seed 42 --seconds 25

For each workload this prints every end-to-end metric (untraced run) and
every per-layer metric (traced run) with its unit, then the sample count,
error rate, digest and tracing overhead.  It exits non-zero when any run
failed a check or the traced and untraced digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict]:
    p = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       stdout=subprocess.DEVNULL, timeout=600)
    path = os.path.join(run.RESULTS_DIR, f"{workload}-s{seed}-t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return p.returncode, json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args(argv)

    ok = True
    for w in workloads.NAMES:
        code0, plain = one_run(w, args.seed, args.seconds, 0)
        code1, traced = one_run(w, args.seed, args.seconds, 1)
        print(f"== {w}  seed {args.seed}  {plain['environment']['python']}  "
              f"nproc {plain['environment']['nproc']}  {plain['environment']['cpu_model']}")
        for trace_run in (plain, traced):
            for name, m in trace_run["metrics"].items():
                print(f"  {name:55s} {m['value']:>16.6g} {m['unit']}")
        print(f"  samples {plain['samples']} (traced {traced['samples']})  "
              f"error_rate {plain['error_rate']:.3g} (traced {traced['error_rate']:.3g})")
        print(f"  digest {plain['digest']}"
              + (f"  recorded {plain['digest_expected']}" if plain["digest_expected"] else ""))
        same = plain["digest"] == traced["digest"]
        print(f"  traced digest {'equal' if same else 'DIFFERENT'}; tracing overhead "
              f"{traced['traced_first_cycle_s'] - traced['untraced_first_cycle_s']:.3f} s on "
              f"{traced['untraced_first_cycle_s']:.3f} s")
        for line in plain["failures"] + traced["failures"]:
            print(f"  FAILED {line}")
        ok = ok and code0 == 0 and code1 == 0 and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
