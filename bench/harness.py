"""Closed-loop runner shared by every workload.

One client in one process issues the next operation only after the previous
one returned.  Each operation is timed from outside the program; its answer is
checked and serialised after the clock stops.  A workload hands the runner
its operations one cycle at a time: every cycle holds the same mix of
operation kinds, so latency percentiles and throughput are taken over whole
cycles only.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# an operation slower than this counts as failed even though it returned
OP_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One timed call into the program.

    run() performs the call; check(out) returns None when the answer is right
    and a short reason otherwise; emit(out) returns the answer as the wire
    format's JSON value, which feeds the digest.  In a traced run, counts(out)
    adds per-operation counters to the trace.
    """

    kind: str
    run: object
    check: object
    emit: object
    counts: object = None


@dataclass
class LoopResult:
    attempted: int = 0
    failures: list = field(default_factory=list)
    latencies_ns: array = field(default_factory=lambda: array("q"))
    kinds: list = field(default_factory=list)
    cycles: list = field(default_factory=list)  # (ops, busy ns) per complete cycle
    stats_ops: int = 0  # ops belonging to complete cycles
    digest: str = ""
    digest_wall_s: float = 0.0  # wall time of the digested prefix


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def use_source_tree():
    """Import tropigon from this checkout's src/, never from an installation."""
    if not os.path.isfile(os.path.join(SRC, "tropigon", "__init__.py")):
        raise SystemExit(f"bench: no tropigon sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tropigon

    if not os.path.abspath(tropigon.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported tropigon from {tropigon.__file__}, not {SRC}")


def expect(cond: bool, msg: str) -> str | None:
    """A check's verdict: None when `cond` holds, else `msg`."""
    return None if cond else msg


def _checked(op: Op, out) -> str | None:
    try:
        return op.check(out)
    except Exception as exc:  # a check that cannot even inspect the answer rejects it
        return f"check raised {type(exc).__name__}: {exc}"


def run_loop(stream, seconds: float, digest_ops: int, *, max_cycles: int | None = None, tracer=None,
             corrupt_op: int | None = None, dumps=None, between_cycles=None) -> LoopResult:
    """Run whole cycles of `stream` until `seconds` pass and `digest_ops` ops are done.

    The first `digest_ops` operations are serialised with `dumps` into a
    SHA-256 digest.  With `max_cycles` the loop runs exactly that many cycles
    instead of watching the clock.  `between_cycles()` runs, untimed, after
    each complete cycle.
    """
    res = LoopResult()
    digest = hashlib.sha256()
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    timeout_ns = int(OP_TIMEOUT_S * 1e9)
    c = 0
    while True:
        if max_cycles is not None and c >= max_cycles:
            break
        ops = stream.cycle(c)
        busy = 0
        complete = True
        for op in ops:
            i = res.attempted
            if max_cycles is None and i >= digest_ops and clock() >= deadline:
                complete = False
                break
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            t0 = clock()
            try:
                out = op.run()
                err = None
            except Exception as exc:
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            t1 = clock()
            if tracer is not None:
                tracer.active = False
                if op.counts is not None and out is not None:
                    for key, n in op.counts(out).items():
                        tracer.counts[key] += n
            if i == corrupt_op:
                out = None
            if err is None:
                err = _checked(op, out)
            if err is None and t1 - t0 > timeout_ns:
                err = f"timeout: {(t1 - t0) / 1e9:.1f} s"
            if i < digest_ops:
                digest.update(f"{i}:{op.kind}:".encode())
                digest.update(b"!failed" if err else dumps(op.emit(out)).encode())
                digest.update(b"\n")
                if i == digest_ops - 1:
                    res.digest_wall_s = (clock() - start) / 1e9
            if err is not None:
                res.failures.append(f"op {i} ({op.kind}): {err}")
            res.latencies_ns.append(t1 - t0)
            res.kinds.append(op.kind)
            res.attempted += 1
            busy += t1 - t0
        if not complete:
            break
        res.cycles.append((len(ops), busy))
        res.stats_ops = res.attempted
        if between_cycles is not None:
            between_cycles()
        c += 1
        if max_cycles is None and res.attempted >= digest_ops and clock() >= deadline:
            break
    res.digest = digest.hexdigest()
    return res


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sequence, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def latency_metrics(res: LoopResult) -> dict:
    """Throughput and latency percentiles over every operation of the complete cycles.

    Every cycle carries the same mix of operation kinds, so a run that ends
    mid-cycle does not tilt the percentiles towards the kinds that came first.
    """
    if not res.cycles:
        raise RuntimeError("no complete cycle finished; raise --seconds")
    lat = res.latencies_ns[:res.stats_ops]
    busy_s = sum(ns for _, ns in res.cycles) / 1e9
    return {
        "ops_per_s": res.stats_ops / busy_s,
        "op_p50_ms": quantile(lat, 0.5) / 1e6,
        "op_p90_ms": quantile(lat, 0.9) / 1e6,
        "op_p99_ms": quantile(lat, 0.99) / 1e6,
        "samples": res.stats_ops,
        "cycles": len(res.cycles),
    }


def kind_breakdown(res: LoopResult, start: int = 0) -> dict:
    """Latency per operation kind over complete cycles, from op index `start` on."""
    by_kind: dict[str, list[int]] = {}
    for k, ns in zip(res.kinds[start: res.stats_ops], res.latencies_ns[start: res.stats_ops]):
        by_kind.setdefault(k, []).append(ns)
    return {
        k: {"n": len(v), "p50_ms": quantile(v, 0.5) / 1e6, "mean_ms": sum(v) / len(v) / 1e6}
        for k, v in sorted(by_kind.items())
    }


def spawn_wall_s(code: str) -> float:
    """Wall time of a fresh interpreter running `code`, from spawn to exit.

    No timeout: with one, subprocess polls for the exit with sleeps of up to
    50 ms, which would quantise the figure; a blocking wait returns at once.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=program_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class SpawnSampler:
    """Spawn times of `code` spread evenly over a run of `seconds` (0: all at once).

    Call due() between units of work; value() takes any spawns still missing
    and returns their median.  Spreading the spawns exposes them to the same
    spells of machine slowness as the rest of the run.
    """

    def __init__(self, code: str, repeats: int, seconds: float):
        self.code, self.repeats = code, repeats
        self.every = seconds / repeats
        spawn_wall_s(code)  # untimed: writes the bytecode
        self.times = []
        self.next_at = time.perf_counter()

    def due(self):
        if len(self.times) < self.repeats and time.perf_counter() >= self.next_at:
            self.times.append(spawn_wall_s(self.code))
            self.next_at += self.every

    def value(self) -> float:
        while len(self.times) < self.repeats:
            self.times.append(spawn_wall_s(self.code))
        return quantile(self.times, 0.5)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _git(*args) -> str | None:
    try:
        p = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    return {
        "python": sys.version.split()[0],
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "seed": seed,
        "optimize": sys.flags.optimize,
    }
