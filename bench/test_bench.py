"""The benchmark's own tests, at tiny sizes.  Run them under -O, as checks must survive it:

    python3 -O -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

harness.use_source_tree()


def bench(workload, seed=7, seconds=1, trace=0, *extra, cwd=ROOT):
    """Run the benchmark under -O; returns (exit code, last stdout line parsed or None)."""
    p = subprocess.run([sys.executable, "-O", os.path.join(cwd, "bench", "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra],
                       capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def digest(workload, seed, trace=0):
    with open(os.path.join(BENCH_DIR, "results", f"{workload}-s{seed}-t{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)["digest"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class WorkloadRuns(unittest.TestCase):
    def test_every_workload_passes_untraced_and_traced(self):
        s = spec()
        for w in workloads.NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, out = bench(w, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreater(out["attempted"], 0)
                    self.assertEqual(list(out["metrics"]), [m["name"] for m in s[key]])
                    if trace == 0:
                        for name, m in out["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_same_seed_same_digest_other_seed_other_inputs(self):
        digests = []
        for seed in (11, 11, 12):
            code, _ = bench("tensor", seed=seed)
            self.assertEqual(code, 0)
            digests.append(digest("tensor", seed))
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])
        stream = workloads.load("adelic").Stream
        self.assertNotEqual([op.kind for op in stream(1).cycle(0)], [op.kind for op in stream(2).cycle(0)])

    def test_default_seed_matches_the_recorded_digest(self):
        code, out = bench("adelic", seed=42)
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])

    def test_corrupted_answer_fails_the_run(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, out = bench("adelic", 7, 1, trace, "--corrupt-op", "5")
                self.assertNotEqual(code, 0)
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["failed"], 1)

    def test_without_the_program_it_fails_and_prints_no_result(self):
        bare = os.path.join(BENCH_DIR, "results", f"bare-{os.getpid()}")
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            code, out = bench("geometry", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(out)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Oracle(unittest.TestCase):
    def test_envelope_oracle(self):
        lines = [(Fraction(0), Fraction(2)), (Fraction(2), Fraction(0)), (Fraction(0), Fraction(0))]
        top = [(Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))]
        self.assertTrue(oracle.is_envelope_of(top, lines))
        self.assertFalse(oracle.is_envelope_of(top[:1], lines))
        self.assertFalse(oracle.is_envelope_of(top[::-1], lines))
        self.assertTrue(oracle.env_leq([(Fraction(1), Fraction(1))], top))
        self.assertFalse(oracle.env_leq([(Fraction(3), Fraction(-1))], top))

    def test_splitting(self):
        self.assertEqual(oracle.splitting(1, 5), "split")
        self.assertEqual(oracle.splitting(1, 3), "inert")
        self.assertEqual(oracle.splitting(1, 2), "ramified")
        self.assertEqual(oracle.splitting(7, 2), "split")
        self.assertEqual(oracle.splitting(163, 2), "inert")


    def test_differing_point(self):
        e, f = ((Fraction(0), Fraction(1)),), ((Fraction(0), Fraction(0)),)
        s, t = [(e, f)], [(f, e)]  # x and y
        x, y = oracle.differing_point(s, t)
        self.assertNotEqual(oracle.tensor_at(s, x, y), oracle.tensor_at(t, x, y))
        both = [(e, f), (f, e)]
        self.assertIsNone(oracle.differing_point(both, list(reversed(both))))


class Streams(unittest.TestCase):
    def test_a_used_up_prime_band_raises(self):
        stream = workloads.load("adelic").Stream(1)
        stream.fresh[5] = stream.fresh[5][:2]
        seen = {stream._fresh_prime(5), stream._fresh_prime(5)}
        self.assertEqual(len(seen), 2)
        with self.assertRaises(RuntimeError):
            stream._fresh_prime(5)


class Tracer(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = tracing.Tracer()

        def inner():
            return sum(range(20000))

        inner_t = tr.wrap("inner", inner)
        outer_t = tr.wrap("outer", lambda: [inner_t() for _ in range(3)])
        outer_t()  # inactive: no spans
        self.assertEqual(tr.n_calls("outer"), 0)
        tr.active = True
        outer_t()
        tr.active = False
        self.assertEqual((tr.n_calls("outer"), tr.n_calls("inner")), (1, 3))
        self.assertEqual(tr.children("outer", "inner"), 3)
        spans = [tuple(tr.spans[k:k + 6]) for k in range(0, len(tr.spans), 6)]
        outer = next(s for s in spans if tr.names[s[1]] == "outer")
        covered = sum(s[3] - s[2] for s in spans if s[4] == outer[0])
        self.assertEqual(tr.self_ns[tr.name_id("outer")], outer[3] - outer[2] - covered)
        self.assertGreater(tr.self_s("inner"), 0)


if __name__ == "__main__":
    unittest.main()
