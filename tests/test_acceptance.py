"""The eleven acceptance criteria, one test each, with a printed verdict line.

Each criterion reruns the corresponding deterministic invariant group at seed
42 (the same code path `tropigon selftest` exercises), asserts its stated
runtime budget where one exists, and prints a single PASS/FAIL line so a plain
`python3 tests/test_acceptance.py` run reads as a report.
"""

import subprocess
import sys
import time
from pathlib import Path

from tropigon.selftest import (
    _c01_semiring,
    _c02_membership_dichotomy,
    _c03_duality,
    _c04_stalks,
    _c05_global_sections,
    _c06_primes,
    _c07_adeles,
    _c08_fibers,
    _c09_tensor_sandwich,
    _c10_reduced,
    _group_rng,
)

SEED = 42
# `python -m tropigon.cli selftest --seed 42` stdout, byte for byte
GOLDEN = Path(__file__).resolve().parent / "data" / "selftest_seed42.jsonl"


def _criterion(n, group, fn, description, budget=None):
    start = time.monotonic()
    try:
        stats = fn(_group_rng(SEED, group))
        elapsed = time.monotonic() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"took {elapsed:.1f}s, budget {budget}s")
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"criterion {n:2d}: FAIL ({elapsed:.1f}s) — {description}", flush=True)
        raise
    print(f"criterion {n:2d}: PASS ({elapsed:.1f}s) — {description}", flush=True)
    return stats


def test_criterion_01_semiring_axioms():
    stats = _criterion(
        1,
        "c01",
        _c01_semiring,
        "semiring axioms, 9 fields x 500 polygon triples, exact",
        budget=60,
    )
    assert stats["triples"] == 4500


def test_criterion_02_membership_dichotomy():
    stats = _criterion(
        2,
        "c02",
        _c02_membership_dichotomy,
        "membership accepted on lattice-vertex polygons (d=1,3), counterexamples rejected elsewhere",
        budget=120,
    )
    assert stats["accepted"] == 400
    assert stats["rejected_fields"] == [2, 7, 11, 19, 43, 67, 163]


def test_criterion_03_duality_isomorphism():
    stats = _criterion(
        3,
        "c03",
        _c03_duality,
        "support-function duality on 1000 pairs: both operations and both round-trips, exact",
        budget=60,
    )
    assert stats["pairs"] == 1000


def test_criterion_04_stalk_consistency():
    stats = _criterion(
        4,
        "c04",
        _c04_stalks,
        "50 scaled-stalk membership checks agree with ring membership, witnesses replay",
    )
    assert stats["scalars"] == 50


def test_criterion_05_global_sections():
    _criterion(
        5,
        "c05",
        _c05_global_sections,
        "global sections are exactly the two degenerate polygons, per field",
    )


def test_criterion_06_prime_splitting_and_counts():
    _criterion(
        6,
        "c06",
        _c06_primes,
        "splitting kinds vs factorization criterion (p <= 200), ideal counts vs enumeration (n <= 100)",
        budget=30,
    )


def test_criterion_07_adelic_round_trips():
    stats = _criterion(
        7,
        "c07",
        _c07_adeles,
        "100 valuation vectors per field: module round-trips, membership, iso witnesses",
    )
    assert stats["fields"] == 9 and stats["vectors_per_field"] == 100


def test_criterion_08_fibers():
    _criterion(
        8,
        "c08",
        _c08_fibers,
        "generic fiber operation tables; localized fiber accepts pi^-1 scaling, rejects 1/3",
    )


def test_criterion_09_tensor_sandwich():
    stats = _criterion(
        9,
        "c09",
        _c09_tensor_sandwich,
        "2000 tensor pairs: normal-form equality never separated; defining identities certified",
        budget=120,
    )
    assert stats["rounds"] == 2000


def test_criterion_10_reduced_quotient():
    stats = _criterion(
        10,
        "c10",
        _c10_reduced,
        "200 cancellation instances certified equal; gamma additive on 200 pairs",
    )
    assert stats["cancellations"] == 200 and stats["additivity_pairs"] == 200


def test_criterion_11_selftest_determinism():
    start = time.monotonic()
    cmd = [sys.executable, "-m", "tropigon.cli", "selftest", "--seed", "42"]
    try:
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0, first.stdout.decode()
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout.splitlines()) == 10
        assert first.stdout == GOLDEN.read_bytes()
    except BaseException:
        print(
            f"criterion 11: FAIL ({time.monotonic() - start:.1f}s) — selftest --seed 42 byte-identical",
            flush=True,
        )
        raise
    print(
        f"criterion 11: PASS ({time.monotonic() - start:.1f}s) — selftest --seed 42 byte-identical",
        flush=True,
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            try:
                fn()
            except BaseException as exc:  # keep reporting the rest
                failures += 1
                print(f"  {type(exc).__name__}: {exc}", flush=True)
    raise SystemExit(1 if failures else 0)
