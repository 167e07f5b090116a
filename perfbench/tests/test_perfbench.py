"""Tests of the benchmark itself; they do not run with the package's suite.

    python3 -m unittest discover -s perfbench/tests

They check that a seed fixes the inputs, that every metric named in
BENCHMARK.json is printed with its unit, that a corrupted result is
counted as failed, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import warm  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CC, _ = warm.load(run.SRC, "decide")


def bench(workload: str, seed: int, trace: int, seconds: float = 1.0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                wl = cls(CC, ROOT)
                first = wl.inputs(7)
                self.assertEqual(first, wl.inputs(7))
                self.assertNotEqual(first, wl.inputs(8))


class MetricNamesTest(unittest.TestCase):
    def check_names(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
        return result

    def test_end_to_end_metrics(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = self.check_names(bench(name, 3, 0), SPEC["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.check_names(bench(name, 3, 1), SPEC["per_layer"])


class CorruptionTest(unittest.TestCase):
    def run_corrupted(self, workload, attr, corrupt, seconds=0.5):
        original = getattr(CC, attr)
        calls = itertools.count()
        bad = []

        def corrupted(*args, **kwargs):
            out = original(*args, **kwargs)
            if next(calls) % 3 == 0:
                bad.append(1)
                return corrupt(out)
            return out

        wl = workloads.WORKLOADS[workload](CC, ROOT)
        inputs = wl.inputs(5)
        setattr(CC, attr, corrupted)
        try:
            loop = run.run_loop(wl, inputs, seconds)
        finally:
            setattr(CC, attr, original)
        self.assertGreater(len(bad), 0)
        return loop, len(bad)

    def test_wrong_distance_counts_as_failed(self):
        def shift(verdict):
            if verdict.lattice is None:
                return replace(verdict, case="NONE", admissible=False, reason="corrupted") \
                    if verdict.admissible else replace(verdict, case="EMPTY", admissible=True)
            lattice = replace(verdict.lattice, distance=verdict.lattice.distance + 1)
            return replace(verdict, lattice=lattice)

        loop, bad = self.run_corrupted("decide", "decide_admissible", shift)
        self.assertEqual(loop.failed, bad)
        self.assertGreater(loop.failed / loop.attempted, 0)

    def test_wrong_oracle_status_counts_as_failed(self):
        def flip(result):
            status = CC.UNREALIZABLE if result.status == CC.REALIZABLE else CC.REALIZABLE
            return replace(result, status=status, witness=None)

        loop, bad = self.run_corrupted("realize", "find_witness", flip)
        self.assertEqual(loop.failed, bad)

    def test_digest_mismatch_counts_as_failed(self):
        seed = 424242
        store = run.digest_store(run.environment()["source_sha256"], "decide", seed)
        store.unlink(missing_ok=True)
        try:
            first = bench("decide", seed, 0)
            self.assertEqual(first.returncode, 0, first.stderr)
            known = json.loads(store.read_text())
            self.assertEqual(len(known), json.loads(first.stdout.splitlines()[-1])["attempted"])
            # Two stored results are wrong: exactly the ops on those inputs fail.
            for key in ("0", "1"):
                known[key] = "0" * 32
            store.write_text(json.dumps(known))
            second = json.loads(bench("decide", seed, 0).stdout.splitlines()[-1])
            self.assertFalse(second["correct"])
            self.assertEqual(second["failed"], 2)
        finally:
            store.unlink(missing_ok=True)

    def test_digests_of_other_sources_are_not_compared(self):
        self.assertNotEqual(run.digest_store("a" * 64, "decide", 1),
                            run.digest_store("b" * 64, "decide", 1))


class ReferenceTest(unittest.TestCase):
    def test_odd_lattice_distance_matches_a_plain_box_search(self):
        vectors = [(Fraction(1, 3), Fraction(-5, 4)), (Fraction(0), Fraction(0), Fraction(1, 2)),
                   (Fraction(7, 2), Fraction(2), Fraction(-1, 6))]
        for x in vectors:
            best = min(sum(abs(v - z) for v, z in zip(x, point))
                       for point in itertools.product(range(-4, 6), repeat=len(x))
                       if sum(point) % 2 == 1)
            self.assertEqual(workloads.odd_lattice_distance(x), best)

    def test_tampered_coaxial_witness_is_rejected(self):
        vec = (Fraction(3, 2), Fraction(3, 2), Fraction(3))
        verdict = CC.decide_admissible(vec)
        self.assertEqual(verdict.case, CC.CASE_D)
        stripped = [b for b in vec if b != 1]
        self.assertTrue(workloads.coaxial_witness_holds(stripped, verdict.coaxial))
        tampered = replace(verdict.coaxial, b=tuple(x + 1 for x in verdict.coaxial.b))
        self.assertFalse(workloads.coaxial_witness_holds(stripped, tampered))

    def test_tail_leaves_ten_samples_above(self):
        value, percentile, samples = run.tail([float(v) for v in range(1, 21)])
        self.assertEqual((value, percentile, samples), (10.0, 50.0, 20))
        self.assertTrue(math.isclose(run.tail([1.0, 2.0])[0], 2.0))


class ChildTest(unittest.TestCase):
    def test_run_child_reports_the_childs_own_peak(self):
        grow = "b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096]); print(len(b))"
        big, big_kib = workloads.run_child([sys.executable, "-c", grow], None, 60)
        small, small_kib = workloads.run_child(
            [sys.executable, "-c", "import sys; print(sys.stdin.read())"], "hi", 60)
        self.assertEqual((big.returncode, big.stdout), (0, f"{64 << 20}\n"))
        self.assertEqual((small.returncode, small.stdout), (0, "hi\n"))
        self.assertGreater(big_kib, 64 << 10)
        self.assertLess(small_kib, big_kib - (32 << 10))

    def test_run_child_times_out(self):
        with self.assertRaises(subprocess.TimeoutExpired):
            workloads.run_child([sys.executable, "-c", "import time; time.sleep(30)"], None, 0.5)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_the_package(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("decide", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
