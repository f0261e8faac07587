"""Self-tests of the benchmark itself; run with `python3 perfbench/run.py --self-test`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
import tracing
import workloads


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.ops(workload, 5), workloads.ops(workload, 5))

    def test_seed_changes_the_large_draw(self):
        self.assertNotEqual(sorted(map(tuple, workloads.ops("large_semigroup", 1))),
                            sorted(map(tuple, workloads.ops("large_semigroup", 2))))

    def test_box_sizes(self):
        self.assertEqual(len(workloads.family_box()), 233)
        self.assertEqual(len(workloads.engine_box()), 782)

    def test_pinned_tuples_in_every_draw(self):
        for seed in (1, 2, 1009):
            family = workloads.ops("family_sweep", seed)
            for t in workloads.FAMILY_FIXTURES:
                self.assertIn(workloads.argv("verify", t), family)
            engine = workloads.ops("engine_offfamily", seed)
            for t in workloads.ENGINE_PINNED:
                self.assertIn(workloads.argv("verify", t), engine)
            large = workloads.ops("large_semigroup", seed)
            self.assertIn(workloads.argv("verify", workloads.LARGE_PINNED), large)
            self.assertIn(workloads.argv("oracle", workloads.LARGE_PINNED, "--max-level", str(workloads.ORACLE_LEVEL)),
                          large)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.main = run.import_program().cli.main
        self.argv = workloads.argv("verify", workloads.FAMILY_FIXTURES[0])
        self.key = run.op_key(self.argv)
        self.digests = run.load_digests()
        self.assertIn(self.key, self.digests)

    def test_stored_output_passes(self):
        rc, stdout = run.call(self.main, self.argv)
        self.assertIsNone(run.gate(self.key, rc, stdout, self.digests))

    def test_one_byte_change_fails(self):
        rc, stdout = run.call(self.main, self.argv)
        i = len(stdout) // 2
        changed = stdout[:i] + chr(ord(stdout[i]) ^ 1) + stdout[i + 1:]
        self.assertIsNotNone(run.gate(self.key, rc, changed, self.digests))

    def test_nonzero_exit_fails(self):
        rc, stdout = run.call(self.main, self.argv)
        self.assertIsNotNone(run.gate(self.key, 3, stdout, self.digests))
        # alpha21 >= alpha1 - 1 is invalid input: the CLI exits 2.
        rc, stdout = run.call(self.main, workloads.argv("verify", (5, 5, 3, 2, 4)))
        self.assertEqual(rc, 2)
        self.assertIsNotNone(run.gate("unstored", rc, stdout, self.digests))

    def test_unstored_op_is_checked_on_status_only(self):
        self.assertIsNone(run.gate("unstored", 0, "anything", self.digests))


class SpanArithmeticTest(unittest.TestCase):
    # op [0,10] > a [1,4]; op > b [5,9] > c [6,8]
    SPANS = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 8.0, 2, 0],
    ]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 3.0, 2.0, 2.0])

    def test_outer_ms_counts_nested_spans_once(self):
        spans = self.SPANS + [["b", 6.5, 7.0, 3, 0]]
        self.assertEqual(tracing.outer_ms(spans, {"b"}), 4000.0)
        self.assertEqual(tracing.outer_ms(spans, {"a", "c"}), 5000.0)


class TailTest(unittest.TestCase):
    def check(self, n, pct, beyond):
        values = [float(i) for i in range(n)]
        got = run.tail(values[::-1])
        self.assertEqual(got, (pct, values[n - beyond - 1], beyond))

    def test_ladder(self):
        self.check(20, 50.0, 10)
        self.check(50, 75.0, 12)
        self.check(237, 95.0, 11)
        self.check(784, 95.0, 39)
        self.check(1000, 99.0, 10)
        self.check(999, 95.0, 49)
        self.check(10000, 99.9, 10)

    def test_too_few_samples(self):
        with self.assertRaises(run.BenchError):
            run.tail([1.0] * 19)


class TracedRunTest(unittest.TestCase):
    def traced(self, argv):
        package = run.import_program()
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            rc, stdout = tracer.run_op(0, run.call, package.cli.main, argv)
        finally:
            tracer.uninstall()
        self.assertEqual(rc, 0)
        return tracer, stdout

    def test_slow_tuple_counts(self):
        """(6,6,2,4,4): 1296 s-pair reductions, 1247 of them to zero.

        These are the figures of the engine this benchmark was written against.
        """
        argv = workloads.argv("verify", (6, 6, 2, 4, 4))
        first, out1 = self.traced(argv)
        second, out2 = self.traced(argv)
        self.assertEqual(first.counts, second.counts)
        self.assertEqual(run.digest(out1), run.load_digests()[run.op_key(argv)])
        self.assertEqual(out1, out2)
        self.assertEqual(first.counts["stdbasis.nf_mora.calls"], 1296)
        self.assertEqual(first.counts["stdbasis.nf_mora.zero"], 1247)

    def test_uninstall_restores_the_package(self):
        package = run.import_program()
        before = package.stdbasis.nf_mora, package.poly.Polynomial.__init__
        tracer = tracing.Tracer()
        tracer.install(package)
        tracer.uninstall()
        self.assertEqual((package.stdbasis.nf_mora, package.poly.Polynomial.__init__), before)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        """Only BENCHMARK.json and perfbench/: exit non-zero and print no result."""
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "family_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        for line in done.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)
