"""Self-tests of the benchmark's own arithmetic and generators.

    python3 perfbench/selftest.py

Covers the percentile rule, self-time arithmetic, the deadline path, the
output checks, and that one seed generates identical inputs.
"""

from __future__ import annotations

import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from jobs import (  # noqa: E402
    QUADRATIC_CLASSES,
    Job,
    Workload,
    check,
    single_quadratic,
    sumset,
    template,
)
from tracing import Span, Tracer  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples: the true p90 has 10 beyond
        self.assertEqual(run.quantile(values, 0.9), 90)
        values = list(range(1, 51))  # 50 samples: lowered to the 40th value
        self.assertEqual(run.quantile(values, 0.9), 40)
        self.assertEqual(sum(v > run.quantile(values, 0.9) for v in values), 10)

    def test_small_samples_fall_back_to_median(self):
        self.assertEqual(run.quantile([5, 1, 3], 0.9), 3)
        self.assertEqual(run.quantile(list(range(10)), 0.9), 4.5)
        self.assertEqual(run.quantile([4, 2, 9, 7], 0.5), 5.5)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        tracer = Tracer()
        spans = [
            ("cli.main", 0.0, 10.0, -1),
            ("verifier.exact_signature", 1.0, 7.0, 0),
            ("quadratics.evaluate", 2.0, 3.0, 1),
            ("quadratics.evaluate", 4.0, 6.0, 1),
            ("formats.report_to_json", 8.0, 9.5, 0),
        ]
        for name, start, end, parent in spans:
            span = Span(name, start, parent, 0)
            span.end = end
            tracer.spans.append(span)
        out = tracer.per_layer()
        self.assertAlmostEqual(out["cli.main.self_s"], 10.0 - 6.0 - 1.5)
        self.assertAlmostEqual(out["verifier.exact_signature.self_s"], 6.0 - 3.0)
        self.assertAlmostEqual(out["quadratics.evaluate.self_s"], 3.0)
        self.assertEqual(out["quadratics.evaluate.calls"], 2)
        self.assertEqual(out["signatures.lower_bound.calls"], 0)

    def test_lower_bound_counted_inside_decompose(self):
        tracer = Tracer()
        for name, parent in [("signatures.decompose_min_cost", -1),
                             ("signatures.lower_bound", 0),
                             ("signatures.lower_bound", 0),
                             ("signatures.lower_bound", -1)]:
            tracer.spans.append(Span(name, 0.0, parent, 0))
        out = tracer.per_layer()
        self.assertEqual(out["signatures.lower_bound.per_decompose"], 2.0)


class Deadline(unittest.TestCase):
    def test_deadline_stops_a_busy_job(self):
        import signal

        old = signal.signal(signal.SIGALRM, run._on_alarm)
        try:
            def spin(argv):
                while True:
                    sum(range(1000))

            code, _, elapsed = run.run_job(spin, [], 0.2)
            self.assertEqual(code, "timeout")
            self.assertGreaterEqual(elapsed, 0.2)
            self.assertLess(elapsed, 1.0)
            code, out, _ = run.run_job(lambda argv: print("hi") or 0, [], 0.2)
            self.assertEqual((code, out), (0, "hi\n"))
            time.sleep(0.3)  # the timer was cancelled: no late alarm
        finally:
            signal.signal(signal.SIGALRM, old)

    def test_exceptions_and_exits_are_captured(self):
        def boom(argv):
            raise ValueError("bad")

        def leave(argv):
            raise SystemExit(2)

        self.assertEqual(run.run_job(boom, [], 1.0)[0], "exception ValueError: bad")
        self.assertEqual(run.run_job(leave, [], 1.0)[0], 2)


class Generation(unittest.TestCase):
    def rounds(self, name, seed, count=2):
        with tempfile.TemporaryDirectory() as tmp:
            w = Workload(name, seed, Path(tmp))
            jobs = w.prologue()
            for _ in range(count):
                jobs += w.next_round()
            files = {p.name: p.read_text() for p in Path(tmp).iterdir()}
        argv = [[a.replace(tmp, "<dir>") for a in j.argv] for j in jobs]
        return argv, [j.truth for j in jobs], files

    def test_same_seed_same_inputs(self):
        for name in ("certify", "probe", "search"):
            with self.subTest(name):
                self.assertEqual(self.rounds(name, 7), self.rounds(name, 7))
                self.assertNotEqual(self.rounds(name, 7)[2], self.rounds(name, 8)[2])

    def test_no_input_repeats(self):
        for name in ("certify", "probe", "search"):
            with self.subTest(name):
                argv, _, files = self.rounds(name, 3, count=6)
                contents = [f for n, f in files.items() if not n.endswith(".spec.json")]
                self.assertEqual(len(contents), len(set(contents)))
                construct = [tuple(a) for a in argv if a[0] in ("construct", "decompose")
                             and "0,x" not in ",".join(a)]
                self.assertEqual(len(construct), len(set(construct)))

    def test_truths_from_construction(self):
        self.assertEqual(template((0, 2, 5)).truth, (0, 2, 5))
        self.assertEqual(len(template((1, 3, 4, 6)).cons), 3)
        self.assertEqual(sumset((0, 2), (0, 1)), (0, 1, 2, 3))
        import random

        rng = random.Random(0)
        for kind in QUADRATIC_CLASSES:
            s = single_quadratic(rng, 5, kind)
            self.assertEqual(len(s.cons), 1)
            if kind == "empty":
                self.assertIsNone(s.truth)
            else:
                self.assertLessEqual(max(s.truth), 5)


class Checks(unittest.TestCase):
    def test_probe_overclaim_is_wrong_underclaim_is_ok(self):
        job = Job("probe", ["verify"], (0, 2, 5), 5)
        under = '{"signature": [0, 5], "method": "probe", "witnesses": {"0": [], "5": []}}'
        over = '{"signature": [0, 1, 5], "method": "probe", ' \
               '"witnesses": {"0": [], "1": [], "5": []}}'
        verdict = check(job, 0, under)
        self.assertEqual((verdict.status, verdict.found, verdict.true), ("ok", 2, 3))
        self.assertEqual(check(job, 0, over).status, "wrong")

    def test_malformed_needs_exit_2(self):
        job = Job("malformed", ["verify"])
        self.assertEqual(check(job, 2, "").status, "ok")
        self.assertEqual(check(job, 1, "").status, "fail")

    def test_decompose_tree_must_sum_to_signature(self):
        job = Job("decompose", ["decompose"], (0, 1, 2, 3), 3)
        good = '{"tree": {"sum": [{"leaf": [0, 1]}, {"leaf": [0, 2]}]}, ' \
               '"cost": 2, "leaf_count": 2}'
        bad = '{"tree": {"sum": [{"leaf": [0, 1]}, {"leaf": [0, 3]}]}, ' \
              '"cost": 2, "leaf_count": 2}'
        self.assertEqual(check(job, 0, good).status, "ok")
        self.assertEqual(check(job, 0, bad).status, "wrong")

    def test_lowerbound_certificate_must_cover(self):
        job = Job("lowerbound", ["lowerbound"], (0, 1, 2, 3), 3)
        self.assertEqual(check(job, 0, '2\n{"n": 3, "ds": [2, 1], "k": 2}').status, "ok")
        self.assertEqual(check(job, 0, '1\n{"n": 3, "ds": [2], "k": 1}').status, "wrong")

    def test_sdpa_header_must_match(self):
        job = Job("export", ["export"], (0, 2, 5), 5, 2, note="sdpa")
        self.assertEqual(check(job, 0, "5\n2\n4 2\n0 0 0 0 0\n").status, "ok")
        self.assertEqual(check(job, 0, "5\n3\n4 2 2\n0 0 0 0 0\n").status, "wrong")


if __name__ == "__main__":
    unittest.main()
