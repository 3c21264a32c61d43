"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: they start
worker processes and patch jetcalc's modules.
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import Worker  # noqa: E402
from tracer import CoverageError, Tracer, self_times  # noqa: E402


def deadline() -> float:
    return time.perf_counter() + 120


ROOT_ARGV = ["root", "xi^5 + b*xi^3 + f(u)*xi + f'(u)*u_x", "--n", "5", "--prec", "8"]


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # 0 [0, 10]
        # +- 1 [1, 3]
        # +- 2 [4, 9]
        #    +- 3 [5, 6]
        #    +- 4 [6, 8.5]
        #       +- 5 [7, 8]
        # 6 [11, 12]            a second root
        parents = [-1, 0, 0, 2, 2, 4, -1]
        starts = [0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 11.0]
        ends = [10.0, 3.0, 9.0, 6.0, 8.5, 8.0, 12.0]
        self.assertEqual(self_times(parents, starts, ends),
                         [3.0, 2.0, 1.5, 1.0, 1.5, 1.0, 1.0])

    def test_collect_outermost_and_layer_entries(self):
        tracer = Tracer()

        def leaf(n):
            return n

        def recursive(n):
            return leaf(n) if n == 0 else recursive(n - 1)

        leaf = tracer._wrap("poly.leaf", 0, leaf, None)
        recursive = tracer._wrap("poly.recursive", 0, recursive, None)
        top = tracer._wrap("expr.top", 1, lambda: recursive(2) + recursive(1), None)
        top()
        totals = tracer.collect()
        self.assertEqual(totals["calls"], {"poly.leaf": 2, "poly.recursive": 5,
                                           "expr.top": 1})
        self.assertEqual(totals["outer"], {"poly.leaf": 2, "poly.recursive": 2,
                                           "expr.top": 1})
        self.assertEqual(totals["layer_entries"]["poly"], 2)
        self.assertEqual(totals["layer_entries"]["expr"], 1)
        self.assertEqual(tracer.collect()["calls"]["expr.top"], 0)


class CoverageTest(unittest.TestCase):
    def test_clean_install_then_uninstall(self):
        import jetcalc.series
        original = jetcalc.series.total_x
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(jetcalc.series.total_x, original)
            self.assertEqual(tracer.unwrapped_bindings(), [])
        finally:
            tracer.uninstall()
        self.assertIs(jetcalc.series.total_x, original)

    def test_missed_alias_is_reported(self):
        import jetcalc.calculus
        import jetcalc.series
        original = jetcalc.calculus.total_x
        # a binding the installer cannot rebind: a dispatch table in a module
        jetcalc.series._BENCH_TABLE = {"dx": original}
        tracer = Tracer()
        try:
            with self.assertRaises(CoverageError) as caught:
                tracer.install()
            self.assertIn("calculus.total_x as dx in a dict", str(caught.exception))
            self.assertIs(jetcalc.series.total_x, original)
        finally:
            del jetcalc.series._BENCH_TABLE

    def test_alias_planted_after_install_is_reported(self):
        import jetcalc.calculus
        import jetcalc.kawahara
        tracer = Tracer()
        tracer.install()
        try:
            jetcalc.kawahara._bench_alias = tracer._originals["calculus.euler"]
            self.assertEqual(tracer.unwrapped_bindings(),
                             ["calculus.euler as _bench_alias in jetcalc.kawahara"])
        finally:
            del jetcalc.kawahara._bench_alias
            tracer.uninstall()


class TracingChangesNoResultTest(unittest.TestCase):
    COMMANDS = [
        ["kawahara", "verify", "--theorem", "1", "--f", "log:gamma,delta,c"],
        ["kawahara", "verify", "--theorem", "3", "--f", "linear:alpha,beta"],
        ["kawahara", "verify", "--theorem", "2", "--f", "quadratic"],
        ROOT_ARGV,
        ["euler", "u_x^2/2"],
        ["dx", "x*u/(u+1)"],
        ["--json", "adjoint", "u*xi^2"],
        ["euler", "u_x + "],
    ]

    def replies(self, trace: int) -> list[tuple[int, str]]:
        with Worker(trace, deadline()) as w:
            return [(r["exit"], r["report"]) for r in
                    (w.request({"argv": argv}) for argv in self.COMMANDS)]

    def test_byte_identical_reports(self):
        untraced = self.replies(0)
        traced = self.replies(1)
        self.assertEqual([code for code, _ in untraced], [0, 1, 0, 0, 0, 0, 0, 2])
        self.assertEqual(traced, untraced)


class RootRoundTripTest(unittest.TestCase):
    def test_printed_root_round_trips_and_a_wrong_one_does_not(self):
        a_text = ROOT_ARGV[1]
        with Worker(0, deadline()) as w:
            report = w.request({"argv": ROOT_ARGV})["report"]
            doc = {"a_text": a_text, "report": report, "n": 5, "prec": 8}
            self.assertIsNone(w.request({"root_check": doc})["failure"])
            doc["report"] = report.replace("(1/5*b)*xi^(-1)", "(1/4*b)*xi^(-1)")
            self.assertIn("differs", w.request({"root_check": doc})["failure"])


if __name__ == "__main__":
    unittest.main()
