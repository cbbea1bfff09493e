"""Tests of the benchmark's own helpers and of BENCHMARK.json's contract.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_hundred_samples_give_p90_with_ten_beyond(self):
        value, pct, n = stats.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(n, 100)

    def test_percentile_follows_the_sample_count(self):
        value, pct, n = stats.tail([float(v) for v in range(200)])
        self.assertEqual(value, 189.0)  # 190..199 lie beyond it
        self.assertAlmostEqual(pct, 95.0)
        self.assertEqual(n, 200)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        self.assertEqual(stats.tail(values)[0], 1.0)

    def test_ties_never_count_as_beyond(self):
        values = [1.0] * 5 + [2.0] * 3 + [3.0] * 10
        value, pct, _ = stats.tail(values)
        self.assertEqual(value, 2.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 8 / 18)

    def test_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10)
        self.assertEqual(stats.tail(list(range(11)))[0], 0)

    def test_all_tied_has_no_tail(self):
        with self.assertRaises(ValueError):
            stats.tail([4.0] * 30)


class HarmonicMeanTest(unittest.TestCase):
    def test_rates_average_harmonically(self):
        # 1 edge at 1/s and 1 edge at 3/s take 1 + 1/3 s for 2 edges.
        self.assertAlmostEqual(stats.harmonic_mean([1.0, 3.0]), 1.5)

    def test_equal_rates(self):
        self.assertAlmostEqual(stats.harmonic_mean([2e9] * 64) / 2e9, 1.0)

    def test_rejects_empty_and_non_positive(self):
        for bad in ([], [1.0, 0.0], [-1.0]):
            with self.assertRaises(ValueError):
                stats.harmonic_mean(bad)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Due at 0.0 and 0.1; the second was submitted 5 ms late.
        latency, late = stats.open_loop([0.0, 0.1], [0.0, 0.105],
                                        [0.020, 0.010])
        self.assertEqual(len(latency), 2)
        self.assertAlmostEqual(latency[0], 20.0)
        self.assertAlmostEqual(latency[1], 15.0)
        self.assertAlmostEqual(late[0], 0.0)
        self.assertAlmostEqual(late[1], 5.0)

    def test_a_stall_is_charged_to_every_query_it_delays(self):
        # The generator stalled 50 ms: queries due during the stall were
        # submitted together, and each carries its own wait.
        due = [0.00, 0.01, 0.02, 0.03]
        submit = [0.05, 0.05, 0.05, 0.05]
        latency, late = stats.open_loop(due, submit, [0.001] * 4)
        self.assertEqual([round(x, 6) for x in late], [50.0, 40.0, 30.0, 20.0])
        self.assertEqual([round(x, 6) for x in latency], [51.0, 41.0, 31.0, 21.0])

    def test_rejects_mismatched_or_negative(self):
        with self.assertRaises(ValueError):
            stats.open_loop([0.0], [0.0, 1.0], [0.0])
        with self.assertRaises(ValueError):
            stats.open_loop([0.0], [0.0], [-0.001])


class FailureShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failure_share(200, 0), 0.0)
        self.assertAlmostEqual(stats.failure_share(200, 5), 0.025)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                stats.failure_share(attempted, failed)


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [9.0, 10.0, 10.5, 11.0, 12.0]
        q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)


class BenchmarkJsonTest(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_workloads_match(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))

    def test_metrics_and_units_match(self):
        for section, table in (("end_to_end", run.END_TO_END),
                               ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.bench[section]}
            self.assertEqual(declared, table, section)

    def test_bounds_and_setup_metric(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
