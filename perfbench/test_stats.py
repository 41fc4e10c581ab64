"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 4.0, 2.0, 8.0, 6.0, 5.0, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, stats.median(values))
        self.assertEqual(stats.median(values), 5.5)

    def test_single_value_has_no_spread(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(stats.relative_spread([4.0]), 0.0)

    def test_relative_spread_is_quartile_distance_over_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / q2)


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50.0), 50)
        self.assertEqual(stats.percentile(values, 99.0), 99)
        self.assertEqual(stats.percentile(values, 100.0), 100)
        self.assertEqual(stats.percentile([3.0], 99.0), 3.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50.0)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(999, 99.0), 9)
        self.assertEqual(stats.samples_beyond(100, 50.0), 50)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))
        # 99.9 needs 10 000 samples and is never above the wanted one.
        self.assertEqual(stats.tail_percentile(10000, wanted=99.9), 99.9)
        self.assertEqual(stats.tail_percentile(10000), 99.0)

    def test_runner_reports_p99_only_with_its_tail(self):
        def tail(ops):
            raw = {"samples": {"op_ms": [float(i) for i in range(ops)],
                               "setup_s": [0.1], "ops_per_s": [100.0]},
                   "values": {"peak_rss_mb": 10.0}, "checks": {},
                   "attempted": ops, "failed": 0}
            return run.end_to_end(raw)[2]
        self.assertEqual(tail(1000)["percentile"], 99.0)
        self.assertEqual(tail(1000)["beyond"], 10)
        self.assertEqual(tail(999)["percentile"], 95.0)


class Segments(unittest.TestCase):
    def test_whole_segments_only(self):
        self.assertEqual(stats.segments(list(range(7)), 3), [[0, 1, 2], [3, 4, 5]])
        self.assertEqual(stats.segments(list(range(2)), 3), [])

    def test_segmented_rate(self):
        done = [0.001 * (i + 1) for i in range(2000)]  # 1000 ops per second
        self.assertAlmostEqual(stats.segmented_rate(done), 1000.0)


class Verdicts(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_is_better(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1), "better")
        self.assertEqual(stats.verdict(change, self.parent, "higher", 0.1), "better")

    def test_gain_needs_nine_tenths_of_pairs(self):
        change = [v * 0.8 for v in self.parent]
        change[0], change[1] = 150.0, 150.0  # loses 2 of 10 pairs
        self.assertNotEqual(stats.verdict(self.parent, change, "lower", 0.5), "better")

    def test_gain_must_exceed_parent_quartile_distance(self):
        change = [v - 0.1 for v in self.parent]  # wins every pair, by little
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1), "same")

    def test_regression_beyond_bound_is_worse(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1), "worse")
        self.assertEqual(stats.verdict(self.parent, change, "higher", 0.1), "better")

    def test_small_regression_within_bound_is_same(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1), "same")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1), "unresolved")

    def test_noisy_but_every_change_run_better_is_not_unresolved(self):
        noisy = [100.0, 130.0, 110.0, 120.0, 125.0, 105.0, 115.0, 100.0, 130.0, 120.0]
        change = [v * 0.5 for v in noisy]
        self.assertIn(stats.verdict(noisy, change, "lower", 0.05), ("better", "same"))
        self.assertNotEqual(stats.verdict(noisy, change, "lower", 0.05), "unresolved")

    def test_noisy_and_every_change_run_worse_is_worse(self):
        noisy = [100.0, 130.0, 110.0, 120.0, 125.0, 105.0, 115.0, 100.0, 130.0, 120.0]
        change = [v * 2.0 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.05), "worse")

    def test_identical_sets_are_same(self):
        self.assertEqual(stats.verdict(self.parent, self.parent, "lower", 0.1), "same")
        ones = [1.0] * 10
        self.assertEqual(stats.verdict(ones, ones, "higher", 0.01), "same")

    def test_bad_direction_rejected(self):
        with self.assertRaises(ValueError):
            stats.verdict([1.0], [1.0], "up", 0.1)


def records(seed_values, name="ops_per_s"):
    """Run records as run.py prints them, from (seed, value) pairs."""
    return [{"seed": seed, "digest": "d%d" % seed,
             "metrics": {name: {"value": value, "unit": "1/s"}}}
            for seed, value in seed_values]


class Pairing(unittest.TestCase):
    def test_repeats_of_a_seed_pair_in_order(self):
        parent = records([(1, 10.0), (1, 11.0), (1, 12.0)])
        change = records([(1, 20.0), (1, 21.0), (1, 22.0)])
        pairs = compare.paired(parent, change)
        self.assertEqual([(p["metrics"]["ops_per_s"]["value"], c["metrics"]["ops_per_s"]["value"])
                          for p, c in pairs], [(10.0, 20.0), (11.0, 21.0), (12.0, 22.0)])

    def test_uneven_repeats_keep_common_pairs(self):
        parent = records([(1, 10.0), (2, 5.0), (1, 11.0), (1, 12.0)])
        change = records([(2, 6.0), (1, 20.0), (3, 7.0), (1, 21.0)])
        pairs = compare.paired(parent, change)
        self.assertEqual([(p["seed"], c["seed"]) for p, c in pairs], [(1, 1), (1, 1), (2, 2)])

    def test_no_common_seed_pairs_by_position(self):
        pairs = compare.paired(records([(1, 1.0), (2, 2.0)]), records([(3, 3.0)]))
        self.assertEqual([(p["seed"], c["seed"]) for p, c in pairs], [(1, 3)])

    def test_verdict_keeps_every_repeat_of_one_seed(self):
        # Ten noisy repeats of seed 1 on each side: the spread is wider
        # than the bound, which a single pair of runs would hide.
        metric = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        parent = records((1, v) for v in noisy)
        change = records((1, v * 0.95) for v in noisy)
        pairs = compare.paired(parent, change)
        self.assertEqual(len(pairs), 10)
        self.assertEqual(compare.metric_verdict(parent, change, pairs, metric), "unresolved")
        self.assertEqual(compare.metric_verdict(parent[-1:], change[-1:], pairs[-1:], metric),
                         "same")

    def test_verdict_counts_wins_over_given_pairs(self):
        parent = [100.0] * 10
        change = [80.0] * 10
        # Positional pairs: the change wins all ten.
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "better")
        # Only one pair matched, and the change loses it.
        self.assertNotEqual(stats.verdict(parent, change, "lower", 0.1, [(100.0, 120.0)]),
                            "better")


if __name__ == "__main__":
    unittest.main()
