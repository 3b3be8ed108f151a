"""Tests of the benchmark's pure helpers.

    python3 -B -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest

import metrics


class TailTest(unittest.TestCase):
    def test_eleventh_largest_has_exactly_ten_beyond(self):
        samples = list(range(1, 101))
        percentile, value = metrics.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for x in samples if x > value), 10)
        self.assertEqual(percentile, 90.0)

    def test_order_does_not_matter(self):
        samples = [5, 3, 9, 1, 7, 2, 8, 6, 4, 10, 11, 12]
        self.assertEqual(metrics.tail(samples), metrics.tail(sorted(samples)))

    def test_percentile_rises_with_sample_count(self):
        self.assertAlmostEqual(metrics.tail(range(20))[0], 50.0)
        self.assertAlmostEqual(metrics.tail(range(1000))[0], 99.0)
        self.assertAlmostEqual(metrics.tail(range(10000))[0], 99.9)

    def test_ten_or_fewer_samples_report_the_maximum(self):
        self.assertEqual(metrics.tail([4, 1, 3]), (100.0, 4))
        self.assertEqual(metrics.tail(range(10)), (100.0, 9))
        self.assertEqual(metrics.tail(range(11)), (100 * 1 / 11, 0))


class StreamTest(unittest.TestCase):
    def test_streams_are_pure_functions_of_the_seed(self):
        self.assertEqual(metrics.hot_stream(7, 5), metrics.hot_stream(7, 5))
        self.assertEqual(metrics.campaign_stream(7, 500), metrics.campaign_stream(7, 500))
        self.assertNotEqual(metrics.hot_stream(7, 5)[1], metrics.hot_stream(8, 5)[1])
        self.assertNotEqual(metrics.campaign_stream(7, 500)[1], metrics.campaign_stream(8, 500)[1])

    def test_hot_stream_visits_every_warm_point_once_per_round(self):
        warmup, timed = metrics.hot_stream(3, 4)
        self.assertEqual(len(warmup), 24)
        self.assertEqual(len(set(warmup)), 24)
        for r in range(4):
            self.assertEqual(sorted(timed[24 * r : 24 * (r + 1)]), sorted(warmup))

    def test_campaign_seeds_never_repeat_nor_meet_the_warmup(self):
        for seed in (0, 1, 12345):
            warmup, timed = metrics.campaign_stream(seed, 3000)
            timed_seeds = metrics.campaign_seeds(timed)
            self.assertEqual(len(timed_seeds), 3000)
            self.assertEqual(len(set(timed_seeds)), 3000)
            self.assertFalse(set(timed_seeds) & set(metrics.campaign_seeds(warmup)))

    def test_campaign_warmup_is_the_same_work_for_every_seed(self):
        self.assertEqual(metrics.campaign_stream(1, 10)[0], metrics.campaign_stream(2, 10)[0])

    def test_campaign_widths_alternate(self):
        _, timed = metrics.campaign_stream(5, 6)
        widths = [json.loads(l)["query"]["width"] for l in timed]
        self.assertEqual(widths, [4, 8, 4, 8, 4, 8])


class TilingTest(unittest.TestCase):
    def test_residual_is_the_whole_minus_the_layers(self):
        residual, problems = metrics.tiling(10.0, {"a": 6.0, "b": 3.0}, 9.0, 0.1)
        self.assertAlmostEqual(residual, 1.0)
        self.assertEqual(problems, [])

    def test_layers_that_miss_their_measured_total_fail(self):
        _, problems = metrics.tiling(10.0, {"a": 6.0, "b": 3.0}, 8.0, 0.1)
        self.assertEqual(len(problems), 1)
        self.assertIn("replay measured", problems[0])

    def test_layers_exceeding_the_whole_fail_beyond_tolerance(self):
        residual, problems = metrics.tiling(10.0, {"a": 10.5}, 10.5, 0.1)
        self.assertAlmostEqual(residual, -0.5)
        self.assertEqual(problems, [])
        residual, problems = metrics.tiling(10.0, {"a": 11.5}, 11.5, 0.1)
        self.assertAlmostEqual(residual, -1.5)
        self.assertEqual(len(problems), 1)
        self.assertIn("exceed", problems[0])


class SpreadTest(unittest.TestCase):
    def test_spread_is_quartile_distance_over_median(self):
        values = [9.0, 10.0, 10.0, 11.0, 12.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.spread(values), (q3 - q1) / 10.0)
        self.assertEqual(metrics.spread([3.0, 3.0, 3.0, 3.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
