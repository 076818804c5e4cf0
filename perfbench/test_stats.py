"""Tests of the benchmark's statistics and comparison rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 4.0)

    def test_quartiles_of_one_value(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([7.0, 7.0, 7.0]), 0.0)

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0, 16.0]), 4.0)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class WorseningAndBounds(unittest.TestCase):
    def test_worsening_follows_direction(self):
        self.assertAlmostEqual(stats.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 9.0, "lower"), -0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 9.0, "higher"), 0.1)
        with self.assertRaises(ValueError):
            stats.worsening(1.0, 1.0, "sideways")

    def test_within_bound_uses_medians(self):
        parent = [10.0, 10.0, 10.0]
        self.assertTrue(stats.within_bound(parent, [11.0, 10.9, 99.0],
                                           "lower", 0.1))
        self.assertFalse(stats.within_bound(parent, [11.2, 11.1, 11.3],
                                            "lower", 0.1))
        self.assertTrue(stats.within_bound(parent, [9.0, 9.5, 9.2],
                                           "higher", 0.1))


class WinRule(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        self.assertEqual(stats.wins([5, 5, 5, 5], [4, 5, 6, 4], "lower"),
                         (2, 4))

    def test_unequal_sides_are_refused(self):
        with self.assertRaises(ValueError):
            stats.wins([1, 2], [1], "lower")

    def test_gain_needs_nine_tenths_of_pairs(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        faster = [v - 1.0 for v in parent]
        self.assertTrue(stats.claims_gain(parent, faster, "lower"))
        eight = faster[:8] + parent[8:]  # two ties: 8 of 10 won
        self.assertFalse(stats.claims_gain(parent, eight, "lower"))

    def test_gain_needs_medians_apart_by_more_than_parent_spread(self):
        parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
        slightly = [v - 0.1 for v in parent]  # wins every pair, tiny shift
        self.assertFalse(stats.claims_gain(parent, slightly, "lower"))


class Verdicts(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def test_regression_beyond_bound(self):
        slower = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, slower, "lower", 0.1),
                         "regression")

    def test_ok_within_bound(self):
        same = list(reversed(self.parent))
        self.assertEqual(stats.verdict(self.parent, same, "lower", 0.1), "ok")

    def test_gain(self):
        faster = [v * 0.8 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, faster, "lower", 0.1),
                         "gain")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        shuffled = noisy[5:] + noisy[:5]
        self.assertEqual(stats.verdict(noisy, shuffled, "lower", 0.1),
                         "unresolved")


class Comparison(unittest.TestCase):
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [
                {"name": "cpu_s", "unit": "s", "better": "lower",
                 "bound": 0.1},
                {"name": "cut", "unit": "edges", "better": "lower",
                 "bound": 0.1}]}

    @staticmethod
    def record(seed, wall, cut, cpu="cpu A"):
        return {"workload": "w", "seed": seed, "trace": 0,
                "host": {"nproc": 4, "cpu_model": cpu},
                "metrics": {"cpu_s": {"value": wall, "unit": "s"},
                            "cut": {"value": cut, "unit": "edges"}}}

    def test_pairs_by_seed(self):
        parent = [self.record(s, 1.0 + s, 100) for s in (1, 2, 3)]
        change = [self.record(s, 1.0 + s, 100) for s in (3, 2, 4)]
        p, c = compare.paired(parent, change, "w", "cpu_s")
        self.assertEqual(p, [3.0, 4.0])
        self.assertEqual(c, [3.0, 4.0])

    def test_same_host_compares_every_metric(self):
        parent = [self.record(s, 1.0, 100) for s in range(10)]
        change = [self.record(s, 1.5, 100) for s in range(10)]
        rows = compare.compare(parent, change, self.spec)
        verdicts = {metric: v for _, metric, _, _, v in rows}
        self.assertEqual(verdicts, {"cpu_s": "regression", "cut": "ok"})

    def test_other_host_compares_only_deterministic_metrics(self):
        parent = [self.record(s, 1.0, 100) for s in range(10)]
        change = [self.record(s, 1.5, 100, cpu="cpu B") for s in range(10)]
        self.assertFalse(compare.same_host(parent, change))
        rows = compare.compare(parent, change, self.spec)
        self.assertEqual([metric for _, metric, _, _, _ in rows], ["cut"])


class BenchmarkSpec(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py reports."""

    def setUp(self):
        path = ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        self.spec = json.loads(path.read_text())

    def test_end_to_end_metrics_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer_metrics_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
