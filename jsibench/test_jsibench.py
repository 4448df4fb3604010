"""Tests of the benchmark's own helpers: the statistics and the seeded
generator. Run with

    python3 -m unittest discover -s jsibench -p 'test_*.py'

The end-to-end self-check is `python3 jsibench/run.py --smoke`.
"""

import math
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = stats.quartiles(xs)
        self.assertEqual([q1, q2, q3], statistics.quantiles(xs, n=4))
        self.assertEqual(q2, stats.median(xs))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([7.5]), (7.5, 7.5, 7.5))

    def test_relative_spread(self):
        xs = [90.0, 100.0, 110.0, 100.0, 95.0, 105.0]
        q1, q2, q3 = stats.quartiles(xs)
        self.assertAlmostEqual(stats.relative_spread(xs), (q3 - q1) / q2)
        self.assertEqual(stats.relative_spread([0.0, 0.0]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_too_few_samples_report_no_tail(self):
        self.assertIsNone(stats.tail(list(range(10))))

    def test_forty_samples_support_p75_only(self):
        xs = list(range(1, 41))
        # p75 by nearest rank is the 30th value, with 10 samples beyond.
        self.assertEqual(stats.tail(xs), (75.0, 30))

    def test_two_hundred_samples_support_p95(self):
        xs = list(range(1, 201))
        p, value = stats.tail(xs)
        self.assertEqual(p, 95.0)
        self.assertEqual(value, 190)
        _, beyond = stats.nearest_rank(xs, p)
        self.assertGreaterEqual(beyond, 10)

    def test_highest_percentile_with_ten_beyond_is_chosen(self):
        xs = list(range(1, 1001))
        self.assertEqual(stats.tail(xs)[0], 99.0)  # p99.9 has only 1 beyond
        self.assertEqual(stats.tail(list(range(1, 10001)))[0], 99.9)

    def test_failures_count_beyond_any_limit(self):
        xs = [10.0] * 95 + [math.inf] * 105
        self.assertEqual(stats.tail(xs), (95.0, math.inf))
        self.assertEqual(stats.median([1.0, math.inf, math.inf]), math.inf)

    def test_summarize_carries_count_and_tail(self):
        s = stats.summarize(list(range(1, 41)))
        self.assertEqual(s["n"], 40)
        self.assertEqual((s["tail_p"], s["tail"]), (75.0, 30))
        self.assertNotIn("tail_p", stats.summarize([1.0, 2.0]))


class Generator(unittest.TestCase):
    def generate(self, workload, seed):
        with tempfile.TemporaryDirectory() as d:
            manifest = gen.generate(workload, seed, d)
            files = {p.name: p.read_bytes() for p in Path(d).iterdir()
                     if p.name != "manifest.txt"}
            lines = [ln.split(" ", 1)[0] for ln in
                     manifest.read_text().splitlines()]
            order = [ln for ln in manifest.read_text().splitlines()
                     if ln.startswith("order ")]
            return files, lines, order

    def test_same_seed_same_inputs(self):
        for w in gen.WORKLOADS:
            self.assertEqual(self.generate(w, 7), self.generate(w, 7), w)

    def test_seed_moves_seeded_workloads_only(self):
        for w in ("sweep_rc", "sweep_low_swing", "serve_jobs"):
            self.assertNotEqual(self.generate(w, 1)[0], self.generate(w, 2)[0])
        self.assertEqual(self.generate("table5_n64", 1)[0],
                         self.generate("table5_n64", 2)[0])

    def test_table5_is_the_shipped_file(self):
        files, _, _ = self.generate("table5_n64", 3)
        self.assertEqual(files["table5_n64.json"],
                         (gen.TEMPLATES / "table5_n64.scenario.json")
                         .read_bytes())

    def test_serve_mix_has_one_sweep_per_block(self):
        _, _, order = self.generate("serve_jobs", 5)
        idx = [int(x) for x in order[0].split()[1:]]
        for b in range(0, len(idx), gen.SERVE_BLOCK):
            sweeps = [i for i in idx[b:b + gen.SERVE_BLOCK]
                      if i >= gen.SERVE_CAMPAIGNS]
            self.assertEqual(len(sweeps), 1)

    def test_sweep_sizes_sit_on_their_side_of_the_threshold(self):
        # sweep_rc must take the aggregate fold (> 128 dies, not a chunk
        # multiple); sweep_low_swing the per-unit transcript (<= 128).
        rc = gen._template("yield_mc_sweep")["sweep"]
        dies = gen.SWEEP_RC_SAMPLES * (len(rc["nd_vhthr_frac"]) *
                                       len(rc["sd_budget_ps"]))
        self.assertGreater(dies, 128)
        self.assertNotEqual(dies % 64, 0)
        ls = gen._template("low_swing_sweep")["sweep"]
        self.assertLessEqual(ls["samples"] * len(ls["nd_vhthr_frac"]) *
                             len(ls["sd_budget_ps"]), 128)


if __name__ == "__main__":
    unittest.main()
