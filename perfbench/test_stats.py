"""Tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [float(v) for v in range(1, 101)]
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 90.1)
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 100.0)

    def test_median_matches_statistics_module(self):
        for values in ([3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0]):
            self.assertEqual(stats.median(values), statistics.median(values))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        stats.tail_percentile([1.0] * 100, 90)
        with self.assertRaises(ValueError):
            stats.tail_percentile([1.0] * 99, 90)
        with self.assertRaises(ValueError):
            stats.tail_percentile([1.0] * 999, 99)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class MeanAndRatioTest(unittest.TestCase):
    def test_per_key_medians(self):
        medians = stats.per_key_medians({"a": [3.0, 1.0, 2.0],
                                         "b": [10.0, 20.0]})
        self.assertEqual(medians, {"a": 2.0, "b": 15.0})

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0, 16.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([2.5]), 2.5)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])

    def test_geomean_shows_one_slow_kernel(self):
        base = [20.0, 8.0, 80.0, 27.0, 5.0]
        slow = list(base)
        slow[4] *= 1.3
        self.assertAlmostEqual(stats.geomean(slow) / stats.geomean(base),
                               1.3 ** (1 / 5))

    def test_ratio_base(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio(5, 0), 0.0)


class CoverageTest(unittest.TestCase):
    def test_union_of_overlapping_children(self):
        self.assertEqual(stats.coverage([(1, 4), (2, 6), (8, 9)], 0, 10), 6)

    def test_children_clipped_to_parent(self):
        self.assertEqual(stats.coverage([(-5, 2), (9, 20)], 0, 10), 3)
        self.assertEqual(stats.coverage([(11, 12)], 0, 10), 0)

    def test_self_time(self):
        self.assertEqual(stats.self_time(0, 10, [(2, 5), (4, 7)]), 5)
        self.assertEqual(stats.self_time(0, 10, []), 10)

    def test_frame_wait_never_negative(self):
        # Stage spans of one frame run on two workers at once, so their sum
        # exceeds the frame latency; the wait must still not go below 0.
        stages = [(0.0, 9.0), (0.5, 9.5), (1.0, 10.0), (-1.0, 11.0)]
        self.assertGreater(sum(e - s for s, e in stages), 10.0)
        self.assertEqual(stats.self_time(0.0, 10.0, stages), 0.0)
        for lo, hi in ((0.0, 1.0), (3.0, 3.5), (5.0, 20.0)):
            self.assertGreaterEqual(stats.self_time(lo, hi, stages), 0.0)


class ProbeScaleTest(unittest.TestCase):
    def test_items_take_the_mean_of_their_bracketing_probes(self):
        self.assertEqual(stats.probe_scales([30.0, 60.0, 30.0], [0, 2, 3],
                                            30.0),
                         [1.5, 1.5, 1.5])
        self.assertEqual(stats.probe_scales([10.0, 20.0, 40.0], [0, 1, 2],
                                            10.0), [1.5, 3.0])
        # Probes with no item between them give no scale.
        self.assertEqual(stats.probe_scales([10.0, 30.0, 50.0], [0, 0, 1],
                                            10.0), [4.0])

    def test_rejects_malformed_positions(self):
        for probes, at in (([1.0], [0]), ([1.0, 1.0], [0]),
                           ([1.0, 1.0], [1, 2]), ([1.0, 1.0, 1.0], [0, 2, 1])):
            with self.assertRaises(ValueError):
                stats.probe_scales(probes, at, 1.0)


REFERENCE = run.PROBE_REFERENCE_MS


class WorkloadMetricsTest(unittest.TestCase):
    def kernel_raw(self, slowdown=1.0):
        raw = {"launch_ms": {k: [2.0, 1.0, 3.0] for k in run.KERNELS},
               "model_ms": [0.5] * len(run.KERNELS),
               "probe_pass_ms": [REFERENCE] * 4}
        raw["launch_ms"]["bilateral9"] = [8.0, 8.0, 8.0]
        for key in raw["launch_ms"]:
            raw["launch_ms"][key] = [v * slowdown
                                     for v in raw["launch_ms"][key]]
        raw["probe_pass_ms"] = [v * slowdown for v in raw["probe_pass_ms"]]
        return raw

    def test_kernel_runs_rates_and_medians(self):
        named, throughput, latency = run.kernel_metrics(self.kernel_raw())
        self.assertEqual(named["launch_ms.bilateral9"], 8.0)
        self.assertEqual(named["launch_ms.sobel3"], 2.0)
        # Rounds take 16, 12 and 20 ms: five launches per 16 ms median.
        self.assertAlmostEqual(throughput, 5 / 0.016)
        self.assertAlmostEqual(named["launches_per_s"], 5 / 0.016)
        self.assertAlmostEqual(latency, (2.0 ** 4 * 8.0) ** 0.2)
        self.assertAlmostEqual(named["model_ms_geomean"], 0.5)
        self.assertEqual(named["host_probe_pass_ms"], REFERENCE)

    def test_kernel_runs_scaling_removes_host_slowdown(self):
        named, throughput, latency = run.kernel_metrics(self.kernel_raw(2.0))
        self.assertAlmostEqual(named["launches_per_s"], 5 / 0.032)
        self.assertAlmostEqual(throughput, 5 / 0.016)
        self.assertAlmostEqual(latency, (2.0 ** 4 * 8.0) ** 0.2)

    def test_kernel_runs_scales_each_round_by_its_probes(self):
        raw = self.kernel_raw()
        # Probes around rounds 0, 1 and 2 average 1x, 2x and 3x the
        # reference, and the rounds ran that much slower.
        raw["probe_pass_ms"] = [REFERENCE, REFERENCE, 3 * REFERENCE,
                                3 * REFERENCE]
        for key in raw["launch_ms"]:
            raw["launch_ms"][key][1] *= 2.0
            raw["launch_ms"][key][2] *= 3.0
        named, throughput, latency = run.kernel_metrics(raw)
        self.assertAlmostEqual(throughput, 5 / 0.016)
        self.assertAlmostEqual(latency, (2.0 ** 4 * 8.0) ** 0.2)
        self.assertAlmostEqual(named["launch_ms.sobel3"], 2.0)

    def isp_raw(self, slowdown=1.0):
        # Two Run calls of 33 frames retired 40 ms apart, except one stall.
        chunk = [40.0 * i for i in range(33)]
        stalled = chunk[:20] + [t + 400.0 for t in chunk[20:]]
        latencies = [float(v) for v in range(200)]
        return {"frames": 66, "wall_ms": 3000.0 * slowdown,
                "model_fps": 1500.0,
                "retired_at_ms": [[t * slowdown for t in chunk],
                                  [t * slowdown for t in stalled]],
                "latencies_ms": [[v * slowdown for v in latencies[:100]],
                                 [v * slowdown for v in latencies[100:]]],
                "probe_pass_ms": [REFERENCE * slowdown] * 3}

    def test_isp_frame_rate_over_windows(self):
        named, throughput, latency = run.isp_metrics(self.isp_raw())
        self.assertEqual(throughput, 25.0)
        self.assertEqual(named["frames_per_s"], 25.0)
        self.assertEqual(named["frames_per_s_overall"], 22.0)
        self.assertEqual(latency, 99.5)
        self.assertEqual(named["frame_p50_ms"], 99.5)
        self.assertAlmostEqual(named["frame_p90_ms"], 179.1)

    def test_isp_scaling_removes_host_slowdown(self):
        named, throughput, latency = run.isp_metrics(self.isp_raw(1.6))
        self.assertAlmostEqual(named["frames_per_s"], 25.0 / 1.6)
        self.assertAlmostEqual(throughput, 25.0)
        self.assertAlmostEqual(latency, 99.5)

    def test_setup_scaled_by_its_own_probes(self):
        raw = {"setup_ms": 300.0,
               "setup_probe_pass_ms": [2 * REFERENCE, 3 * REFERENCE,
                                       0.1 * REFERENCE]}
        self.assertAlmostEqual(run.scaled_setup_ms(raw), 150.0)

    def test_window_rates(self):
        self.assertEqual(stats.window_rates([0.0, 10.0, 20.0, 40.0, 50.0], 2),
                         [100.0, 2000.0 / 30.0])
        self.assertEqual(stats.window_rates([0.0, 10.0], 2), [])


if __name__ == "__main__":
    unittest.main()
