"""Self-tests of the benchmark's derived numbers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest

sys.dont_write_bytecode = True
import metrics as m  # noqa: E402


class LaneIdle(unittest.TestCase):
    def test_synthetic_wave_schedule(self):
        # Width 2, two waves: (3 s, 1 s) then (2 s, 2 s); the campaign takes
        # 3 + 2 = 5 s, so 10 lane-seconds hold 8 busy ones.
        self.assertAlmostEqual(m.lane_idle_frac(2, 5.0, [3.0, 1.0, 2.0, 2.0]), 0.2)

    def test_odd_trial_count_leaves_a_lane_idle(self):
        # Three equal trials on two lanes: the last wave runs one lane only.
        self.assertAlmostEqual(m.lane_idle_frac(2, 2.0, [1.0, 1.0, 1.0]), 0.25)

    def test_serial_campaign_has_no_idle_lane(self):
        self.assertEqual(m.lane_idle_frac(1, 6.0, [1.0, 2.0, 3.0]), 0.0)

    def test_clock_skew_never_goes_negative(self):
        self.assertEqual(m.lane_idle_frac(2, 1.0, [1.0, 1.0 + 1e-9]), 0.0)


class TailChoice(unittest.TestCase):
    def test_ladder_needs_ten_samples_beyond(self):
        self.assertEqual(m.tail_percentile(1000), 99.0)   # 10 beyond p99
        self.assertEqual(m.tail_percentile(999), 95.0)    # 9.99 beyond p99
        self.assertEqual(m.tail_percentile(200), 95.0)
        self.assertEqual(m.tail_percentile(100), 90.0)
        self.assertEqual(m.tail_percentile(72), 75.0)
        self.assertEqual(m.tail_percentile(40), 75.0)
        self.assertIsNone(m.tail_percentile(39))

    def test_small_samples_fall_back_to_the_maximum(self):
        self.assertEqual(m.tail([3.0, 1.0, 2.0]), (100.0, 3.0))

    def test_tail_value_is_the_interpolated_percentile(self):
        samples = [float(i) for i in range(1, 1001)]
        p, v = m.tail(samples)
        self.assertEqual(p, 99.0)
        self.assertAlmostEqual(v, m.percentile(samples, 99.0))
        self.assertAlmostEqual(v, 990.01)


class FailFrac(unittest.TestCase):
    def test_counts_failures_over_attempts(self):
        self.assertEqual(m.fail_frac(76, 0), 0.0)
        self.assertAlmostEqual(m.fail_frac(76, 4), 4 / 76)
        self.assertEqual(m.fail_frac(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            m.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            m.fail_frac(3, 4)


class RemoteOverhead(unittest.TestCase):
    @staticmethod
    def phases(collect, learn, sync, iterations=16):
        return {"collect_s": collect, "learn_s": learn, "sync_s": sync,
                "iterations": iterations}

    def test_subtracts_in_process_collect_and_sync(self):
        dist = [self.phases(0.24, 1.2, 0.08), self.phases(0.32, 1.3, 0.08), self.phases(0.40, 9.9, 0.08)]
        local = [self.phases(0.048, 1.1, 0.0), self.phases(0.064, 1.0, 0.0)]
        # median remote (0.32 + 0.08) / 16 = 25 ms; median local 0.056 / 16 = 3.5 ms
        self.assertAlmostEqual(m.remote_overhead_ms(dist, local), 25.0 - 3.5)

    def test_learn_time_does_not_count(self):
        a = [self.phases(0.1, 1.0, 0.1)]
        b = [self.phases(0.1, 5.0, 0.1)]
        self.assertAlmostEqual(m.remote_overhead_ms(a, b), 0.0)

    def test_per_iteration_sum_of_phases(self):
        self.assertAlmostEqual(m.per_iter_ms(self.phases(0.2, 1.2, 0.2), "collect", "learn", "sync"), 100.0)


class TraceOverhead(unittest.TestCase):
    def test_median_ratio(self):
        self.assertAlmostEqual(m.overhead_frac([1.1, 1.2, 9.0], [1.0, 1.0, 0.5]), 0.2)


if __name__ == "__main__":
    unittest.main()
