"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib as bl


class PercentileRule(unittest.TestCase):
    def test_min_samples_leave_ten_beyond(self):
        self.assertEqual(bl.min_samples(50), 20)
        self.assertEqual(bl.min_samples(90), 100)
        self.assertEqual(bl.min_samples(99), 1000)

    def test_percentile_needs_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bl.percentile(values, 90), 90)
        with self.assertRaises(bl.InsufficientSamples):
            bl.percentile(values[:99], 90)
        with self.assertRaises(bl.InsufficientSamples):
            bl.percentile(list(range(999)), 99)
        self.assertEqual(bl.percentile(list(range(1000)), 99), 989)

    def test_percentile_ignores_input_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
        self.assertEqual(bl.percentile(values, 90), 5.0)
        self.assertEqual(bl.percentile(values, 50), 3.0)

    def test_windowed_percentile_shrugs_off_one_stalled_window(self):
        samples = [(t, 1.0 + (t % 1000) / 1000.0) for t in range(5000)]
        samples += [(t, 500.0) for t in range(5000, 6000)]  # a stall
        value, windows = bl.windowed_percentile(samples, 1000, 99)
        self.assertEqual(windows, 6)
        self.assertAlmostEqual(value, 1.989)
        self.assertEqual(bl.percentile([v for _, v in samples], 99), 500.0)

    def test_windowed_percentile_skips_windows_too_small(self):
        samples = [(t, float(t)) for t in range(1000)] + [(1500, 7.0)]
        self.assertEqual(bl.windowed_percentile(samples, 1000, 99)[1], 1)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(bl.InsufficientSamples):
            bl.median([])

    def test_tail_is_the_highest_percentile_the_samples_allow(self):
        self.assertEqual(bl.tail(list(range(1, 1001))), (99, 990))
        self.assertEqual(bl.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(bl.tail(list(range(1, 41))), (75, 30))
        self.assertEqual(bl.tail(list(range(1, 40))), (None, None))

    def test_rounds_sum_complete_groups_only(self):
        self.assertEqual(bl.rounds([1, 2, 3, 4, 5, 6, 7, 8, 9], 4), [10, 26])
        self.assertEqual(bl.rounds([1, 2, 3], 4), [])


class SeededGenerators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(bl.report_cli_ops(3, 50), bl.report_cli_ops(3, 50))
        self.assertEqual(bl.compute_requests(3, 50),
                         bl.compute_requests(3, 50))
        self.assertEqual(bl.mix_plan(3, 2, 100, 4), bl.mix_plan(3, 2, 100, 4))
        self.assertEqual(bl.engine_requests(3, 50), bl.engine_requests(3, 50))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(bl.report_cli_ops(3, 50), bl.report_cli_ops(4, 50))
        self.assertNotEqual(bl.engine_requests(3, 50),
                            bl.engine_requests(4, 50))
        self.assertNotEqual(bl.mix_plan(3, 2, 100, 4),
                            bl.mix_plan(4, 2, 100, 4))

    def test_report_cli_rotates_the_four_model_arguments(self):
        ops = bl.report_cli_ops(1, 8)
        self.assertEqual([op.model for op in ops],
                         ["s1", "s2", "uniform", "storm"] * 2)
        argv = bl.cli_argv(ops[2], 4)
        self.assertEqual(argv[argv.index("--uniform") + 1], ops[2].arg)
        self.assertIn("--storm", bl.cli_argv(ops[3], 4))

    def test_compute_requests_never_repeat_a_seed(self):
        warm, ops = bl.compute_requests(9, 400)
        lines = warm + [line for _, line in ops]
        self.assertEqual(len(lines), len(set(lines)))
        self.assertEqual([k for k, _ in ops[:4]],
                         ["report", "sweep", "timeline", "traffic"])

    def test_engine_requests_never_repeat_a_p(self):
        lines = bl.engine_requests(2, 500)
        ps = [line.split('"p":')[1].split(",")[0] for line in lines]
        self.assertEqual(len(set(ps)), 500)
        self.assertNotIn("0.01", ps)

    def test_zipf_picks_are_deterministic_and_skewed(self):
        picks = bl.zipf_picks(bl.workload_rng("t", 1), 64, 20000)
        self.assertEqual(picks, bl.zipf_picks(bl.workload_rng("t", 1), 64,
                                              20000))
        counts = [picks.count(k) for k in range(64)]
        self.assertTrue(all(0 <= p < 64 for p in picks))
        self.assertGreater(counts[0], 5 * counts[63])
        # Rank 1 is twice as likely as rank 2 under s = 1.
        self.assertAlmostEqual(counts[0] / counts[1], 2.0, delta=0.3)

    def test_mix_plan_schedule(self):
        plan = bl.mix_plan(5, 3, 1000, 4)
        self.assertEqual(len(plan.warm), bl.MIX_SCENARIOS)
        self.assertEqual(len(set(plan.warm)), bl.MIX_SCENARIOS)
        dues = [due for _, due, _ in plan.ops]
        self.assertEqual(dues, sorted(dues))
        hits = [line for tag, _, line in plan.ops if tag == "A"]
        misses = [line for tag, _, line in plan.ops if tag == "B"]
        self.assertEqual(len(hits), 3000)
        self.assertEqual(len(misses), 12)
        self.assertTrue(set(hits) <= set(plan.warm))
        self.assertEqual(len(set(misses)), len(misses))  # all fresh p

    def test_mix_ranks_keep_their_kind_across_seeds(self):
        def shape(line):
            return line.rsplit('"seed":', 1)[0]
        one, two = bl.mix_plan(1, 1, 10, 1), bl.mix_plan(2, 1, 10, 1)
        self.assertEqual([shape(l) for l in one.warm],
                         [shape(l) for l in two.warm])
        self.assertNotEqual(one.warm, two.warm)


class SpanArithmetic(unittest.TestCase):
    def span(self, sid, parent, t0, t1, name="x"):
        return bl.SpanRec(sid, parent, 1, t0, t1, name)

    def test_self_time_subtracts_children(self):
        spans = [self.span(1, 0, 0, 100, "op.a"), self.span(2, 1, 10, 30),
                 self.span(3, 1, 40, 90), self.span(4, 3, 50, 60)]
        self.assertEqual(bl.self_times(spans),
                         {1: 30, 2: 20, 3: 40, 4: 10})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 10, 50),
                 self.span(3, 1, 40, 70), self.span(4, 1, 90, 120)]
        self.assertEqual(bl.self_times(spans)[1], 100 - 60 - 10)

    def test_stage_sum_covers_root_minus_its_own_gaps(self):
        spans = [self.span(1, 0, 0, 100, "op.a"), self.span(2, 1, 0, 60),
                 self.span(3, 1, 60, 98), self.span(4, 0, 200, 300, "setup"),
                 self.span(5, 4, 200, 300)]
        layers, total = bl.stage_sum(spans)
        self.assertEqual((layers, total), (98, 100))

    def test_fnv1a_matches_reference_vectors(self):
        self.assertEqual(bl.fnv1a(b""), 0xcbf29ce484222325)
        self.assertEqual(bl.fnv1a(b"a"), 0xaf63dc4c8601ec8c)


if __name__ == "__main__":
    unittest.main()
