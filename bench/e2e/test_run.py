"""Unit tests for the benchmark runner.

    python3 -m unittest discover bench/e2e
"""

import json
import unittest

import run


def record(digest="00ff", **overrides):
    rec = {"ok": True, "exit_code": 0, "error": "", "digest": digest,
           "seed": 1, "attempted": 10, "rejected": 0, "completed": 10,
           "steps": 13048, "step_tail": "p99.9"}
    rec.update(overrides)
    return rec


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(run.quartiles([5, 1, 4, 2, 3]), (1.5, 3, 4.5))

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.quartiles([2.5])


class PercentileRuleTest(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(run.samples_beyond(13048, 0.999), 13)
        self.assertEqual(run.samples_beyond(100, 0.5), 50)

    def test_accepts_ten_beyond(self):
        run.require_tail(10000, 0.999, "steps")

    def test_rejects_fewer_than_ten_beyond(self):
        with self.assertRaisesRegex(run.BenchError, "only 9 beyond"):
            run.require_tail(9999, 0.999, "steps")

    def test_short_serve_run_fails_verification(self):
        errors = run.verify("serve-x", [record(steps=5000)])
        self.assertTrue(any("serve-x" in e and "beyond" in e for e in errors))

    def test_sweep_maximum_is_exempt(self):
        self.assertEqual(run.verify("cluster-x",
                                    [record(steps=5, step_tail="max")]), [])


class ArrivalSeedTest(unittest.TestCase):
    def test_distinct_across_runs_and_indices(self):
        seeds = {run.arrival_seed(s, i)
                 for s in range(1, 11) for i in range(5)}
        self.assertEqual(len(seeds), 50)

    def test_fits_the_driver_seed(self):
        self.assertLess(run.arrival_seed(2**60, 3), 2**64)


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertFalse(run.regressed("lower", 0.05, 0.0, 10.0, 10.4))
        self.assertTrue(run.regressed("lower", 0.05, 0.0, 10.0, 10.6))

    def test_higher_is_better(self):
        self.assertFalse(run.regressed("higher", 0.05, 0.0, 100.0, 96.0))
        self.assertTrue(run.regressed("higher", 0.05, 0.0, 100.0, 94.0))
        self.assertFalse(run.regressed("higher", 0.05, 0.0, 100.0, 150.0))

    def test_absolute_floor_absorbs_small_values(self):
        # 0.003 s -> 0.02 s is +567% but within the 0.02 s floor.
        self.assertFalse(run.regressed("lower", 0.1, 0.02, 0.003, 0.02))
        self.assertTrue(run.regressed("lower", 0.1, 0.02, 0.003, 0.03))

    def test_relative_bound_wins_over_smaller_floor(self):
        self.assertFalse(run.regressed("lower", 0.1, 0.02, 1.0, 1.09))
        self.assertTrue(run.regressed("lower", 0.1, 0.02, 1.0, 1.11))


class CorrectnessTest(unittest.TestCase):
    def test_identical_digests_pass(self):
        self.assertEqual(run.verify("w", [record(), record()]), [])

    def test_distinct_inputs_may_differ(self):
        self.assertEqual(run.verify("w", [record("aa", seed=1),
                                          record("bb", seed=2)]), [])

    def test_digest_mismatch_names_workload(self):
        errors = run.verify("serve-leafspine", [record("aa"), record("bb")])
        self.assertEqual(len(errors), 1)
        self.assertIn("serve-leafspine", errors[0])
        self.assertIn("digest differs", errors[0])

    def test_digest_mismatch_makes_verdict_incorrect(self):
        plain = [record("aa", jobs_per_s=1.0, wall_s=1.0, step_p50_us=1.0,
                        step_p999_us=1.0, peak_rss_mb=1.0, setup_s=1.0),
                 record("bb", jobs_per_s=1.0, wall_s=1.0, step_p50_us=1.0,
                        step_p999_us=1.0, peak_rss_mb=1.0, setup_s=1.0)]
        errors, result = run.verdict("serve-queued-slo", plain, [], False)
        self.assertTrue(errors)
        self.assertFalse(result["correct"])

    def test_job_accounting(self):
        errors = run.verify("w", [record(attempted=10, rejected=2,
                                         completed=7)])
        self.assertTrue(any("completed 7" in e for e in errors))

    def test_failed_run_reported(self):
        errors = run.verify("w", [record(ok=False, error="boom")])
        self.assertTrue(any("boom" in e for e in errors))


class ContractTest(unittest.TestCase):
    """The runner emits exactly the metrics BENCHMARK.json declares."""

    def setUp(self):
        self.spec = json.loads(run.BENCHMARK_JSON.read_text())

    def test_end_to_end_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, run.E2E_UNITS)

    def test_per_layer_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, run.LAYER_UNITS)

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)

    def test_floors_only_for_declared_metrics(self):
        self.assertLessEqual(set(run.ABS_FLOORS), set(run.E2E_UNITS))


if __name__ == "__main__":
    unittest.main()
