"""Tests for perfbench/bench_stats.py.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import bench_stats as bs  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


class OrderStatistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(bs.median([3, 1, 2]), 2)
        self.assertEqual(bs.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            bs.median([])

    def test_tail_keeps_twenty_samples_beyond(self):
        xs = list(range(1, 91))  # 1..90
        value, pct, n = bs.tail(xs)
        self.assertEqual((value, n), (70, 90))
        self.assertEqual(sum(1 for x in xs if x > value), bs.TAIL_BEYOND)
        self.assertEqual(bs.tail(xs, beyond=10, share=0.0)[0], 80)

    def test_tail_is_p90_with_enough_samples(self):
        xs = list(range(1, 501))  # 1..500
        value, pct, n = bs.tail(xs)
        self.assertEqual((value, pct, n), (450, 90.0, 500))
        value, pct, _n = bs.tail(list(range(1, 482)))  # 481: 49 beyond
        self.assertEqual(value, 481 - 49)

    def test_tail_of_small_sample_falls_back_to_median(self):
        self.assertEqual(bs.tail([5, 1, 3]), (3, 50.0, 3))
        self.assertEqual(bs.tail(list(range(20))), (9.5, 50.0, 20))
        value, pct, n = bs.tail(list(range(21)))
        self.assertEqual((value, n), (0, 21))
        self.assertAlmostEqual(pct, 100.0 / 21)


class Failures(unittest.TestCase):
    def test_count_failures(self):
        self.assertEqual(bs.count_failures(["ok", "rejected", "ok", "mismatch"]),
                         (4, 2))
        self.assertEqual(bs.count_failures([]), (0, 0))


class SelfTimes(unittest.TestCase):
    def test_child_time_is_subtracted(self):
        spans = [[1, 0, 1, "step", 0.0, 1.0],
                 [2, 1, 1, "solve", 0.1, 0.4],
                 [3, 1, 1, "solve", 0.5, 0.7],
                 [4, 2, 1, "forward", 0.1, 0.2]]
        st = bs.self_times(spans)
        self.assertAlmostEqual(st["step"], 0.5)
        self.assertAlmostEqual(st["solve"], 0.4)
        self.assertAlmostEqual(st["forward"], 0.1)


def _problem(index, wall_s, step_ms, **kw):
    p = {"index": index, "step_ms": step_ms, "kind": "plume",
         "steps": len(step_ms), "cells": 4, "wall_s": wall_s, "outcome": "ok",
         "error": "", "restarted": False, "steps_executed": len(step_ms),
         "switches": 0, "fallback_steps": 0, "result_s": wall_s, "pcg_s": 0.0,
         "solve_s": 0.0, "solve_flops": 0, "pcg_iterations": 0,
         "pcg_solves": 0, "qloss": 0.0}
    p.update(kw)
    return p


class WorkloadMetrics(unittest.TestCase):
    def test_exact_metrics_from_raw_samples(self):
        raw = {"workload": "exact_128", "quality_requirement": 0.02,
               "setup_s": [0.3, 0.1, 0.2],
               "problems": [_problem(0, 2.0, [10.0, 30.0], solve_s=1.5,
                                     pcg_solves=2, pcg_iterations=100),
                            _problem(1, 4.0, [20.0, 40.0], solve_s=3.5,
                                     pcg_solves=2, pcg_iterations=60)]}
        m, attempted, failed, info = bs.metrics(raw, trace=False)
        self.assertEqual((attempted, failed), (2, 0))
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["cell_steps_per_s"], 16 / 6.0)
        self.assertAlmostEqual(m["problem_s_p50"], 3.0)
        self.assertAlmostEqual(m["step_ms_p50"], 25.0)
        self.assertAlmostEqual(m["serve_goodput"], 1.0)  # 5000 ms limit
        self.assertEqual(info["latency_tail_n"], 2)

        raw["spans"] = [[1, 0, 1, "fluid.pcg.solve", 0.0, 0.5]]
        raw["span_cost_s"] = 1e-7
        m, _a, _f, _i = bs.metrics(raw, trace=True)
        self.assertEqual(set(m), set(bs.PER_LAYER))
        self.assertEqual(m["nn.time_share"], 0.0)
        self.assertAlmostEqual(m["fluid.pcg.time_share"], 5.0 / 6.0)
        self.assertAlmostEqual(m["fluid.pcg.iterations_per_solve"], 40.0)

    def test_serve_failures_miss_the_limit(self):
        jobs = [{"due": 0.1 * i, "sent": 0.1 * i,
                 "done": 0.1 * i + 0.2, "submit_us": 30.0, "model": i % 2,
                 "repeat": False, "outcome": "ok", "error": "",
                 "result_s": 0.19} for i in range(12)]
        jobs[3]["outcome"] = "rejected"
        raw = _serve_raw(jobs)
        m, attempted, failed, _info = bs.metrics(raw, trace=False)
        self.assertEqual((attempted, failed), (12, 1))
        self.assertAlmostEqual(m["ok_share"], 11 / 12)
        self.assertAlmostEqual(m["serve_goodput"], 11 / 12)
        self.assertAlmostEqual(m["serve_latency_ms_p50"], 200.0)
        self.assertAlmostEqual(m["serve_jobs_per_s"], 11 / 2.0)

    def test_serve_latency_is_over_fresh_jobs_only(self):
        jobs = [{"due": 0.1 * i, "sent": 0.1 * i,
                 "done": 0.1 * i + (0.3 if i < 5 else 0.001),
                 "submit_us": 30.0, "model": 0, "repeat": i >= 5,
                 "outcome": "ok", "error": "", "result_s": 0.25}
                for i in range(12)]
        m, _a, _f, info = bs.metrics(_serve_raw(jobs), trace=False)
        self.assertAlmostEqual(m["serve_latency_ms_p50"], 300.0)
        self.assertAlmostEqual(m["serve_latency_ms_tail"], 300.0)
        self.assertEqual(info["latency_tail_n"], 5)
        self.assertAlmostEqual(m["serve_goodput"], 1.0)
        self.assertAlmostEqual(m["cell_steps_per_s"], 5 * 4 * 2 / 2.0)
        self.assertAlmostEqual(m["serve_jobs_per_s"], 12 / 2.0)


def _serve_raw(jobs):
    return {"workload": "serve_open_64", "quality_requirement": 0.02,
            "setup_s": [0.1], "jobs": jobs, "elapsed_s": 2.0, "cells": 4,
            "steps": 2, "rate_per_s": 4.0, "repeat_share": 0.25,
            "cache_entries": 64}


class BenchmarkJsonGrammar(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON) as f:
            self.doc = json.load(f)

    def test_repository_file_is_valid(self):
        self.assertEqual(bs.check_benchmark_json(self.doc), [])

    def test_every_per_layer_metric_is_computed(self):
        self.assertEqual([m["name"] for m in self.doc["per_layer"]],
                         bs.PER_LAYER)

    def test_rejects_bad_names_units_and_bounds(self):
        cases = [
            ("end_to_end", 0, "name", "_leading_underscore"),
            ("end_to_end", 0, "name", "x" * 65),
            ("per_layer", 0, "name", "has space"),
            ("per_layer", 0, "unit", "way-too-long-unit-name"),
            ("end_to_end", 1, "bound", 0.3),
            ("end_to_end", 1, "better", "faster"),
        ]
        for section, i, key, bad in cases:
            doc = copy.deepcopy(self.doc)
            doc[section][i][key] = bad
            self.assertNotEqual(bs.check_benchmark_json(doc), [], (key, bad))

    def test_rejects_duplicate_names_and_missing_setup(self):
        doc = copy.deepcopy(self.doc)
        doc["per_layer"][1]["name"] = doc["per_layer"][0]["name"]
        self.assertNotEqual(bs.check_benchmark_json(doc), [])
        doc = copy.deepcopy(self.doc)
        doc["end_to_end"] = [m for m in doc["end_to_end"]
                             if m["name"] != "setup_s"]
        self.assertNotEqual(bs.check_benchmark_json(doc), [])

    def test_rejects_paths_leaving_the_repo(self):
        for bad in (["/abs"], ["../up"], []):
            doc = copy.deepcopy(self.doc)
            doc["paths"] = bad
            self.assertNotEqual(bs.check_benchmark_json(doc), [], bad)
        doc = copy.deepcopy(self.doc)
        doc["command"] = ["python3", "../run.py"]
        self.assertNotEqual(bs.check_benchmark_json(doc), [])


if __name__ == "__main__":
    unittest.main()
