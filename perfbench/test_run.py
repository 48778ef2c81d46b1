#!/usr/bin/env python3
"""Self-tests for the benchmark's own helpers and its BENCHMARK.json.

    python3 perfbench/test_run.py    (from the root of the repository)
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7], 99), 7)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertEqual(run.samples_beyond(999, 99), 9)
        self.assertEqual(run.samples_beyond(40, 75), 10)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(5000), 99)
        self.assertEqual(run.tail_percentile(999), 95)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(60), 75)
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertIsNone(run.tail_percentile(39))
        self.assertIsNone(run.tail_percentile(13))

    def test_tail_uses_fewest_samples_across_types(self):
        notes = []
        groups = {"a": list(range(1, 1501)), "b": list(range(1, 1000))}
        tail = run.type_tail(groups, notes)
        self.assertTrue(any("per-type p95" in n for n in notes), notes)
        self.assertAlmostEqual(tail, run.geomean([1425, 950]))

    def test_unresolvable_tail_reports_the_median(self):
        notes = []
        tail = run.type_tail({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]},
                             notes)
        self.assertAlmostEqual(tail, run.geomean([2.0, 5.0]))
        self.assertTrue(any("too few ops" in n for n in notes), notes)


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(run.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(run.geomean([5.0]), 5.0)
        self.assertAlmostEqual(run.geomean([2.0, 8.0, 4.0]), 4.0)

    def test_scaling_one_type_moves_it_by_its_share(self):
        base = run.geomean([1.3, 100.0, 175.0, 470.0])
        faster_join = run.geomean([1.3, 100.0, 175.0, 235.0])
        self.assertAlmostEqual(faster_join / base, 0.5 ** 0.25)

    def test_rejects_empty_and_non_positive(self):
        for bad in ([], [0.0, 1.0], [-1.0]):
            with self.assertRaises(ValueError):
                run.geomean(bad)

    def test_op_ms_p50_is_geomean_of_type_medians(self):
        raw = synthetic_raw({"fast": [1.0, 1.0, 9.0], "slow": [100.0] * 5})
        m = run.end_to_end(raw, [])
        self.assertAlmostEqual(m["op_ms_p50"], 10.0)


class NameTest(unittest.TestCase):
    def test_every_metric_name_is_valid(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertTrue(run.valid_name(name), name)

    def test_pattern(self):
        for good in ("a", "op_ms_p50", "sql.exec_ms_p50.join", "x-1", "9a"):
            self.assertTrue(run.valid_name(good), good)
        for bad in ("", ".a", "_a", "a b", "a/b", "a" * 65, "é"):
            self.assertFalse(run.valid_name(bad), bad)

    def test_units(self):
        for unit, _ in list(run.END_TO_END.values()) + \
                list(run.PER_LAYER.values()):
            self.assertRegex(unit, run.UNIT_RE)


class SchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SPEC_PATH, "rb") as f:
            data = f.read()
        cls.size = len(data)
        cls.spec = json.loads(data)

    def test_top_level(self):
        s = self.spec
        self.assertLessEqual(self.size, 64 * 1024)
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)

    def test_workloads(self):
        w = self.spec["workloads"]
        self.assertTrue(2 <= len(w) <= 8)
        self.assertEqual([x["name"] for x in w], list(run.WORKLOADS))
        for x in w:
            self.assertEqual(set(x), {"name", "why"})
            self.assertLessEqual(len(x["why"]), 200)
            self.assertNotIn("\n", x["why"])

    def test_end_to_end_matches_run_py(self):
        e2e = self.spec["end_to_end"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertEqual([m["name"] for m in e2e], list(run.END_TO_END))
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertEqual((m["unit"], m["better"]), run.END_TO_END[m["name"]])
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = next(m for m in e2e if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e))

    def test_per_layer_matches_run_py(self):
        layer = self.spec["per_layer"]
        self.assertTrue(1 <= len(layer) <= 128)
        self.assertEqual([m["name"] for m in layer], list(run.PER_LAYER))
        for m in layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertEqual((m["unit"], m["better"]), run.PER_LAYER[m["name"]])

    def test_names_unique(self):
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[k]]
        self.assertEqual(len(names), len(set(names)))

    def test_check_result_accepts_a_full_result(self):
        result = full_result(run.END_TO_END)
        self.assertEqual(run.check_result(result, 0, self.spec), [])
        result = full_result(run.PER_LAYER)
        self.assertEqual(run.check_result(result, 1, self.spec), [])

    def test_check_result_rejects_bad_results(self):
        result = full_result(run.END_TO_END)
        del result["metrics"]["setup_s"]
        self.assertTrue(run.check_result(result, 0, self.spec))
        result = full_result(run.END_TO_END)
        result["extra"] = 1
        self.assertTrue(run.check_result(result, 0, self.spec))
        result = full_result(run.END_TO_END)
        result["attempted"] = True
        self.assertTrue(run.check_result(result, 0, self.spec))
        result = full_result(run.END_TO_END)
        result["metrics"]["op_ms_p50"]["value"] = math.nan
        self.assertTrue(run.check_result(result, 0, self.spec))
        result = full_result(run.END_TO_END)
        result["metrics"]["op_ms_p50"]["unit"] = "s"
        self.assertTrue(run.check_result(result, 0, self.spec))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = {
            0: {"name": "op", "start": 0.0, "end": 100.0, "parent": -1,
                "op": 0},
            1: {"name": "sql.parse", "start": 10.0, "end": 30.0, "parent": 0,
                "op": 0},
            2: {"name": "sql.exec", "start": 20.0, "end": 60.0, "parent": 0,
                "op": 0},
            3: {"name": "inner", "start": 25.0, "end": 35.0, "parent": 2,
                "op": 0},
        }
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 50.0)  # 100 - union[10, 60]
        self.assertAlmostEqual(selfs[1], 20.0)
        self.assertAlmostEqual(selfs[2], 30.0)
        self.assertAlmostEqual(selfs[3], 10.0)


def synthetic_raw(groups):
    types, ms = [], []
    for t, values in groups.items():
        types += [t] * len(values)
        ms += values
    return {"op_type": types, "op_ms": ms, "setup_s": [1.0, 2.0, 3.0],
            "window_s": 2.0, "cpu_s": 1.0, "virtual_s_total": 5.0,
            "virtual_deterministic": True, "peak_rss_mb": 100.0}


def full_result(table):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": 1.5, "unit": unit}
                        for name, (unit, _) in table.items()}}


if __name__ == "__main__":
    unittest.main()
