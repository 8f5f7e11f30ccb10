"""Tests of perfbench/run.py's own arithmetic and result parsing.

Run with `python3 perfbench/run.py --selftest`, or directly with
`python3 -m unittest discover -s perfbench/tests`.
"""

import importlib.util
import os
import statistics
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(__file__), "..", "run.py"))
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        # The steadiness figures must use the same convention as
        # statistics.quantiles(values, n=4) (the "exclusive" method).
        for values in ([1, 2, 3, 4], [5, 1, 4, 2, 3], list(range(10)),
                       [0.3, 0.31, 0.29, 0.5, 0.33, 0.28, 0.3, 0.32, 0.3, 0.9]):
            self.assertEqual(run.quartiles(values),
                             tuple(statistics.quantiles(values, n=4)))

    def test_known_values(self):
        # Exclusive method over 1..10: positions 2.75, 5.5, 8.25.
        self.assertEqual(run.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(run.quartiles([7]), (7, 7, 7))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(run.spread([2.0] * 10), 0.0)
        self.assertEqual(run.spread([0.0, 0.0, 0.0]), float("inf"))


class ParseResultTest(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = ('perfbench workload=serve\nhost cpu="x"\n'
               '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
               '{"setup_s": {"value": 0.5, "unit": "s"}}}\n')
        res = run.parse_result(out)
        self.assertTrue(res["correct"])
        self.assertEqual(res["metrics"]["setup_s"]["value"], 0.5)

    def test_rejects_missing_or_extra_keys(self):
        with self.assertRaises(ValueError):
            run.parse_result('{"correct": true, "attempted": 1}')
        with self.assertRaises(ValueError):
            run.parse_result('{"correct": true, "attempted": 1, "failed": 0, '
                             '"metrics": {}, "extra": 1}')
        with self.assertRaises(ValueError):
            run.parse_result("")
        with self.assertRaises(ValueError):
            run.parse_result("not json")


if __name__ == "__main__":
    unittest.main()
