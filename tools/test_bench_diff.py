"""Tests of tools/bench_diff.py.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff  # noqa: E402

HOST = {"nproc": 4, "cpu_model": "cpu", "compiler": "g++", "build_type": "Release",
        "commit": "abc"}


class Diff(unittest.TestCase):
    def test_matches_rows_by_name(self):
        old = {"a": 100.0, "b": 100.0, "gone": 5.0}
        new = {"a": 100.0, "b": 100.0, "new": 7.0}
        added, removed, moved = bench_diff.diff(old, new)
        self.assertEqual(added, ["new"])
        self.assertEqual(removed, ["gone"])
        self.assertEqual(moved, [])

    def test_flags_only_moves_beyond_ten_percent(self):
        old = {"at": 100.0, "over": 100.0, "under": 100.0, "faster": 100.0}
        new = {"at": 110.0, "over": 110.5, "under": 95.0, "faster": 80.0}
        _, _, moved = bench_diff.diff(old, new)
        self.assertEqual([m[0] for m in moved], ["faster", "over"])
        self.assertAlmostEqual(moved[0][3], -0.20)
        self.assertAlmostEqual(moved[1][3], 0.105)

    def test_zero_baseline_counts_as_a_move(self):
        _, _, moved = bench_diff.diff({"z": 0.0, "same": 0.0}, {"z": 1.0, "same": 0.0})
        self.assertEqual([m[0] for m in moved], ["z"])


class Files(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, rows, host=HOST):
        path = os.path.join(self.dir.name, name)
        data = {"host": host, "kernel_isa": "generic",
                "benchmarks": [{"name": n, "ns_per_op": ns} for n, ns in rows]}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)
        return path

    def run_main(self, *args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = bench_diff.main(["bench_diff.py", *args])
        return status, out.getvalue(), err.getvalue()

    def test_report_lists_added_removed_and_moved_rows(self):
        old = self.write("old.json", [("BM_Gemm/32/1/real_time", 1000), ("BM_Keep", 50),
                                      ("BM_Slow", 100)])
        new = self.write("new.json", [("BM_Gemm/32", 990), ("BM_Keep", 52),
                                      ("BM_Slow", 130)])
        status, out, _ = self.run_main(old, new)
        self.assertEqual(status, 0)
        lines = out.splitlines()
        self.assertIn("added    BM_Gemm/32  990 ns/op", lines)
        self.assertIn("removed  BM_Gemm/32/1/real_time  1000 ns/op", lines)
        self.assertIn("slower   BM_Slow  100 -> 130 ns/op (+30.0 %)", lines)
        self.assertFalse(any("BM_Keep" in line for line in lines))
        self.assertFalse(any(line.startswith("host") for line in lines))
        self.assertEqual(lines[-1], "2 shared rows, 1 moved more than 10 %; 1 added, 1 removed")

    def test_different_hosts_are_printed(self):
        old = self.write("old.json", [("BM_A", 1)], host=None)
        new = self.write("new.json", [("BM_A", 1)])
        _, out, _ = self.run_main(old, new)
        self.assertTrue(out.startswith("host old: null\nhost new: {"))

    def test_bad_input_exits_two(self):
        old = self.write("old.json", [("BM_A", 1), ("BM_A", 2)])
        status, out, err = self.run_main(old, old)
        self.assertEqual((status, out), (2, ""))
        self.assertIn("appears twice", err)
        self.assertEqual(self.run_main(old)[0], 2)
        self.assertEqual(self.run_main(old, os.path.join(self.dir.name, "missing.json"))[0], 2)


if __name__ == "__main__":
    unittest.main()
