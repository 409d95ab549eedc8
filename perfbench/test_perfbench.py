"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402
from detfold.cli import main as detfold_main  # noqa: E402

POOL = json.loads((HERE / "pool.json").read_text())
NAMED = {e["name"]: e for e in POOL["named"]}


def _run(argv: list, entry: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.rep"
        path.write_text(entry["rep"])
        buf = io.StringIO()
        assert detfold_main([argv[0], str(path)] + argv[1:], out=buf) == 0
        return buf.getvalue()


def _replace(text: str, key: str, value: str) -> str:
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in text.splitlines()]
    return "\n".join(lines) + "\n"


class Arithmetic(unittest.TestCase):
    def test_parse_and_evaluate(self):
        p = checks.parse_poly("-2*x1^3 + 3/2*x1*x2 - x3")
        self.assertEqual(p, {(3, 0, 0): -2, (1, 1, 0): Fraction(3, 2), (0, 0, 1): -1})
        self.assertEqual(checks.evaluate(p, (1, 2, 3), None), -2)
        self.assertEqual(checks.evaluate(p, (1, 2, 3), 7), 5)

    def test_fourfold_of_ex42ii_vanishes_on_its_cone_vertices(self):
        entry = NAMED["ex42ii"]
        _, m = checks.parse_rep(entry["rep"])
        for p in checks.expected_sing_x(entry, None):
            self.assertEqual(checks.fourfold_and_partials(m, p, None), [0] * 7)
        self.assertNotEqual(checks.fourfold_and_partials(m, (1, 0, 0, 0, 0, 0), None)[0], 0)

    def test_screens_reject_bad_reduction(self):
        identity = [1, 0, 0, 0, 1, 0, 0, 0, 1]
        self.assertTrue(checks.prop44_good_at(identity, 7))
        self.assertFalse(checks.prop44_good_at(identity, 3))
        # this member's cubic acquires an F_37-rational node
        self.assertFalse(checks.prop44_good_at([-1, -2, 1, -2, 1, 1, 2, -2, 1], 37))
        self.assertTrue(checks.ex42ii_good_at([[1, 1, 1], [1, 2, 3], [1, 3, 2]], None))
        self.assertFalse(checks.ex42ii_good_at([[1, 1, 0], [1, 2, 3], [1, 3, 2]], None))


class OutputChecks(unittest.TestCase):
    def test_true_reports_pass(self):
        for name, field in (("ex42ii", "fp:7"), ("ex42i", "rational"), ("prop44", "fp:13")):
            argv = ["analyze"] + ([] if field == "rational" else ["--field", field])
            self.assertEqual(checks.check_analyze(_run(argv, NAMED[name]), NAMED[name], field), [])

    def test_wrong_point_fails(self):
        entry = NAMED["ex42ii"]
        text = _run(["analyze", "--field", "fp:7"], entry)
        points = checks.parse_report(text)["sing_x"].split("; ")
        bad = _replace(text, "sing_x", "; ".join(points[:2] + ["(1:2:3:0:0:0)"]))
        problems = checks.check_analyze(bad, entry, "fp:7")
        self.assertTrue(any("not a singular point" in p for p in problems), problems)
        bad = _replace(text, "sing_c", checks.parse_report(text)["sing_c"] + "; (1:1:1)")
        self.assertTrue(checks.check_analyze(bad, entry, "fp:7"))

    def test_wrong_count_fails(self):
        entry = NAMED["prop44"]
        text = _run(["analyze", "--field", "fp:13"], entry)
        self.assertTrue(checks.check_analyze(_replace(text, "couples", "11"), entry, "fp:13"))
        self.assertTrue(checks.check_analyze(_replace(text, "ns2_m", "11"), entry, "fp:13"))
        self.assertTrue(checks.check_analyze(_replace(text, "sing_x_count", "1"), entry, "fp:13"))

    def test_oracle_output(self):
        entry = NAMED["ex42i"]
        text = _run(["oracle", "--prime", "7"], entry)
        self.assertEqual(checks.check_oracle(text, entry, 7), [])
        bad = _replace(text, "oracle_points", "(0:0:0:0:0:1); (0:0:0:0:1:0); (0:0:0:1:1:0)")
        self.assertTrue(checks.check_oracle(bad, entry, 7))
        self.assertTrue(checks.check_oracle(_replace(text, "oracle_count", "4"), entry, 7))


class Runs(unittest.TestCase):
    def test_ops_repeat_for_a_seed(self):
        for workload in worker.WORKLOADS:
            a = [(e["name"], f) for e, f in worker.build_ops(POOL, workload, 5)]
            self.assertEqual(a, [(e["name"], f) for e, f in worker.build_ops(POOL, workload, 5)])
        self.assertNotEqual(
            worker.build_ops(POOL, "qq-elimination", 1), worker.build_ops(POOL, "qq-elimination", 2)
        )

    def test_traced_smoke_round(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = worker.write_inputs(worker.build_ops(POOL, "fq-analyze", 1), Path(tmp))
            small = [op for op in ops if op[2] in ("fp:7", "fp:17")][:4]
            out = worker.measure(detfold_main, small, "fq-analyze", 0, trace=True)
        self.assertEqual((out["attempted"], out["failed"], out["problems"]), (4, 0, []))
        self.assertEqual(out["trace"]["detrep.derived_equations.calls"][0], 4)
        self.assertGreater(out["trace"]["curves.fq_points_scanned"][0], 0)

    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fq-analyze", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
