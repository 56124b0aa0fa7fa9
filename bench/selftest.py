"""Self-tests of the benchmark's oracle and checks.

Run from the root of a checkout:  python3 bench/selftest.py
"""

import copy
import io
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import oracle  # noqa: E402
from worker import EXACT_PS  # noqa: E402


class OracleTest(unittest.TestCase):
    def test_hand_checked_values(self):
        rows, gamma = oracle.table_exact("II", 1)
        self.assertEqual(rows[("d", "d")], (F(1, 16), 0))
        self.assertEqual(gamma, (F(1, 4), 0))
        self.assertEqual(oracle.table_exact("II", F(9, 25))[0][("d", "d")], (F(1, 400), 0))
        self.assertEqual(oracle.table_exact("II", F(1, 9))[0][("d", "d")],
                         (F(17, 144), F(-1, 12)))

    def test_hardy_chain(self):
        self.assertEqual(oracle.hardy_chain(), {
            "P(c+,c-|out,out)": 0, "P(d+,d-|in,out)": 0, "P(d+,d-|out,in)": 0,
            "P(d+,d-|in,in) cond": F(1, 12), "P(d+,d-|in,in) uncond": F(1, 16),
            "gamma": F(1, 4)})

    def test_lhv_and_hom(self):
        fates, contradiction = oracle.lhv_enumeration()
        self.assertTrue(contradiction)
        self.assertEqual(len(fates), 16)
        self.assertEqual(sum(alive for _, alive in fates), 5)
        self.assertEqual(oracle.hom_probabilities(), (0, F(1, 2)))

    def test_rows_and_gamma_sum_to_one(self):
        for layout in oracle.LAYOUTS:
            for p in EXACT_PS:
                rows, gamma = oracle.table_exact(layout, p)
                total = gamma
                for v in rows.values():
                    total = oracle.r2_add(total, v)
                self.assertEqual(total, oracle.r2(1), (layout, p))
                floats, fgamma = oracle.table_float(layout, float(p))
                for cell, v in rows.items():
                    self.assertAlmostEqual(floats[cell], oracle.r2_float(v), delta=1e-12)
                self.assertAlmostEqual(fgamma, float(p) / 4, delta=1e-15)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from hardysim import hardy
        cls.hardy = hardy

    def run_layout(self, layout, p, backend="exact"):
        plus, minus = layout[0] == "I", layout[1] == "I"
        return self.hardy.run_scenario(
            self.hardy.ScenarioConfig(plus, minus, F(p), backend))[1]

    def test_program_passes(self):
        for layout in oracle.LAYOUTS:
            for p in (0, 1, F(1, 2), F(1, 9)):
                self.assertIsNone(check.check_table(self.run_layout(layout, p),
                                                    layout, p, True))
            self.assertIsNone(check.check_table(
                self.run_layout(layout, F(1, 3), "float"), layout, F(1, 3), False))

    def test_mislabelled_table_fails(self):
        table = self.run_layout("II", 1)
        relabelled = copy.copy(table)
        relabelled.config = "OO"
        self.assertIsNotNone(check.check_table(relabelled, "OO", 1, True))
        self.assertIsNotNone(check.check_table(table, "OO", 1, True))

    def test_mislabelled_cli_report_fails(self):
        from hardysim import cli
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp, "cfg.json")
            cfg.write_text('{"bs2_plus": true, "bs2_minus": true, "p": 1}')
            csv_path, json_path = Path(tmp, "t.csv"), Path(tmp, "t.json")
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["run", "--config", str(cfg), "--csv", str(csv_path),
                                 "--json", str(json_path)])
            self.assertEqual(code, 0)
            stdout = out.getvalue()
            self.assertIsNone(check.check_cli_run(stdout, "II", 1, csv_path, json_path))
            self.assertIsNotNone(check.check_cli_run(
                stdout.replace("config II", "config OO"), "OO", 1, csv_path, json_path))
            self.assertIsNotNone(check.check_cli_run(stdout, "OO", 1, csv_path, json_path))

    def test_exact_form_parser(self):
        self.assertEqual(check.parse_r2("17/144 + -1/12*r2"), (F(17, 144), F(-1, 12)))
        self.assertEqual(check.parse_r2("0"), (0, 0))
        self.assertIsNone(check.parse_r2("1/2*i"))


if __name__ == "__main__":
    unittest.main()
