"""CLI contract: commands, exit codes, export round-trips."""

import contextlib
import csv
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hardysim
from hardysim import hardy
from hardysim.cli import CSV_FIELDS, P_EXPONENT_MAX, P_TEXT_MAX_CHARS, main

SRC = os.path.dirname(os.path.dirname(hardysim.__file__))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


class TestRun:
    def test_full_layout_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1")
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "d,d | 1/12 | 0.0833333333333" in out
        assert "gamma | 1/4 | 0.25" in out

    def test_p_out_of_range_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="2")
        assert main(["run", "--config", cfg]) == 3
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    # a path is quoted by echo, so a newline in it cannot start a second line
    @pytest.mark.parametrize("name, text, quoted", [
        ("x\nerror: injected", None, "x\\nerror: injected'"),
        ("x\nerror: injected", "{not json", "x\\nerror: injected'"),
        ("x" * 300, None, "'" + "x" * 79 + "..."),
    ], ids=["newline-missing", "newline-bad-json", "300-chars-missing"])
    def test_unreadable_config_path_is_quoted(self, tmp_path, capsys, monkeypatch,
                                              name, text, quoted):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / name).write_text(text)
        assert main(["run", "--config", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config '")
        assert quoted in err and err.count("\n") == 1 and len(err) < 200

    def test_missing_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, bs2_plus=True)
        assert main(["run", "--config", cfg]) == 2

    def test_unknown_backend_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True,
                           backend="symbolic")
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unrepresentable_exact_p_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1/3")
        assert main(["run", "--config", cfg]) == 3

    def test_exact_p_needs_only_sqrt_of_1_minus_p(self, tmp_path, capsys):
        # sqrt(3/4) is not in Q(i, sqrt2), but only sqrt(1 - 3/4) = 1/2 and
        # the photon weight p reach a table
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="3/4")
        assert main(["run", "--config", cfg]) == 0
        cond, uncond = capsys.readouterr().out.split("\nunconditional\n")
        assert "  d,d | 1/52 | 0.0192307692308" in cond.splitlines()
        assert "  d,d | 1/64 | 0.015625" in uncond.splitlines()
        assert "  gamma | 3/16 | 0.1875" in uncond.splitlines()

    def test_float_backend_accepts_any_p(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1/3",
                           backend="float")
        assert main(["run", "--config", cfg]) == 0

    def test_reaction_probability_field_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bs2_plus=False, bs2_minus=False,
                           reaction_probability="1/2")
        assert main(["run", "--config", cfg]) == 0

    @pytest.mark.parametrize("fields", [
        {"bs2_plus": "false", "bs2_minus": "false"},
        {"bs2_plus": True, "bs2_minus": 0},
        {"bs2_plus": 1, "bs2_minus": True},
        {"bs2_plus": None, "bs2_minus": False},
    ])
    def test_non_boolean_layout_exits_2(self, tmp_path, capsys, fields):
        cfg = write_config(tmp_path, p=1, **fields)
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_boolean_p_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"bs2_plus": true, "bs2_minus": true, "p": true}')
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("p_text, backend, code", [
        pytest.param("1e-400", "exact", 3, id="1e-400"),
        pytest.param("0.36", "exact", 0, id="0.36"),
        pytest.param("1e-5000", "float", 2, id="1e-5000"),
        pytest.param("1e400", "exact", 3, id="1e400"),
    ])
    def test_p_number_exits_as_its_string(self, tmp_path, capsys, p_text,
                                          backend, code):
        # a JSON number is read as written, not through a double
        outputs = []
        for p in (p_text, f'"{p_text}"'):
            path = tmp_path / "config.json"
            path.write_text('{"bs2_plus": true, "bs2_minus": true, "p": %s, '
                            '"backend": "%s"}' % (p, backend))
            assert main(["run", "--config", str(path)]) == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        if code:
            assert outputs[0].err.startswith("error: ")

    def test_decimal_p_number_prints_as_written(self, tmp_path, capsys):
        for p, backend, title in [(0.1, "float", "p=1/10  backend=float"),
                                  (0.36, "exact", "p=9/25  backend=exact")]:
            cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p=p,
                               backend=backend)
            assert main(["run", "--config", cfg]) == 0
            assert capsys.readouterr().out.startswith(f"config II  {title} ")

    @pytest.mark.parametrize("fields, quoted", [
        ({"backnd": "float"}, "'backnd'"),
        ({"P": "1/2"}, "'P'"),
        ({"p": 1, "reaction_probability": 0}, "both p and reaction_probability"),
        ({"x" * 1000: 1}, "'" + "x" * 79 + "..."),
    ], ids=["backnd", "P", "p-and-reaction_probability", "long-key"])
    def test_unknown_or_doubled_field_exits_2(self, tmp_path, capsys, fields,
                                              quoted):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, **fields)
        assert main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert quoted in captured.err
        assert len(captured.err) < 200
        assert captured.out == ""

    @pytest.mark.parametrize("text, quoted", [
        # json.load alone keeps the last of two equal fields and runs on
        ('"bs2_plus": true, "bs2_minus": true, "bs2_plus": false, "p": 1',
         "field 'bs2_plus' twice"),
        ('"bs2_plus": true, "bs2_minus": true, "p": 1, "p": 0', "field 'p' twice"),
        # only p reads a number's text as a reaction probability
        ('"bs2_plus": 0.5, "bs2_minus": true', "got 0.5"),
        ('"bs2_plus": 1e-5000, "bs2_minus": true', "got 1e-5000"),
        ('"bs2_plus": true, "bs2_minus": true, "backend": 0.5',
         "unknown backend 0.5"),
    ], ids=["bs2_plus-twice", "p-twice", "bs2_plus-0.5", "bs2_plus-1e-5000",
            "backend-0.5"])
    def test_config_text_exits_2(self, tmp_path, capsys, text, quoted):
        path = tmp_path / "config.json"
        path.write_text("{%s}" % text)
        assert main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and quoted in captured.err
        assert "reaction probability" not in captured.err
        assert "Fraction(" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, quoted", [
        ('"bs2_plus": true, "bs2_minus": true, "p": NaN',
         "reaction probability nan cannot be read as a rational"),
        ('"bs2_plus": true, "bs2_minus": true, "p": -Infinity',
         "reaction probability -inf cannot be read as a rational"),
        ('"bs2_plus": true, "bs2_minus": true, "p": null',
         "reaction probability None is not a real number"),
        ('"bs2_plus": true, "p": 1', "bs2_minus must be true or false, got None"),
        ('"bs2_plus": true, "bs2_minus": true, "backend": ["exact"]',
         "unknown backend ['exact']"),
    ], ids=["p-NaN", "p--Infinity", "p-null", "no-bs2_minus", "list-backend"])
    def test_field_value_refused_by_scenario_config_exits_2(self, tmp_path,
                                                            capsys, text, quoted):
        path = tmp_path / "config.json"
        path.write_text("{%s}" % text)
        assert main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {quoted}\n"
        assert captured.out == ""


class TestInputContract:
    """Undecodable, oversized or too deeply nested config input exits 2."""

    LAYOUT = '{"bs2_plus": true, "bs2_minus": true'

    def run_bytes(self, tmp_path, capsys, data: bytes):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        return main(["run", "--config", str(path)]), capsys.readouterr()

    def assert_config_error(self, tmp_path, capsys, data: bytes):
        code, captured = self.run_bytes(tmp_path, capsys, data)
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_not_utf8(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys,
                                 b"\xff\xfe" + (self.LAYOUT + "}").encode())

    def test_integer_literal_beyond_int_string_limit(self, tmp_path, capsys):
        text = self.LAYOUT + ', "p": 1' + "0" * 4999 + "}"
        self.assert_config_error(tmp_path, capsys, text.encode())

    def test_array_nested_100000_deep(self, tmp_path, capsys):
        text = self.LAYOUT + ', "p": ' + "[" * 100_000 + "]" * 100_000 + "}"
        self.assert_config_error(tmp_path, capsys, text.encode())

    @pytest.mark.parametrize("p_text, backend", [
        ("1e-5000", "float"),
        ("1e-1000000", "exact"),
        ("1E+401", "exact"),
        ("1e-5_000", "float"),
        ("1e-1_000_000", "exact"),
        ("0." + "0" * P_TEXT_MAX_CHARS + "1", "float"),
    ])
    def test_oversized_p_text(self, tmp_path, capsys, p_text, backend):
        text = self.LAYOUT + f', "p": "{p_text}", "backend": "{backend}"}}'
        self.assert_config_error(tmp_path, capsys, text.encode())

    def test_p_text_at_the_caps_runs(self, tmp_path, capsys):
        p_text = f"1e-{P_EXPONENT_MAX}".ljust(P_TEXT_MAX_CHARS)
        text = self.LAYOUT + f', "p": "{p_text}", "backend": "float"}}'
        code, captured = self.run_bytes(tmp_path, capsys, text.encode())
        assert code == 0
        assert f"p=1/1{'0' * P_EXPONENT_MAX} " in captured.out


class TestErrorEcho:
    """An error line quotes at most a bounded prefix of the offending value."""

    LAYOUT = TestInputContract.LAYOUT

    @pytest.mark.parametrize("text, code", [
        ('{"bs2_plus": "' + "x" * 1_000_000 + '", "bs2_minus": true}', 2),
        (LAYOUT + ', "p": 1' + "0" * 3999 + "}", 3),
        (LAYOUT + ', "p": [' + ", ".join(["1"] * 100_000) + "]}", 2),
        (LAYOUT + ', "backend": "' + "y" * 100_000 + '"}', 2),
        (LAYOUT + ', "p": "1e-400"}', 3),
    ], ids=["1MB-bs2_plus", "4000-digit-p", "100000-element-p", "long-backend",
            "irrational-sqrt-of-1e-400"])
    def test_huge_value_gives_a_short_error(self, tmp_path, capsys, text, code):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.encode()) < 300


class TestExports:
    def test_csv_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1")
        out_csv = tmp_path / "table.csv"
        assert main(["run", "--config", cfg, "--csv", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cond = {(r["detector_plus"], r["detector_minus"]):
                Fraction(r["prob_exact"])
                for r in rows if r["conditional"] == "true"}
        assert cond[("d", "d")] == Fraction(1, 12)
        assert cond[("c", "c")] == Fraction(3, 4)
        uncond = {(r["detector_plus"], r["detector_minus"]):
                  Fraction(r["prob_exact"])
                  for r in rows if r["conditional"] == "false"}
        assert uncond[("d", "d")] == Fraction(1, 16)
        assert uncond[("gamma", "gamma")] == Fraction(1, 4)

    def test_csv_round_trip_sqrt2_probabilities(self, tmp_path, capsys):
        # at p=1/2 exact probabilities live in Q(sqrt2), not Q
        from hardysim.amplitude import ExactScalar
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1/2")
        out_csv = tmp_path / "table.csv"
        assert main(["run", "--config", cfg, "--csv", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        uncond = {(r["detector_plus"], r["detector_minus"]):
                  ExactScalar.from_string(r["prob_exact"])
                  for r in rows if r["conditional"] == "false"}
        assert uncond[("d", "d")] == ExactScalar(
            Fraction(3, 32), Fraction(0), Fraction(-1, 16), Fraction(0))
        assert uncond[("gamma", "gamma")] == ExactScalar(Fraction(1, 8))

    def test_json_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1")
        out_json = tmp_path / "table.json"
        assert main(["run", "--config", cfg, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["config"] == "II"
        assert payload["reaction_probability"] == "1"
        probs = {(r["detector_plus"], r["detector_minus"], r["conditional"]):
                 r["prob_exact"] for r in payload["rows"]}
        assert Fraction(probs[("d", "d", "true")]) == Fraction(1, 12)
        assert Fraction(probs[("gamma", "gamma", "false")]) == Fraction(1, 4)

    # "" names the working directory, which no export may replace; a path
    # is quoted by echo, so a newline in it cannot start a second line
    @pytest.mark.parametrize("flag, target, quoted", [
        ("--csv", "missing/out", "'missing/out'"),
        ("--json", "missing/out", "'missing/out'"),
        ("--csv", "", "''"), ("--json", "", "''"),
        ("--csv", "missing/x\nerror: injected", "'missing/x\\nerror: injected'"),
        ("--json", "missing/" + "x" * 300, "'missing/" + "x" * 71 + "..."),
    ], ids=["--csv", "--json", "--csv-empty", "--json-empty", "--csv-newline",
            "--json-300-chars"])
    def test_unwritable_export_exits_2(self, tmp_path, capsys, monkeypatch,
                                       flag, target, quoted):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", cfg, flag, target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {quoted}: ")
        assert err.count("\n") == 1 and len(err) < 200
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_export_name_at_the_length_limit(self, tmp_path, capsys, flag):
        # the temp file's name has a fixed length, so any name the directory
        # takes can be exported to, also the temp file's own name
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1")
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        for name in ["x" * (name_max - 4) + ".out", f".hardysim-{os.getpid()}.tmp"]:
            assert main(["run", "--config", cfg, flag, str(tmp_path / name)]) == 0
            assert sorted(os.listdir(tmp_path)) == sorted(["config.json", name])
            assert (tmp_path / name).stat().st_size > 0
            os.unlink(tmp_path / name)

    def test_failed_export_leaves_no_partial_file(self, tmp_path, capsys,
                                                  monkeypatch):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        target = out_dir / "table.json"
        target.write_text("previous export\n")

        def dump_then_fail(payload, fh, **kwargs):
            fh.write('{"config": ')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("hardysim.cli.json.dump", dump_then_fail)
        assert main(["run", "--config", cfg, "--json", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert target.read_text() == "previous export\n"
        assert [p.name for p in out_dir.iterdir()] == ["table.json"]

    @pytest.mark.parametrize("flag, first_line", [
        ("--csv", ",".join(CSV_FIELDS)), ("--json", "{")])
    def test_export_through_a_symlink_writes_its_target(self, tmp_path,
                                                        monkeypatch, flag,
                                                        first_line):
        # a dangling relative link resolves from its directory, not the cwd
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p=0)
        (tmp_path / "real.out").write_text("previous export\n")
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        for name, dest in [("abs.out", str(tmp_path / "real.out")),
                          ("rel.out", "new.out")]:
            link = tmp_path / name
            link.symlink_to(dest)
            assert main(["run", "--config", cfg, flag, str(link)]) == 0
            assert link.is_symlink() and os.readlink(link) == dest
            assert (tmp_path / dest).read_text().splitlines()[0] == first_line
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "abs.out", "config.json", "cwd", "new.out", "real.out", "rel.out"]
        assert os.listdir() == []

    @pytest.mark.parametrize("flag, first_line", [
        ("--csv", ",".join(CSV_FIELDS)), ("--json", "{")])
    def test_export_to_a_pipe_writes_into_it(self, tmp_path, capsys, flag,
                                             first_line):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="0")
        fifo = tmp_path / "pipe.out"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, newline="") as fh:
                received.append(fh.read())

        # daemon: a reader still blocked on open after a failure cannot hang
        # the test session
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert main(["run", "--config", cfg, flag, str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received[0].splitlines()[0] == first_line
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


class TestTable:
    def test_runs_four_scenarios(self, capsys, monkeypatch):
        calls = []
        run_scenario = hardy.run_scenario

        def counted(cfg):
            calls.append(cfg.key)
            return run_scenario(cfg)
        monkeypatch.setattr(hardy, "run_scenario", counted)
        assert main(["table"]) == 0
        assert sorted(calls) == sorted(["OO", "IO", "OI", "II"])


class TestReports:
    @pytest.mark.parametrize("report", ["table", "lhv-audit", "hom"])
    def test_in_process_runs_equal_the_golden(self, capsys, report):
        # two runs in one process both print golden/<report>.txt: nothing
        # one run leaves behind changes the next
        with open(os.path.join(GOLDEN, f"{report}.txt"),
                  encoding="utf-8") as fh:
            golden = fh.read()
        for _ in range(2):
            assert main([report]) == 0
            assert capsys.readouterr().out == golden


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["table", "x\nerror: injected"],
        ["run", "--c=x\nerror: injected"],
        [],
        ["table", "x" * 1_000_000],
    ], ids=["unrecognized-argument", "ambiguous-option", "no-command",
            "1MB-argument"])
    def test_usage_error_is_one_short_line(self, capsys, argv):
        # argparse quotes an unrecognized argument and an ambiguous option
        # raw; a newline in either must not start a second error line
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 300


class TestImport:
    def test_cli_import_loads_only_what_every_command_needs(self):
        # lhv, bosonic and csv are imported by the commands that use them
        lazy = ["dataclasses", "inspect", "hardysim.lhv", "hardysim.bosonic",
                "csv"]
        code = ("import sys, hardysim.cli; "
                f"print(sorted(m for m in {lazy!r} if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


def run_cli(args, stdout, **env):
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, "-m", "hardysim.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          text=True, timeout=60)


class TestEntryPoint:
    """`python -m hardysim.cli` as a user runs it, lazy imports included. A
    golden's stdout and exports equal golden/<golden>.txt, .csv and .json
    byte for byte. A row with config fields runs them, and stderr is line."""

    @pytest.mark.parametrize("command, golden, config, code, line", [
        ("table", "table", None, 0, None),
        ("lhv-audit", "lhv-audit", None, 0, None),
        ("hom", "hom", None, 0, None),
        ("run", "run-exact-half", None, 0, None),
        ("run", "run-float-half", None, 0, None),
        ("run", None, dict(bs2_plus=True, bs2_minus=True, p="1/3"), 3,
         "error: sqrt(2/3) is not in Q(i, sqrt2)"),
    ], ids=["table", "lhv-audit", "hom", "run-exact-half", "run-float-half",
            "exact_1_3"])
    def test_output(self, tmp_path, command, golden, config, code, line):
        args = [command]
        if command == "run":
            path = os.path.join(GOLDEN, f"{golden}.config.json")
            if config:
                path = write_config(tmp_path, **config)
            args += ["--config", str(path), "--csv", str(tmp_path / "out.csv"),
                     "--json", str(tmp_path / "out.json")]
        with open(tmp_path / "out.txt", "wb") as fh:
            out = run_cli(args, fh)
        got = {f.suffix[1:]: f.read_bytes() for f in tmp_path.glob("out.*")}
        assert out.returncode == code
        assert out.stderr == (f"{line}\n" if line else "")
        if golden:
            for ext in ["txt", "csv", "json"] if command == "run" else ["txt"]:
                with open(os.path.join(GOLDEN, f"{golden}.{ext}"), "rb") as fh:
                    assert got.get(ext) == fh.read(), ext


HELP = [["--help"], ["run", "--help"]]
REPORTS = [["table"], ["lhv-audit"], ["hom"]]


class TestUnwritableStdout:
    """A report or help text whose stdout cannot be written ends in one
    error line and exit 2, with no traceback, also not from the
    interpreter's exit flush. A run with buffered stdout tries its exports
    first, and one that fails adds one line; unbuffered, the first print
    fails before any export is tried."""

    def run(self, args, stdout, export_errors=0, **env):
        out = run_cli(args, stdout, **env)
        assert out.returncode == 2
        *exports, line = out.stderr.splitlines()
        assert len(exports) == export_errors
        assert all(e.startswith("error: cannot write ") for e in exports)
        assert line.startswith("error: cannot write stdout: ")
        assert "Traceback" not in out.stderr
        assert "Exception ignored" not in out.stderr

    @pytest.mark.parametrize("args", REPORTS + HELP, ids=" ".join)
    def test_pipe_whose_reader_is_gone(self, args):
        read, write = os.pipe()
        os.close(read)
        try:
            self.run(args, write)
        finally:
            os.close(write)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("args", REPORTS + HELP, ids=" ".join)
    def test_full_device(self, args):
        with open("/dev/full", "w") as full:
            self.run(args, full)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered, export_errors", [("1", 0), ("", 1)],
                             ids=["unbuffered", "buffered"])
    def test_run_whose_export_fails_too(self, tmp_path, unbuffered,
                                        export_errors):
        cfg = write_config(tmp_path, bs2_plus=True, bs2_minus=True, p="1")
        args = ["run", "--config", cfg, "--csv", str(tmp_path / "no" / "x")]
        with open("/dev/full", "w") as full:
            self.run(args, full, export_errors, PYTHONUNBUFFERED=unbuffered)

    @pytest.mark.parametrize("args", HELP, ids=" ".join)
    def test_help_to_a_writable_stdout(self, args):
        out = run_cli(args, subprocess.PIPE)
        assert out.returncode == 0
        assert out.stdout.startswith("usage: hardysim")
        assert out.stderr == ""


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8)
p_values = json_values | st.sampled_from(
    ["0", "1", "1/2", "9/25", "0.777821", "1e-5", "-0", " 1 ", "1/0", "nan",
     "inf", "1e-5000", "1e99999", "1_0", "1e400", "1e-5_000",
     "1e4_0_0"]) | st.fractions(min_value=0, max_value=1).map(str)
configs = st.fixed_dictionaries(
    {"bs2_plus": st.booleans() | json_values,
     "bs2_minus": st.booleans() | json_values},
    optional={"p": p_values, "reaction_probability": p_values,
              "backend": st.sampled_from(["exact", "float"]) | json_values})
config_bytes = (st.binary(max_size=64)
                | json_values.map(lambda v: json.dumps(v).encode())
                | configs.map(lambda c: json.dumps(c).encode()))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(config_bytes)
    def test_any_config_exits_cleanly(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "wb") as fh:
                fh.write(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", "--config", config,
                             "--csv", os.path.join(tmp, "t.csv"),
                             "--json", os.path.join(tmp, "t.json")])
            assert code in (0, 2, 3)
            if code:
                assert err.getvalue().startswith("error:")
            left = sorted(os.listdir(tmp))
            exports = ["t.csv", "t.json"] if code == 0 else []
            assert left == sorted(["config.json"] + exports)
