import argparse
import contextlib
import fractions
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from corebound import cli, kernels, sweep
from corebound.cli import main
from corebound.sweep import FORMULA_METHODS, SWEEP_METHODS


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "corebound.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_fresh(argv):
    """{"code", "stdout", "stderr"} of ``corebound argv`` in a fresh process."""
    code, out, err = run_cli(*argv)
    return {"code": code, "stdout": out, "stderr": err}


class TestLocal:
    def test_connectivity_point(self, capsys):
        assert main(["local", "--u", "3", "--k", "3", "--p", "0.5",
                     "--r", "1", "--method", "connectivity"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "u,p,method,value,valid"
        assert out[1] == "3,0.5,connectivity,0.5,1"

    def test_trivial_base(self, capsys):
        assert main(["local", "--u", "1", "--k", "3", "--p", "0.9",
                     "--r", "1", "--method", "connectivity"]) == 0
        assert ",1.0,1" in capsys.readouterr().out

    def test_expected_edges_without_candidates_give_p_zero(self, capsys):
        # C(2, 3) = 0: no edge can exist, so --e-u sets p = 0
        assert main(["local", "--u", "2", "--k", "3", "--e-u", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "2,0.0,connectivity,0.0,1"

    def test_covering_via_expected_edges(self, capsys):
        assert main(["local", "--u", "200", "--k", "3", "--e-u", "200",
                     "--r", "1", "--method", "covering"]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
        assert 1.98e-4 <= value <= 2.42e-4

    def test_mc_columns(self, capsys):
        assert main(["local", "--u", "4", "--k", "3", "--p", "0.5", "--r", "1",
                     "--method", "mc", "--trials", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "u,p,method,value,valid,trials,stderr"

    def test_json_format(self, capsys):
        assert main(["local", "--u", "4", "--k", "3", "--p", "0.5",
                     "--method", "connectivity", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] == pytest.approx(0.6875)
        assert obj["valid"] is True

    def test_interleaved_local_methods(self, capsys):
        assert main(["local", "--u", "4", "--k", "3", "--p", "0.5", "--r", "2",
                     "--method", "interleaved-upper"]) == 0
        upper = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
        assert upper == pytest.approx(0.6875**2)
        assert main(["local", "--u", "4", "--k", "3", "--p", "0.5", "--r", "2",
                     "--method", "interleaved-lower"]) == 0
        lower = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
        assert lower <= upper

    def test_p_and_e_u_mutually_exclusive(self):
        code, _, _ = run_cli("local", "--u", "4", "--k", "3",
                             "--p", "0.5", "--e-u", "2", "--method", "connectivity")
        assert code == 2

    def test_missing_both(self):
        code, _, _ = run_cli("local", "--u", "4", "--k", "3", "--method", "connectivity")
        assert code == 2


class TestGlobal:
    def test_single_edge_mc(self, capsys):
        assert main(["global", "--v", "3", "--k", "3", "--p", "0.7", "--r", "1",
                     "--method", "mc", "--trials", "20000", "--seed", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        row = out[1].split(",")
        mean = float(row[header.index("mc_mean")])
        stderr = float(row[header.index("mc_stderr")])
        assert abs(mean - 0.7) <= 3.5 * stderr

    def test_below_edge_size_all_zero(self, capsys):
        assert main(["global", "--v", "2", "--k", "3", "--p", "0.5", "--r", "1",
                     "--method", "connectivity", "--method", "covering",
                     "--method", "mc", "--trials", "100"]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        row = out[1].split(",")
        assert float(row[header.index("connectivity")]) == 0.0
        assert float(row[header.index("covering")]) == 0.0
        assert float(row[header.index("mc_mean")]) == 0.0

    def test_lower_bound_above_one_is_flagged(self, capsys):
        assert main(["global", "--v", "30", "--k", "2", "--r", "1", "--e-v", "19",
                     "--method", "interleaved-lower"]) == 0
        assert capsys.readouterr().out == (
            "v,p,interleaved_lower,interleaved_lower_valid\n"
            "30,0.04367816091954023,1.0432557377610356,0\n")

    def test_binomial_past_double_range_is_flagged(self, capsys):
        # C(1040, 515) is above the double range: 0 * inf is a flagged nan
        assert main(["global", "--v", "1040", "--k", "515", "--p", "0", "--r", "1",
                     "--method", "covering"]) == 0
        assert capsys.readouterr().out == "v,p,covering,covering_valid\n1040,0.0,nan,0\n"

    @pytest.mark.parametrize("method", FORMULA_METHODS)
    def test_edge_size_past_index_range(self, capsys, method):
        # no size below k is read, so a k far past v costs no slot per size
        assert main(["global", "--v", "8", "--k", str(10**400), "--p", "0.5",
                     "--method", method]) == 0
        col = method.replace("-", "_")
        assert capsys.readouterr().out == f"v,p,{col},{col}_valid\n8,0.5,0.0,1\n"


class TestSweep:
    def test_csv_deterministic(self, tmp_path):
        args = ["sweep", "--k", "3", "--r", "2", "--overhead", "1.2",
                "--e-min", "3", "--e-max", "8", "--method", "interleaved-lower",
                "--method", "interleaved-upper", "--method", "mc",
                "--trials", "300", "--seed", "1234"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_row_and_columns(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["sweep", "--k", "3", "--r", "1", "--overhead", "1.0",
                     "--e-min", "3", "--e-max", "3", "--method", "connectivity",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "e_v,v,p,connectivity,connectivity_valid,connectivity_break"
        assert len(lines) == 2

    def test_emits_breakdown_summary(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--k", "3", "--r", "1", "--overhead", "1.0",
                     "--e-min", "4", "--e-max", "10", "--method", "covering",
                     "--scope", "local", "--out", str(out)]) == 0
        assert "breakdown_at covering=none" in capsys.readouterr().out

    def test_json_output(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sweep", "--k", "3", "--r", "1", "--overhead", "1.0",
                     "--e-min", "4", "--e-max", "6", "--method", "connectivity",
                     "--scope", "local", "--format", "json", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert [row["e_v"] for row in obj["rows"]] == [4, 5, 6]
        assert "connectivity" in obj["breakdown_at"]

    def test_csv_deterministic_across_processes(self, tmp_path):
        args = ("sweep", "--k", "3", "--r", "1", "--overhead", "1.0",
                "--e-min", "4", "--e-max", "7", "--method", "connectivity",
                "--method", "mc", "--trials", "200", "--seed", "31",
                "--scope", "local")
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert run_cli(*args, "--out", str(out1))[0] == 0
        assert run_cli(*args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_path_exit_3(self):
        code, _, err = run_cli("sweep", "--k", "3", "--r", "1", "--overhead", "1.0",
                               "--e-min", "3", "--e-max", "3",
                               "--method", "connectivity",
                               "--out", "/nonexistent-dir/x.csv")
        assert code == 3
        assert "cannot write" in err


class TestSweepSizeGuards:
    """A sweep that would hold more than ``SWEEP_ROW_GUARD`` rows, or whose
    largest e is past the double range, is refused with one error line before
    any row is computed and without an --out file."""

    def sweep_argv(self, e_max, out):
        return ["sweep", "--k", "3", "--overhead", "1e-300", "--e-min", "1",
                "--e-max", str(e_max), "--method", "covering", "--out", str(out)]

    @pytest.mark.parametrize("e_max", [2**16 + 1, 10**8])
    def test_row_guard_exit_2(self, capsys, tmp_path, monkeypatch, e_max):
        def unreachable(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(sweep, "formula_value", unreachable)
        out = tmp_path / "s.csv"
        assert main(self.sweep_argv(e_max, out)) == 2
        assert capsys.readouterr() == (
            "", f"error: sweep of {e_max} rows exceeds the row guard 65536\n")
        assert not out.exists()

    def test_row_guard_admits_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "SWEEP_ROW_GUARD", 4)
        assert main(self.sweep_argv(4, tmp_path / "four.csv")) == 0
        assert len((tmp_path / "four.csv").read_text().splitlines()) == 5
        assert main(self.sweep_argv(5, tmp_path / "five.csv")) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--k", "3", "--overhead", "1.0", "--e-min", "1", "--e-max", str(10**400),
         "--method", "covering"],
        ["breakdown", "--k", "3", "--method", "connectivity", "--cap", str(10**400)],
    ], ids=["sweep", "breakdown"])
    def test_largest_e_past_double_range_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: overhead * e_max = 1.0 * 1000000000... (401 digits) is not finite\n")


class TestOutputFile:
    ARGV = ["local", "--u", "3", "--k", "3", "--p", "0.5", "--method", "connectivity"]

    def test_writes_and_replaces(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        assert main([*self.ARGV, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "3,0.5,connectivity,0.5,1"
        assert out.stat().st_mode & 0o777 == 0o640
        assert [f.name for f in tmp_path.iterdir()] == ["x.csv"]

    def test_failed_write_keeps_old_bytes(self, tmp_path, monkeypatch, capsys):
        def partial(fh, *args):
            fh.write("u,p,met")
            fh.flush()
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_payload", partial)
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        assert main([*self.ARGV, "--out", str(out)]) == 3
        assert "cannot write" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["x.csv"]
        fresh = tmp_path / "new.csv"
        assert main([*self.ARGV, "--out", str(fresh)]) == 3
        assert [f.name for f in tmp_path.iterdir()] == ["x.csv"]

    def test_pipe_is_written_in_place(self, tmp_path, capsys):
        # a path that is not a regular file is opened and written, not
        # replaced by a renamed temp file
        assert main(self.ARGV) == 0
        expected = capsys.readouterr().out.encode()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main([*self.ARGV, "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert got == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.glob("*.tmp")) == []


class TestBreakdown:
    def test_no_breakdown_below_cap(self, capsys):
        assert main(["breakdown", "--k", "3", "--r", "1", "--method",
                     "covering", "--cap", "5"]) == 0
        assert capsys.readouterr().out == "no breakdown found for covering at or below e=5\n"

    def test_mc_rejected(self):
        code, _, _ = run_cli("breakdown", "--k", "3", "--r", "1", "--method", "mc")
        assert code == 2


class TestOracle:
    def test_at_least_one(self, capsys):
        assert main(["oracle", "--v", "4", "--k", "3", "--p", "0.5", "--r", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert float(row.split(",")[3]) == pytest.approx(15 / 16)

    def test_exactly_one_minimal(self, capsys):
        assert main(["oracle", "--v", "4", "--k", "3", "--p", "0.5", "--r", "1",
                     "--exactly-one", "minimal"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert float(row.split(",")[3]) == pytest.approx(0.25)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2])
    def test_maximal_value_is_at_least_one(self, k, r):
        # one maximal core set exists iff peeling leaves a nonempty core
        for p in ("0", "0.3", "0.5", "1"):
            argv = ["oracle", "--v", "6", "--k", str(k), "--p", p, "--r", str(r)]
            at_least_one = run_in_process(argv)["stdout"].splitlines()[1].split(",")
            maximal = run_in_process([*argv, "--exactly-one", "maximal"])["stdout"]
            assert maximal.splitlines()[1].split(",")[3] == at_least_one[3], p

    def test_guard_exit_2(self):
        code, _, _ = run_cli("oracle", "--v", "9", "--k", "3", "--p", "0.5")
        assert code == 2

    def test_exactly_one_with_k_one_below_v(self, capsys):
        # one edge among the C(20, 19) = 20 candidates: 20 / 2^20
        assert main(["oracle", "--v", "20", "--k", "19", "--p", "0.5", "--r", "1",
                     "--exactly-one", "minimal"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "1.9073486328125e-05"


def csv_rows(capsys):
    header, *rows = capsys.readouterr().out.splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def method_args(methods):
    return [a for m in methods for a in ("--method", m)]


class TestOnePathPerMethod:
    """Each formula method gives the same value and flag from every subcommand."""

    @pytest.mark.parametrize("method", FORMULA_METHODS)
    @pytest.mark.parametrize("overhead,e", [("1.6", "10"), ("1.2", "3")])
    def test_global_alone_together_and_sweep(self, capsys, method, overhead, e):
        assert main(["sweep", "--k", "3", "--r", "2", "--overhead", overhead,
                     "--e-min", e, "--e-max", e, *method_args(FORMULA_METHODS)]) == 0
        [swept] = csv_rows(capsys)
        point = ["global", "--v", swept["v"], "--p", swept["p"], "--k", "3", "--r", "2"]
        assert main([*point, *method_args(FORMULA_METHODS)]) == 0
        [together] = csv_rows(capsys)
        assert main([*point, "--method", method]) == 0
        [alone] = csv_rows(capsys)
        col = method.replace("-", "_")
        for key in (col, f"{col}_valid"):
            assert alone[key] == together[key] == swept[key]

    @pytest.mark.parametrize("method", FORMULA_METHODS)
    def test_local_matches_local_sweep(self, capsys, method):
        assert main(["sweep", "--k", "3", "--r", "2", "--overhead", "1.0",
                     "--e-min", "6", "--e-max", "12", "--scope", "local",
                     "--method", method]) == 0
        swept = {row["v"]: row for row in csv_rows(capsys)}
        col = method.replace("-", "_")
        for u in ("6", "9", "12"):
            assert main(["local", "--u", u, "--k", "3", "--e-u", u, "--r", "2",
                         "--method", method]) == 0
            [local] = csv_rows(capsys)
            assert (local["p"], local["value"], local["valid"]) == \
                (swept[u]["p"], swept[u][col], swept[u][f"{col}_valid"])


class TestUsageErrors:
    def test_unknown_method_exit_2(self):
        code, _, _ = run_cli("local", "--u", "4", "--k", "3", "--p", "0.5",
                             "--method", "astrology")
        assert code == 2

    def test_invalid_p_exit_2(self):
        code, _, _ = run_cli("local", "--u", "4", "--k", "3", "--p", "1.5",
                             "--method", "connectivity")
        assert code == 2

    @pytest.mark.parametrize("method", ["connectivity", "covering", "interleaved-lower",
                                        "interleaved-upper"])
    def test_subset_size_below_one_exit_2(self, capsys, method):
        for rate in (["--p", "0.5"], ["--e-u", "2"]):
            assert main(["local", "--u", "-3", "--k", "3", *rate, "--method", method]) == 2
            assert capsys.readouterr() == ("", "error: u must be >= 1, got -3\n")

    @pytest.mark.parametrize("v", ["0", "-2"])
    @pytest.mark.parametrize("method", SWEEP_METHODS)
    def test_vertex_count_below_one_exit_2(self, capsys, method, v):
        for rate in (["--p", "0.5"], ["--e-v", "2"]):
            assert main(["global", "--v", v, "--k", "3", *rate, "--method", method]) == 2
            assert capsys.readouterr() == ("", f"error: v must be >= 1, got {v}\n")

    @pytest.mark.parametrize("argv,message", [
        (["local", "--u", "4", "--k", "3", "--p", "0.5", "--e-u", "1"],
         "give exactly one of --p or --e-u/--e-v"),
        (["local", "--u", "4", "--k", "3", "--p", "1.5"], "p must lie in [0, 1], got 1.5"),
        (["local", "--u", "4", "--k", "3", "--p", "0.5", "--method", "gilbert"],
         "--method gilbert requires --k 2"),
        (["global", "--v", "5", "--k", "3", "--p", "0.5", "--method", "mc", "--trials", "0"],
         "trials must be >= 1, got 0"),
        (["sweep", "--k", "3", "--overhead", "1.0", "--e-min", "3", "--e-max", "3",
          "--trials", "0"], "trials must be >= 1, got 0"),
        (["oracle", "--v", "7", "--k", "3", "--p", "0.5"],
         "C(v, k) = 35 exceeds the enumeration guard 20"),
        (["sweep", "--k", "3", "--r", "2", "--overhead", "1e308", "--e-min", "2", "--e-max", "2",
          "--method", "covering"], "overhead * e_max = 1e+308 * 2 is not finite"),
        (["breakdown", "--k", "3", "--r", "2", "--overhead", "1e308", "--cap", "3",
          "--method", "covering"], "overhead * e_max = 1e+308 * 3 is not finite"),
        (["global", "--v", "5", "--k", "3", "--p", "0.5", "--method", "mc", "--seed", "-1"],
         "seed must be in [0, 2^64), got -1"),
        (["local", "--u", "4", "--k", "3", "--p", "0.5", "--method", "mc",
          "--seed", str(2**64)], f"seed must be in [0, 2^64), got {2**64}"),
        (["sweep", "--overhead", "1.2", "--e-min", "3", "--e-max", "6", "--k", "3", "--r", "2",
          "--method", "mc", "--trials", "50", f"--seed={2**64}"],
         f"seed must be in [0, 2^64), got {2**64}"),
        (["sweep", "--overhead", "1.2", "--e-min", "3", "--e-max", "6", "--k", "3", "--r", "2",
          "--method", "mc", "--trials", "50", "--seed=-1"], "seed must be in [0, 2^64), got -1"),
        (["local", "--u", "-3", "--k", "3", "--p", "0.1", "--method", "mc"],
         "u must be >= 1, got -3"),
        (["oracle", "--v", "-1", "--k", "3", "--e-v", "1"], "v must be >= 1, got -1"),
        # C(2, 3) = 0 edges fit, yet the expected count is still checked
        (["global", "--v", "2", "--k", "3", "--e-v", "-5"],
         "expected edge count -5.0 must be finite and >= 0"),
        (["global", "--v", "2", "--k", "3", "--e-v", "nan"],
         "expected edge count nan must be finite and >= 0"),
        (["local", "--u", "2", "--k", "3", "--e-u", "inf"],
         "expected edge count inf must be finite and >= 0"),
    ], ids=["p-and-e", "p-range", "gilbert-k", "global-trials", "sweep-trials", "oracle-guard",
            "sweep-overhead-overflow", "breakdown-overhead-overflow", "global-seed-negative",
            "local-seed-2^64", "sweep-seed-2^64", "sweep-seed-negative", "local-mc-u-negative",
            "oracle-e-v-negative", "global-e-v-negative-no-edges", "global-e-v-nan-no-edges",
            "local-e-u-inf-no-edges"])
    def test_bad_value_prints_one_error_line(self, capsys, argv, message):
        # argparse reports its own parse errors; every value check after it
        # prints the same single line and exits 2
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_missing_subcommand_exit_2(self):
        code, _, _ = run_cli()
        assert code == 2

    @pytest.mark.parametrize("bad", [["--cap", "0"], ["--overhead", "0"], ["--overhead", "-1"],
                                     ["--overhead", "inf"], ["--overhead", "nan"]],
                             ids=["cap-0", "overhead-0", "overhead-neg", "overhead-inf",
                                  "overhead-nan"])
    def test_breakdown_bad_scan_range_exit_2(self, bad):
        code, out, err = run_cli("breakdown", "--k", "3", "--method", "connectivity",
                                 "--cap", "20", *bad)
        assert code == 2
        assert out == ""
        assert "must be" in err

    BREAKDOWN = ["breakdown", "--k", "3", "--method", "covering", "--cap", "5"]
    ORACLE = ["oracle", "--v", "4", "--k", "3", "--p", "0.5"]

    @pytest.mark.parametrize("argv", [
        [*BREAKDOWN, "--seed", "3"], [*BREAKDOWN, "--trials", "3"],
        [*BREAKDOWN, "--format", "json"], [*BREAKDOWN, "--out", "b.txt"],
        [*ORACLE, "--seed", "3"], [*ORACLE, "--trials", "3"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_subcommand_does_not_read_exit_2(self, capsys, tmp_path, monkeypatch,
                                                      argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["local", "--u", "12", "--k", "3", "--p", "0.1", "--method", "interleaved-lower"],
        ["global", "--v", "12", "--k", "3", "--p", "0.1", "--method", "interleaved-lower"],
        ["sweep", "--k", "3", "--overhead", "1.2", "--e-min", "3", "--e-max", "3",
         "--method", "connectivity"],
        ["breakdown", "--k", "3", "--method", "connectivity"],
        ["oracle", "--v", "4", "--k", "3", "--p", "0.5"],
        ["local", "--u", "4", "--k", "2", "--p", "0.5", "--method", "gilbert"],
        ["local", "--u", "4", "--k", "3", "--p", "0.5", "--method", "mc", "--trials", "10"],
    ], ids=["local", "global", "sweep", "breakdown", "oracle", "local-gilbert", "local-mc"])
    def test_core_order_below_one_exit_2(self, argv):
        got = run_in_process([*argv, "--r", "0"])
        assert got == {"code": 2, "stdout": "", "stderr": "error: r must be >= 1, got 0\n"}

    # n = 4 vertices; each --e-* value makes p = 1.5
    @pytest.mark.parametrize("argv, rate", [
        (["local", "--u", "4", "--k", "3", "--method", "connectivity"], "--e-u=6"),
        (["local", "--u", "4", "--k", "2", "--method", "gilbert"], "--e-u=9"),
        (["local", "--u", "4", "--k", "3", "--method", "mc", "--trials", "10"], "--e-u=6"),
        (["global", "--v", "4", "--k", "3", "--method", "connectivity"], "--e-v=6"),
        (["global", "--v", "4", "--k", "3", "--method", "mc", "--trials", "10"], "--e-v=6"),
        (["oracle", "--v", "4", "--k", "3"], "--e-v=6"),
    ], ids=["local-formula", "local-gilbert", "local-mc", "global-formula", "global-mc",
            "oracle"])
    def test_probability_above_one_exit_2(self, tmp_path, argv, rate):
        for given in ("--p=1.5", rate):
            out = tmp_path / "out.csv"
            got = run_in_process([*argv, given, "--out", str(out)])
            assert got == {"code": 2, "stdout": "",
                           "stderr": "error: p must lie in [0, 1], got 1.5\n"}
            assert not out.exists()


class TestEdgeSizePastVertexCount:
    """At k > v no candidate edge exists, so a draw or an oracle walks none of
    the k edge slots: at k = 10^8 each prints what it prints at k = 6."""

    @pytest.mark.parametrize("argv, stdout", [
        (["local", "--u", "5", "--p", "0.5", "--method", "mc", "--trials", "10"],
         "u,p,method,value,valid,trials,stderr\n5,0.5,mc,0.0,1,10,0.0\n"),
        (["oracle", "--v", "5", "--p", "0.5"], "v,p,kind,value\n5,0.5,at-least-one,0.0\n"),
    ], ids=["local-mc", "oracle"])
    def test_prints_the_bytes_of_k_6(self, argv, stdout):
        for k in ("100000000", "6"):
            assert run_in_process([*argv, "--k", k]) == {"code": 0, "stdout": stdout,
                                                         "stderr": ""}


BIG = str(10**400)


class TestModelPastDoubleRange:
    """An r past the double range is refused by the model check, with exit 2 and
    one error line, on every route that reads r.  A k past it is not refused:
    at u < k no candidate edge exists, and covering forms no k / u there."""

    @pytest.mark.parametrize("argv", [
        *([scope, f"--{n}", "5", "--k", "3", "--p", "0.5", "--method", method, "--trials", "10"]
          for scope, n in (("local", "u"), ("global", "v"))
          for method in (*FORMULA_METHODS, "mc")),
        *(["sweep", "--k", "3", "--overhead", "1.6", "--e-min", "3", "--e-max", "3",
           "--method", method] for method in ("interleaved-lower", "interleaved-upper")),
        *(["breakdown", "--k", "3", "--cap", "5", "--method", method]
          for method in ("interleaved-lower", "interleaved-upper")),
        ["oracle", "--v", "5", "--k", "3", "--p", "0.5"],
    ], ids=lambda argv: "-".join([argv[0],
                                  *(m for f, m in zip(argv, argv[1:]) if f == "--method")]))
    def test_core_order_exit_2(self, argv):
        assert run_in_process([*argv, "--r", BIG]) == {
            "code": 2, "stdout": "",
            "stderr": "error: r must lie in the double range, got 1000000000... (401 digits)\n"}

    def test_local_covering_edge_size(self):
        argv = ["local", "--u", "5", "--k", BIG, "--p", "0.5", "--method", "covering"]
        assert run_in_process(argv) == {
            "code": 0, "stdout": "u,p,method,value,valid\n5,0.5,covering,0.0,1\n", "stderr": ""}


README = Path(__file__).parent.parent / "README.md"


def readme_commands():
    """The argv after ``corebound`` of each command in README.md's fenced
    blocks, its backslash-continued lines joined into one."""
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("corebound ")]


class TestReadmeExamples:
    def test_seven_commands(self):
        assert [argv[0] for argv in readme_commands()] == [
            "local", "global", "sweep", "sweep", "breakdown", "oracle", "oracle"]

    @pytest.mark.parametrize("argv", readme_commands(),
                             ids=[f"{i}-{argv[0]}" for i, argv in enumerate(readme_commands())])
    def test_parses(self, argv):
        assert cli.build_parser().parse_args(argv).command == argv[0]


class TestNegativeZeroProbability:
    @pytest.mark.parametrize("argv", [
        ["local", "--u", "5", "--k", "3", "--e-u", "-0.0"],
        ["global", "--v", "6", "--k", "3", "--p", "-0.0"],
        ["oracle", "--v", "5", "--k", "3", "--p", "-0.0"],
    ], ids=lambda argv: argv[0])
    def test_prints_as_zero(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "0.0"
        assert main([*argv, "--format", "json"]) == 0
        assert '\n  "p": 0.0,\n' in capsys.readouterr().out


class TestExpectedEdgesPastDoubleRange:
    """--e-u / --e-v over a candidate count C(n, k) past the double range
    resolve to e / C(n, k) rounded once, and each route exits cleanly."""

    C = math.comb(1100, 550)  # about 3.3e329

    @pytest.mark.parametrize("e", ["1", "1e300"])
    def test_covering_resolves_p(self, capsys, e):
        assert main(["local", "--u", "1100", "--k", "550", "--e-u", e,
                     "--method", "covering"]) == 0
        p = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert p == float(fractions.Fraction(float(e)) / self.C)
        assert (p == 0.0) == (e == "1")  # 1 / C underflows; 1e300 / C is about 3.06e-30

    @pytest.mark.parametrize("argv, guard", [
        (["oracle", "--v", "1100", "--k", "550", "--e-v", "1"], "enumeration guard 20"),
        (["local", "--u", "1100", "--k", "550", "--e-u", "1", "--method", "mc"],
         f"generation guard {2**31}"),
    ], ids=["oracle", "mc"])
    def test_guarded_routes_exit_2(self, capsys, argv, guard):
        # the 330-digit count is written as its first 10 digits and digit count
        assert str(self.C).startswith("3266933136") and len(str(self.C)) == 330
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: C(v, k) = 3266933136... (330 digits) exceeds the {guard}\n")

    @pytest.mark.parametrize("argv, guard", [
        (["oracle", "--v", "20000", "--k", "10000", "--e-v", "1"], "enumeration guard 20"),
        (["local", "--u", "20000", "--k", "10000", "--e-u", "1", "--method", "mc"],
         f"generation guard {2**31}"),
    ], ids=["oracle", "mc"])
    def test_count_past_str_limit(self, capsys, argv, guard):
        # C(20000, 10000) has 6019 digits, past str()'s default 4300-digit limit
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: C(v, k) = 2245602662... (6019 digits) exceeds the {guard}\n")


class TestCompositionGuard:
    """A v past the size-composition guard is refused with one short line that
    writes a long v as the other guards write a long count."""

    @pytest.mark.parametrize("argv, v", [
        (["global", "--v", "2049", "--k", "3", "--e-v", "10", "--r", "2",
          "--method", "covering"], "2049"),
        (["global", "--v", str(10**60), "--k", "3", "--e-v", "10", "--r", "2",
          "--method", "connectivity"], "1000000000... (61 digits)"),
        (["sweep", "--k", "3", "--r", "1", "--overhead", "1e308", "--e-min", "1",
          "--e-max", "1", "--method", "connectivity"], "1000000000... (309 digits)"),
    ], ids=["v=2049", "61 digits", "309 digits"])
    def test_long_v_exits_2(self, capsys, argv, v):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: v = {v} exceeds the size-composition guard 2048\n")


class TestRecursionGuard:
    """A local size u past the recursion guard is refused with one short line
    before any row of the O(u^2) recursion is built; u = 2048 still runs
    (the "local weights past double range" pin)."""

    @pytest.mark.parametrize("argv, u", [
        (["local", "--u", "20000", "--k", "3", "--p", "0.001"], "20000"),
        (["local", "--u", "2049", "--k", "3", "--p", "0.001",
          "--method", "interleaved-upper"], "2049"),
        (["local", "--u", "20000", "--k", "2", "--p", "0.001", "--method", "gilbert"], "20000"),
        (["sweep", "--scope", "local", "--k", "3", "--overhead", "1e6", "--e-min", "1",
          "--e-max", "1", "--method", "connectivity"], "1000000"),
        (["sweep", "--scope", "local", "--k", "3", "--r", "1", "--overhead", "1e308",
          "--e-min", "1", "--e-max", "1", "--method", "connectivity"],
         "1000000000... (309 digits)"),
    ], ids=["connectivity", "interleaved", "gilbert", "sweep", "sweep 309 digits"])
    def test_long_u_exits_2(self, capsys, argv, u):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: u = {u} exceeds the local-recursion guard 2048\n")


# ---------------------------------------------------------------------------
# Pinned output bytes
# ---------------------------------------------------------------------------

PINNED_PATH = Path(__file__).parent / "data" / "cli_pinned.json"

_FORMULA_ARGS = [a for m in FORMULA_METHODS for a in ("--method", m)]
# label -> argv; every case but ``breakdown`` runs once per --format
PINNED_CASES = {
    "local connectivity": ["local", "--u", "4", "--k", "3", "--p", "0.5", "--r", "1",
                           "--method", "connectivity"],
    "local broken recursion": ["local", "--u", "120", "--k", "3", "--e-u", "120",
                               "--method", "connectivity"],
    "local interleaved-lower": ["local", "--u", "4", "--k", "3", "--p", "0.5", "--r", "2",
                                "--method", "interleaved-lower"],
    "local cancelling infinities": ["local", "--u", "460", "--k", "3", "--e-u", "460",
                                    "--method", "connectivity"],
    "local gilbert": ["local", "--u", "6", "--k", "2", "--p", "0.3", "--method", "gilbert"],
    "local mc": ["local", "--u", "6", "--k", "3", "--e-u", "6", "--r", "2",
                 "--method", "mc", "--trials", "200", "--seed", "5"],
    "global every method": ["global", "--v", "24", "--k", "3", "--e-v", "12", "--r", "2",
                            *_FORMULA_ARGS, "--method", "mc", "--trials", "200",
                            "--seed", "7"],
    "global vacuous upper bound": ["global", "--v", "4", "--k", "3", "--p", "1", "--r", "2",
                                   "--method", "covering"],
    "global invalid lower bound": ["global", "--v", "5", "--k", "3", "--p", "0.5",
                                   "--r", "2", "--method", "interleaved-lower",
                                   "--method", "interleaved-upper"],
    "global nan": ["global", "--v", "11", "--k", "3", "--e-v", "11", "--r", "2",
                   "--method", "connectivity"],
    **{f"global v={v}": ["global", "--v", v, "--k", "3", "--p", "0.5", *_FORMULA_ARGS,
                         "--method", "mc"] for v in ("0", "-2")},
    "sweep global": ["sweep", "--k", "3", "--r", "2", "--overhead", "1.2", "--e-min", "3",
                     "--e-max", "8", *_FORMULA_ARGS, "--method", "mc", "--trials", "100",
                     "--seed", "1234"],
    "sweep local breakdown_at": ["sweep", "--k", "3", "--r", "1", "--overhead", "1.0",
                                 "--e-min", "80", "--e-max", "86", "--scope", "local",
                                 "--method", "connectivity", "--method", "covering"],
    "sweep local cancelling infinities": ["sweep", "--k", "3", "--r", "1", "--overhead", "1.0",
                                          "--e-min", "458", "--e-max", "461", "--scope", "local",
                                          "--method", "connectivity"],
    "global cancelling infinities": ["global", "--v", "400", "--k", "3", "--e-v", "200",
                                     "--r", "2", "--method", "interleaved-lower"],
    "oracle at-least-one": ["oracle", "--v", "5", "--k", "3", "--p", "0.5", "--r", "2"],
    "oracle exactly-one": ["oracle", "--v", "4", "--k", "3", "--p", "0.5", "--r", "1",
                           "--exactly-one", "minimal"],
    "oracle exactly-one maximal": ["oracle", "--v", "4", "--k", "3", "--p", "0.5", "--r", "1",
                                   "--exactly-one", "maximal"],
    # p = 0 and p = 1 run the formulas, the stream draw and the oracles at
    # the ends of their ranges
    **{f"local p={p} {method}": ["local", "--u", "5", "--k", "3", "--p", p, "--r", "2",
                                 "--method", method,
                                 *(["--trials", "200", "--seed", "5"] if method == "mc" else [])]
       for p in ("0", "1") for method in (*FORMULA_METHODS, "mc")},
    "local p=1 gilbert": ["local", "--u", "6", "--k", "2", "--p", "1", "--method", "gilbert"],
    # eps(1030, 515) = C(1030, 515) - 2 is past the double range, every
    # weight C(1029, i - 1) is not
    "local p=1 crossing count past double range": ["local", "--u", "1030", "--k", "515",
                                                   "--p", "1", "--method", "connectivity"],
    # from u = 1031 the weights C(u - 1, i - 1) are past the double range too
    "local weights past double range": ["local", "--u", "2048", "--k", "2", "--p", "0.5"],
    "local p=1 weights past double range": ["local", "--u", "1031", "--k", "2", "--p", "1",
                                            "--r", "3", "--method", "interleaved-upper"],
    # covering refuses a sum past COVERING_TERM_GUARD terms or at a C(u, k)
    # past the double range
    **{f"local covering refused u={u}": ["local", "--u", u, "--k", k, "--p", "0.5",
                                         "--method", "covering"]
       for u, k in (("60", "30"), ("200", "100"), ("1030", "515"))},
    **{f"global p={p} every method": ["global", "--v", "6", "--k", "3", "--p", p, "--r", "2",
                                      *_FORMULA_ARGS, "--method", "mc", "--trials", "200",
                                      "--seed", "7"] for p in ("0", "1")},
    **{f"oracle p={p} {kind}": ["oracle", "--v", "5", "--k", "3", "--p", p, "--r", "2", *extra]
       for p in ("0", "1")
       for kind, extra in (("at-least-one", []), ("exactly-one", ["--exactly-one", "minimal"]),
                           ("exactly-one maximal", ["--exactly-one", "maximal"]))},
    "breakdown": ["breakdown", "--k", "3", "--r", "1", "--method", "connectivity",
                  "--scope", "local"],
    "breakdown none": ["breakdown", "--k", "3", "--r", "1", "--method", "covering",
                       "--cap", "5"],
    **{f"breakdown {scope} {method} r={r}": ["breakdown", "--k", "3", "--r", str(r),
                                             "--method", method, "--scope", scope,
                                             "--cap", str(cap)]
       for scope, cap in (("local", 120), ("global", 40))
       for r in (1, 2) for method in FORMULA_METHODS},
}


def pinned_runs():
    """(label, argv) of every pinned run."""
    runs = []
    for label, argv in PINNED_CASES.items():
        if argv[0] == "breakdown":
            runs.append((label, argv))
        else:
            runs += [(f"{label} {fmt}", [*argv, "--format", fmt]) for fmt in ("csv", "json")]
    return runs


def run_in_process(argv):
    """{"code", "stdout", "stderr"} of ``main(argv)``, or of the exit that
    argparse raises for ``--help`` or a rejected argument."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record_pinned():
    """Rewrite the pinned file from the current code.  Only for a change that
    alters CLI output on purpose:
    ``PYTHONPATH=src python3 -c "import tests.test_cli as t; t.record_pinned()"``"""
    doc = {label: {"argv": argv, **run_in_process(argv)} for label, argv in pinned_runs()}
    PINNED_PATH.parent.mkdir(exist_ok=True)
    PINNED_PATH.write_text(json.dumps(doc, indent=1) + "\n")


class TestCliPinned:
    """stdout, stderr and exit code of each subcommand, in CSV and JSON, byte
    for byte as first recorded."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(PINNED_PATH.read_text())

    @pytest.mark.parametrize("label, argv", pinned_runs(), ids=[run[0] for run in pinned_runs()])
    def test_run(self, pinned, label, argv):
        assert pinned[label]["argv"] == argv
        assert run_in_process(argv) == {k: pinned[label][k] for k in ("code", "stdout", "stderr")}

    def test_json_stdout_is_strict_json(self, pinned):
        # RFC 8259 has no NaN or Infinity tokens: a broken value is written as null
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        runs = [run for label, run in pinned.items()
                if label.endswith(" json") and run["code"] == 0]
        assert runs
        for run in runs:
            json.loads(run["stdout"], parse_constant=reject)

    def test_every_run_pinned(self, pinned):
        assert list(pinned) == [label for label, _ in pinned_runs()]


# A fresh interpreter runs main(argv), then prints whether numpy was imported.
# It asks for numpy._core, not numpy: kernels puts its lazy module in
# sys.modules["numpy"] before numpy's first use.
FRESH_CHILD = """\
import sys
from corebound.cli import main
code = main(sys.argv[1:])
print("numpy._core" in sys.modules)
sys.exit(code)
"""


THREAD_CHILD = """\
import sys
import threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self), start(self))[1]
from corebound.cli import main
code = main(sys.argv[1:])
pool = any(name in sys.modules for name in ("concurrent.futures", "multiprocessing"))
print(len(started), threading.active_count(), pool)
sys.exit(code)
"""

# Sets WORKERS before its first Monte Carlo command, so worker threads start
# before any thread has read numpy's lazy module.
WORKERS_CHILD = """\
import sys
from corebound import kernels
from corebound.cli import main
kernels.WORKERS = 3
sys.exit(main(sys.argv[1:]))
"""

ONE_CPU_CHILD = """\
import os
import sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from corebound import kernels
from corebound.cli import main
code = main(sys.argv[1:])
print(kernels.WORKERS)
sys.exit(code)
"""


class TestFreshInterpreter:
    """Formula commands run without importing numpy; Monte Carlo and the
    oracles import it on first use and print what they print in-process.
    (The other tests never take this path: their modules import numpy first.)"""

    @pytest.mark.parametrize("argv, numpy_imported", [
        (PINNED_CASES["local connectivity"], False),
        (["global", "--v", "20", "--k", "3", "--e-v", "12.5", "--r", "2", *_FORMULA_ARGS], False),
        (PINNED_CASES["sweep local breakdown_at"], False),
        (PINNED_CASES["breakdown none"], False),
        (PINNED_CASES["breakdown global covering r=2"], False),
        (PINNED_CASES["global every method"], True),
        (PINNED_CASES["oracle at-least-one"], True),
        (PINNED_CASES["oracle exactly-one"], True),
    ], ids=["local", "global-formula", "sweep-local", "breakdown-local", "breakdown-global",
            "global-mc", "oracle", "oracle-exactly-one"])
    def test_numpy_imported_on_first_use(self, argv, numpy_imported):
        proc = subprocess.run([sys.executable, "-c", FRESH_CHILD, *argv],
                              capture_output=True, text=True)
        expected = run_in_process(argv)
        assert expected["code"] == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, expected["stdout"] + f"{numpy_imported}\n", expected["stderr"])

    @pytest.mark.parametrize("argv, starts_threads", [
        (PINNED_CASES["local connectivity"], False),
        (["global", "--v", "20", "--k", "3", "--e-v", "12.5", "--r", "2", *_FORMULA_ARGS], False),
        (PINNED_CASES["sweep local breakdown_at"], False),
        (PINNED_CASES["breakdown none"], False),
        (PINNED_CASES["breakdown global covering r=2"], False),
        (PINNED_CASES["global every method"], True),
    ], ids=["local", "global-formula", "sweep-local", "breakdown-local", "breakdown-global",
            "global-mc"])
    def test_formula_commands_start_no_thread(self, argv, starts_threads):
        # a Monte Carlo run may count on threads, but joins them before it
        # returns, and no command imports a pool module
        proc = subprocess.run([sys.executable, "-c", THREAD_CHILD, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        started, active, pool = proc.stdout.splitlines()[-1].split()
        assert (active, pool) == ("1", "False")
        assert started == "0" or starts_threads

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
    def test_one_cpu_prints_the_same_bytes(self, monkeypatch):
        # the child pins itself to one CPU before the import, so it counts on
        # one thread; the run here counts the same command's trials on three
        argv = PINNED_CASES["global every method"]
        proc = subprocess.run([sys.executable, "-c", ONE_CPU_CHILD, *argv],
                              capture_output=True, text=True)
        monkeypatch.setattr(kernels, "WORKERS", 3)
        expected = run_in_process(argv)
        assert expected["code"] == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, expected["stdout"] + "1\n", expected["stderr"])

    def test_workers_start_before_numpy_is_imported(self, monkeypatch):
        argv = ["global", "--v", "12", "--k", "3", "--p", "0.1", "--method", "mc",
                "--trials", "200"]
        proc = subprocess.run([sys.executable, "-c", WORKERS_CHILD, *argv],
                              capture_output=True, text=True)
        monkeypatch.setattr(kernels, "WORKERS", 3)
        expected = run_in_process(argv)
        assert expected["code"] == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, expected["stdout"], expected["stderr"])


class TestParserReuse:
    """``main`` builds its parser once per process, and calls in one process
    print what fresh processes print."""

    ORACLE = ["oracle", "--v", "6", "--k", "2", "--p", "0.5", "--r", "2"]
    GLOBAL = ["global", "--v", "12", "--k", "3", "--p", "0.1"]

    def test_second_call_adds_no_argument(self, capsys, monkeypatch):
        assert main(self.ORACLE) == 0
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(parser, *args, **kwargs):
            calls.append(args)
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert main(self.ORACLE) == 0
        assert calls == []

    def test_appended_methods_do_not_leak(self):
        runs = [[*self.GLOBAL, "--method", "covering"], self.GLOBAL]
        in_process = [run_in_process(argv) for argv in runs]
        assert in_process == [run_fresh(argv) for argv in runs]
        assert in_process[1]["stdout"].splitlines()[0] == "v,p,connectivity,connectivity_valid"

    def test_valid_call_after_a_rejection(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        runs = [[*self.GLOBAL, "--r", "0"], self.GLOBAL]
        in_process = [run_in_process(argv) for argv in runs]
        assert [run["code"] for run in in_process] == [2, 0]
        assert in_process == [run_fresh(argv) for argv in runs]

    @pytest.mark.parametrize("argv", [["--help"], ["global", "--help"]], ids=["top", "global"])
    def test_help_after_a_run(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_in_process(self.ORACLE)["code"] == 0
        assert run_in_process(argv) == run_fresh(argv)
