import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from corebound import cli
from corebound.cli import main
from corebound.sweep import FORMULA_METHODS


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "corebound.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


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

    def test_binomial_past_double_range_is_flagged(self, capsys):
        # C(1040, 515) is above the double range: 0 * inf is a flagged nan
        assert main(["global", "--v", "1040", "--k", "515", "--p", "0", "--r", "1",
                     "--method", "covering"]) == 0
        assert capsys.readouterr().out == "v,p,covering,covering_valid\n1040,0.0,nan,0\n"


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

    def test_guard_exit_2(self):
        code, _, _ = run_cli("oracle", "--v", "9", "--k", "3", "--p", "0.5")
        assert code == 2


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
        assert main(["local", "--u", "-3", "--k", "3", "--p", "0.5", "--method", method]) == 2
        assert capsys.readouterr() == ("", "error: u must be >= 1, got -3\n")

    @pytest.mark.parametrize("v", ["0", "-2"])
    @pytest.mark.parametrize("method", cli.GLOBAL_METHODS)
    def test_vertex_count_below_one_exit_2(self, capsys, method, v):
        assert main(["global", "--v", v, "--k", "3", "--p", "0.5", "--method", method]) == 2
        assert capsys.readouterr() == ("", f"error: v must be >= 1, got {v}\n")

    @pytest.mark.parametrize("argv,message", [
        (["local", "--u", "4", "--k", "3", "--p", "0.5", "--e-u", "1"],
         "give exactly one of --p or --e-u/--e-v"),
        (["local", "--u", "4", "--k", "3", "--p", "1.5"], "edge probability 1.5 outside [0, 1]"),
        (["local", "--u", "4", "--k", "3", "--p", "0.5", "--method", "gilbert"],
         "--method gilbert requires --k 2"),
        (["global", "--v", "5", "--k", "3", "--p", "0.5", "--method", "mc", "--trials", "0"],
         "trials must be >= 1, got 0"),
        (["sweep", "--k", "3", "--overhead", "1.0", "--e-min", "3", "--e-max", "3",
          "--trials", "0"], "trials must be >= 1, got 0"),
        (["oracle", "--v", "7", "--k", "3", "--p", "0.5"],
         "C(v, k) = 35 exceeds the enumeration guard 20"),
    ], ids=["p-and-e", "p-range", "gilbert-k", "global-trials", "sweep-trials", "oracle-guard"])
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
    ], ids=lambda argv: argv[0])
    def test_core_order_below_one_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--r", "0"])
        assert exc.value.code == 2
        assert "core order must be >= 1" in capsys.readouterr().err


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
    """{"code", "stdout", "stderr"} of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
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
