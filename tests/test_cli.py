import json
import os
import signal
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from supercong import cli, verifier
from supercong.hypergeom import SeriesSpec, pfq_truncated
from supercong.verifier import DEFAULT_CHECKS, CheckId, CheckOutcome, Report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_json_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "a1,trace", "--pmin", "3", "--pmax", "15", "--no-timing"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["fail"] == 0
        assert {row["check"] for row in obj["outcomes"]} == {"A1", "TRACE_RELATION"}

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "verify", "--checks", "wolstenholme", "--pmin", "5", "--pmax", "20",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0 and out == ""
        lines = target.read_text().splitlines()
        assert lines[0].startswith("check,p,status")
        assert len(lines) == 1 + 6  # header + primes 5..19

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        failing = Report("0", 3, 3, (CheckOutcome(CheckId.A1, 3, "fail"),))
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: failing)
        code, _, _ = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "3")
        assert code == 1

    def test_out_overwrites_a_longer_file(self, capsys, tmp_path):
        argv = ("verify", "--checks", "a1", "--pmin", "3", "--pmax", "7", "--no-timing")
        _, stdout, _ = run_cli(capsys, *argv)
        target = tmp_path / "report.json"
        target.write_text("x" * 2 * len(stdout))
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == stdout

    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_out_that_cannot_be_written_is_a_usage_error(self, capsys, monkeypatch, tmp_path,
                                                          target):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli, "run_suite", no_sweep)
        code, out, err = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "5",
                                 "--out", str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_usage_error_leaves_out_as_it_was(self, capsys, tmp_path):
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_text("an earlier report")
        for target in (kept, fresh):
            code, _, err = run_cli(capsys, "verify", "--pmin", "7", "--pmax", "3",
                                   "--out", str(target))
            assert code == 2 and err.startswith("error: pmin 7 exceeds pmax 3")
        assert kept.read_text() == "an earlier report"
        assert not fresh.exists()

    def test_default_checks(self):
        assert cli.build_parser().parse_args(["verify"]).checks == DEFAULT_CHECKS

    def test_one_worker_by_default(self):
        assert cli.build_parser().parse_args(["verify"]).workers == 1

    def test_bad_check_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--checks", "nope"])
        assert info.value.code == 2


class TestCheckThatRaises:
    ARGV = ("verify", "--checks", "a3", "--pmin", "3", "--pmax", "13", "--no-timing")

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_is_a_fail_row_on_any_worker_count(self, capsys, monkeypatch, error):
        code, clean, _ = run_cli(capsys, *self.ARGV)
        assert code == 0

        def broken(x, p, k):
            raise error("boom")

        monkeypatch.setattr(verifier, "gamma_p", broken)
        outputs = []
        for workers in ("1", "2"):
            code, out, err = run_cli(capsys, *self.ARGV, "--workers", workers)
            assert code == 1 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["summary"] == {"pass": 3, "fail": 2, "skipped": 0}
        for row, before in zip(report["outcomes"], json.loads(clean)["outcomes"], strict=True):
            if row["p"] % 4 == 1:  # only that branch calls Gamma_p
                assert row["status"] == "fail" and row["note"] == f"{error.__name__}: boom"
                assert row["lhs"] is row["rhs"] is row["modulus"] is None
            else:
                assert row == before


def sigkill_self(p):
    os.kill(os.getpid(), signal.SIGKILL)


def exit_quietly(p):
    raise SystemExit(0)


def unpicklable_outcome(p):
    return verifier.CheckOutcome(verifier.CheckId.A3, p, "pass", note=lambda: None)


class TestDeadWorker:
    ARGV = ("verify", "--checks", "a3", "--pmin", "3", "--pmax", "13", "--no-timing")

    @pytest.mark.parametrize("death, note", [
        (sigkill_self, f"worker exited with signal {signal.SIGKILL.value}"),
        (exit_quietly, "worker exited with status 1"),
        (unpicklable_outcome, "worker exited with status 1"),
    ])
    def test_its_share_becomes_fail_rows(self, capfd, monkeypatch, death, note):
        code, out, _ = run_cli(capfd, *self.ARGV, "--workers", "1")
        assert code == 0
        clean = json.loads(out)["outcomes"]

        parent, real = os.getpid(), verifier.check_a3

        def dying(p, *rest):
            return death(p) if os.getpid() != parent else real(p, *rest)

        monkeypatch.setattr(verifier, "check_a3", dying)
        code, out, err = run_cli(capfd, *self.ARGV, "--workers", "2")
        assert code == 1 and err == ""
        report = json.loads(out)  # nothing but the report reaches stdout
        assert report["summary"] == {"pass": 3, "fail": 2, "skipped": 0}
        for i, (row, before) in enumerate(zip(report["outcomes"], clean, strict=True)):
            if i % 2:  # share 1 of primes 3, 5, 7, 11, 13
                assert row == dict(before, status="fail", lhs=None, rhs=None, modulus=None, note=note)
            else:
                assert row == before

    def test_without_fork_two_workers_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        code, out, err = run_cli(capsys, *self.ARGV, "--workers", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "os.fork" in err


class TestOpenBlasThreads:
    SRC = str(Path(__file__).resolve().parents[1] / "src")
    PROBE = ("import os, sys, supercong.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
             "sys.platform == 'linux' and print(next(l for l in open('/proc/self/status') "
             "if l.startswith('Threads:')).split()[1])")

    def probe(self, preset):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (self.SRC, env.get("PYTHONPATH"))))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", self.PROBE], env=env,
                              capture_output=True, text=True, check=True)
        return proc.stdout.split()

    def test_numpy_loads_without_a_thread_pool(self):
        out = self.probe(None)
        assert out[0] == "1"
        if sys.platform == "linux":
            assert out[1] == "1"

    def test_a_preset_value_survives(self):
        assert self.probe("2")[0] == "2"


class TestOtherCommands:
    def test_eta_csv(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--limit", "7")
        assert code == 0
        assert out.splitlines()[0] == "n,a_n"
        assert out.splitlines()[3] == "3,-4"

    def test_eta_json(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--limit", "5", "--out", "json")
        obj = json.loads(out)
        assert obj["a"] == [[1, 1], [2, 0], [3, -4], [4, 0], [5, -2]]

    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--p", "7", "--brute")
        assert code == 0
        assert "N(7) = 214" in out and "brute force: 214" in out

    def test_gammap(self, capsys):
        code, out, _ = run_cli(capsys, "gammap", "--p", "5", "--k", "2", "--x", "1/2")
        assert code == 0
        assert "18 (mod 5^2)" in out

    def test_count_brute_over_its_cap_prints_nothing(self, capsys):
        code, out, err = run_cli(capsys, "count", "--p", "17", "--brute")
        assert code == 2 and out == ""
        assert err == "error: --brute is capped at p <= 13, got 17\n"

    @pytest.mark.parametrize("p", ["2", "9"])
    def test_count_rejects_non_odd_prime(self, capsys, p):
        code, out, err = run_cli(capsys, "count", "--p", p)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_gammap_non_integral_x_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gammap", "--p", "5", "--k", "2", "--x", "1/5")
        assert code == 2 and out == ""
        assert err == "error: --x 1/5 is not 5-integral\n"

    @pytest.mark.parametrize("p, k", [("6", "2"), ("7", "-1")])
    def test_gammap_bad_modulus_is_usage_error(self, capsys, p, k):
        code, out, err = run_cli(capsys, "gammap", "--p", p, "--k", k, "--x", "1/5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_identity_b1(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--which", "b1", "--p", "7")
        assert code == 0
        assert out.splitlines() == [
            "lhs   = 6249392/8873007", "rhs   = 6249392/8873007", "equal = True"
        ]

    @pytest.mark.parametrize("which, p", [("b1", "9"), ("b1", "2"), ("c3", "15"), ("c3", "3")])
    def test_identity_rejects_non_prime(self, capsys, which, p):
        # 9 is odd and 15 = 3 (mod 4), but neither is prime
        code, out, err = run_cli(capsys, "identity", "--which", which, "--p", p)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_identity_sides_of_any_size(self, capsys):
        # at p = 2003 each side has more digits than str(int) converts by default (4300)
        code, out, _ = run_cli(capsys, "identity", "--which", "b1", "--p", "2003")
        assert code == 0
        lhs, rhs, equal = out.splitlines()
        assert lhs.startswith("lhs   = ") and rhs.startswith("rhs   = ")
        assert lhs[8:] == rhs[8:] and len(lhs) > 4300 and equal == "equal = True"

    def test_identity_c1_missing_args(self, capsys):
        code, _, err = run_cli(capsys, "identity", "--which", "c1")
        assert code == 2
        assert "needs --n and --y" in err

    def test_identity_c1(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--which", "c1", "--n", "0", "--y", "1/3")
        assert code == 0
        assert "3/8" in out

    def test_hyper(self, capsys):
        code, out, _ = run_cli(
            capsys, "hyper", "--top", "1/2,1/2,1/2,1/2", "--bottom", "1,1,1",
            "--z", "1", "--terms", "1",
        )
        assert code == 0
        assert out.strip() == "17/16"

    def test_hyper_of_any_size(self, capsys):
        code, out, _ = run_cli(
            capsys, "hyper", "--top", "1/3,2/7", "--bottom", "7/11", "--z", "5/13", "--terms", "1500"
        )
        assert code == 0 and len(out) > 4300
        value = F(*(int(Decimal(part)) for part in out.strip().split("/")))
        assert value == pfq_truncated(SeriesSpec((F(1, 3), F(2, 7)), (F(7, 11),), F(5, 13), 1500))

    @pytest.mark.parametrize("attached", [False, True])
    @pytest.mark.parametrize("command, option, value, rest, expected", [
        ("hyper", "--top", "-1/2,1", ("--bottom", "1", "--z", "1", "--terms", "3"),
         pfq_truncated(SeriesSpec((F(-1, 2), F(1)), (F(1),), F(1), 3))),
        ("hyper", "--z", "-1/3", ("--top", "1/2", "--bottom", "1", "--terms", "3"),
         pfq_truncated(SeriesSpec((F(1, 2),), (F(1),), F(-1, 3), 3))),
        ("hyper", "--z", "-.5", ("--top", "1", "--bottom", "1", "--terms", "2"), "5/8"),
        ("gammap", "--x", "-7/3", ("--p", "5", "--k", "2"), "Gamma_5(-7/3) = 24 (mod 5^2)"),
    ])
    def test_negative_rational_values(self, capsys, command, option, value, rest, expected,
                                      attached):
        # argparse alone reads a value such as -1/3, neither an int nor a decimal, as an
        # option; written as --z -1/3 or --z=-1/3 it is the value
        given = (f"{option}={value}",) if attached else (option, value)
        code, out, err = run_cli(capsys, command, *given, *rest)
        assert (code, out, err) == (0, f"{expected}\n", "")

    def test_hyper_vanishing_bottom_pochhammer_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "hyper", "--top", "1", "--bottom", "-1", "--z", "1", "--terms", "3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
