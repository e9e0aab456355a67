import json
from decimal import Decimal
from fractions import Fraction as F

import pytest

from supercong import cli, verifier
from supercong.hypergeom import SeriesSpec, pfq_truncated
from supercong.verifier import DEFAULT_CHECKS, Report


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
        failing = Report("0", "t", 3, 3, (), {"pass": 0, "fail": 1, "skipped": 0})
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: failing)
        code, _, _ = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "3")
        assert code == 1

    def test_default_checks(self):
        assert cli.build_parser().parse_args(["verify"]).checks == DEFAULT_CHECKS

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

    def test_hyper_vanishing_bottom_pochhammer_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "hyper", "--top", "1", "--bottom", "-1", "--z", "1", "--terms", "3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
