import json
from fractions import Fraction as F

import pytest

from supercong import verifier
from supercong.eta import TABLE_MAX_BOUND
from supercong.exact import TRACE_I, TRACE_OMEGA, ConjugatePair, pochhammer, reduce_mod, vp
from supercong.variety import CONV_MAX_P
from supercong.verifier import (
    CheckId,
    CheckOutcome,
    ConfigError,
    Report,
    check_a1,
    check_a2,
    check_a3,
    check_a3_swisher,
    check_a4,
    check_b1_identity,
    check_b4,
    check_b6,
    check_c1_identity,
    check_c3_identity,
    check_c5,
    check_trace,
    check_wolstenholme,
    emit_report,
    parse_report,
    primes_between,
    run_suite,
)


class TestPrimesBetween:
    def test_small_ranges(self):
        assert primes_between(3, 20) == [3, 5, 7, 11, 13, 17, 19]
        assert primes_between(2, 2) == [2]
        assert primes_between(24, 28) == []
        assert len(primes_between(2, 1000)) == 168


class TestIndividualChecks:
    def test_a1_p3_residues(self):
        outcome = check_a1(3)
        assert outcome.status == "pass"
        assert outcome.lhs_residue.value == outcome.rhs_residue.value == 23
        assert outcome.modulus == 27

    def test_a1_skips_even(self):
        outcome = check_a1(2)
        assert outcome.status == "skipped"
        assert "odd" in outcome.note

    def test_a2_skips_small(self):
        outcome = check_a2(3)
        assert outcome.status == "skipped"
        assert "p >= 5" in outcome.note
        assert check_a2(5).status == "pass"

    def test_a3_both_branches(self):
        assert check_a3(3).status == "pass"
        assert check_a3(5).status == "pass"
        assert check_a3(13).status == "pass"

    def test_a4_skip_and_pass(self):
        assert check_a4(5).status == "skipped"
        assert check_a4(3).status == "skipped"
        assert check_a4(7).status == "pass"
        assert check_a4(11).status == "pass"

    def test_swisher_skip_and_pass(self):
        assert check_a3_swisher(7).status == "skipped"
        assert check_a3_swisher(53).status == "skipped"  # over the cost cap
        assert check_a3_swisher(13).status == "pass"

    def test_b4_b6(self):
        assert check_b4(3).status == "skipped"
        assert check_b4(5).status == "pass"
        assert check_b4(7).status == "pass"
        assert check_b6(5).status == "pass"
        assert check_b6(7).status == "pass"

    def test_b6_ratio_collapses_to_even_product(self):
        import math

        from supercong.exact import pochhammer

        for p in (5, 7, 11):
            m = (p - 1) // 2
            ratio = (
                pochhammer(1 + F(p, 2), m) * pochhammer(1 - F(p, 2), m) / pochhammer(F(1), m) ** 2
            )
            expected = math.prod((1 - F(p * p, 4 * j * j) for j in range(1, m + 1)), start=F(1))
            assert ratio == expected

    def test_c5(self):
        assert check_c5(5).status == "skipped"
        assert check_c5(7).status == "pass"
        assert check_c5(11).status == "pass"

    def test_wolstenholme(self):
        assert check_wolstenholme(3).status == "skipped"
        assert check_wolstenholme(5).status == "pass"
        assert check_wolstenholme(1093).status == "pass"

    def test_trace(self):
        outcome = check_trace(7)
        assert outcome.status == "pass"
        assert "a(p)=24" in outcome.note and "N(p)=214" in outcome.note

    def test_identity_checks(self):
        assert check_b1_identity(7).status == "pass"
        assert check_c3_identity(7).status == "pass"
        assert check_c3_identity(13).status == "skipped"
        outcome = check_c1_identity(2, F(1, 3))
        assert outcome.status == "pass"
        assert outcome.p == 2 and "y=1/3" in outcome.note


class TestRunSuite:
    def test_a1_sweep_passes(self):
        report = run_suite(3, 50, {CheckId.A1}, workers=4)
        assert all(o.status == "pass" for o in report.outcomes)
        assert report.summary["fail"] == 0

    def test_a4_single_skipped(self):
        report = run_suite(5, 5, {CheckId.A4}, workers=1)
        assert len(report.outcomes) == 1
        assert report.outcomes[0].status == "skipped"
        assert report.outcomes[0].note  # the violated hypothesis is named

    def test_empty_check_set_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(3, 50, set())

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(50, 3, {CheckId.A1})

    def test_summary_matches_tallies(self):
        report = run_suite(3, 30, {CheckId.A2, CheckId.WOLSTENHOLME}, workers=1)
        for status in ("pass", "fail", "skipped"):
            assert report.summary[status] == sum(1 for o in report.outcomes if o.status == status)

    def test_skips_always_noted(self):
        report = run_suite(3, 30, {CheckId.A4, CheckId.A3_SWISHER, CheckId.B4}, workers=1)
        assert all(o.note for o in report.outcomes if o.status == "skipped")

    def test_deterministic_across_workers(self):
        kwargs = dict(timestamp="fixed")
        r1 = run_suite(3, 20, {CheckId.A1, CheckId.A3, CheckId.TRACE_RELATION}, workers=1, **kwargs)
        r2 = run_suite(3, 20, {CheckId.A1, CheckId.A3, CheckId.TRACE_RELATION}, workers=3, **kwargs)
        assert emit_report(r1, include_timing=False) == emit_report(r2, include_timing=False)
        assert r1 == r2  # outcome equality ignores elapsed_ms

    def test_worker_default_from_environment(self, monkeypatch):
        from supercong.verifier import default_workers

        monkeypatch.setenv("SUPERCONG_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("SUPERCONG_WORKERS")
        assert default_workers() == 1


class TestReports:
    def sample_report(self):
        return run_suite(3, 15, {CheckId.A1, CheckId.TRACE_RELATION}, workers=1, timestamp="t0")

    def test_json_round_trip(self):
        report = self.sample_report()
        assert parse_report(emit_report(report)) == report

    def test_json_schema_fields(self):
        obj = json.loads(emit_report(self.sample_report()).decode())
        assert list(obj) == ["version", "pmin", "pmax", "outcomes", "summary"]
        first = obj["outcomes"][0]
        assert list(first) == ["check", "p", "status", "lhs", "rhs", "modulus", "note", "elapsed_ms"]
        assert first["check"] == "A1" and first["p"] == 3
        assert first["lhs"] == first["rhs"] == "23" and first["modulus"] == "27"

    def test_csv_columns(self):
        lines = emit_report(self.sample_report(), fmt="csv").decode().splitlines()
        assert lines[0] == "check,p,status,lhs,rhs,modulus,note,elapsed_ms"
        assert lines[1].startswith("A1,3,pass,23,23,27")

    def test_empty_report_summary_zeros(self):
        report = Report("0", "t", 3, 3, (), {"pass": 0, "fail": 0, "skipped": 0})
        obj = json.loads(emit_report(report).decode())
        assert obj["outcomes"] == []
        assert obj["summary"] == {"pass": 0, "fail": 0, "skipped": 0}

    def test_timing_column_is_optional(self):
        data = emit_report(self.sample_report(), include_timing=False)
        assert b"elapsed_ms" not in data

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit_report(self.sample_report(), fmt="xml")


class TestOutcomeInvariants:
    def test_pass_iff_residues_equal(self):
        from supercong.exact import ResidueInt
        from supercong.verifier import _residue_outcome

        equal = _residue_outcome(CheckId.A1, 3, ResidueInt(1, 3, 3), ResidueInt(1, 3, 3))
        differ = _residue_outcome(CheckId.A1, 3, ResidueInt(1, 3, 3), ResidueInt(2, 3, 3))
        assert equal.status == "pass"
        assert differ.status == "fail"


# the Fraction forms the checks used before they worked in Z/p^k: oracles for the residues


def b4_exact(p):
    m = (p - 1) // 2
    num = pochhammer(F(1, 2), m) * pochhammer(F(1 - p, 2), m)
    return num / ConjugatePair(F(1), F(p, 2), TRACE_OMEGA).pochhammer(m)


def b6_exact(p):
    """The ratio and its Taylor form 1 - (p^2/4) sum_{j<=m} 1/j^2."""
    m = (p - 1) // 2
    ratio = pochhammer(1 + F(p, 2), m) * pochhammer(1 - F(p, 2), m) / pochhammer(F(1), m) ** 2
    harmonic = sum((F(1, j * j) for j in range(1, m + 1)), F(0))
    return ratio, 1 - F(p * p, 4) * harmonic


def c5_exact(p):
    """-(p^3/16) prod_{j<q} (j^2 + p^2/16) / prod_{j<=q} ((j - 1/2)^2 + p^2/16), q = (p+1)/4."""
    q = (p + 1) // 4
    num = ConjugatePair(F(1), F(p, 4), TRACE_I).pochhammer(q - 1)
    return -F(p**3, 16) * num / ConjugatePair(F(1, 2), F(p, 4), TRACE_I).pochhammer(q)


PRIMES_5_TO_400 = primes_between(5, 400)


class TestResiduesAgainstFractionForms:
    @pytest.mark.parametrize("p", PRIMES_5_TO_400)
    def test_b4(self, p):
        outcome = check_b4(p)
        assert outcome.lhs_residue == reduce_mod(b4_exact(p), p, 3)
        assert outcome.status == "pass"

    @pytest.mark.parametrize("p", PRIMES_5_TO_400)
    def test_b6(self, p):
        ratio, taylor = b6_exact(p)
        outcome = check_b6(p)
        assert outcome.lhs_residue == reduce_mod(ratio, p, 4)
        assert outcome.rhs_residue == reduce_mod(taylor, p, 4)
        assert vp(ratio - 1, p) >= 3 and outcome.status == "pass"

    @pytest.mark.parametrize("p", [p for p in PRIMES_5_TO_400 if p % 4 == 3 and p >= 7])
    def test_c5(self, p):
        assert check_c5(p).lhs_residue == reduce_mod(c5_exact(p), p, 4)

    @pytest.mark.parametrize("p", PRIMES_5_TO_400)
    def test_wolstenholme(self, p):
        harmonic = sum((F(1, j * j) for j in range(1, (p - 1) // 2 + 1)), F(0))
        assert check_wolstenholme(p).lhs_residue == reduce_mod(harmonic, p, 1)

    def test_b6_failure_names_both_parts(self, monkeypatch):
        # a product that is off by p^2 fails the mod p^3 test and the Taylor form
        real = verifier.pochhammer_mod

        def off(param, n, p, k):
            value = real(param, n, p, k)
            return value * (1 + p * p) if param == 1 + F(p, 2) else value

        monkeypatch.setattr(verifier, "pochhammer_mod", off)
        outcome = check_b6(7)
        assert outcome.status == "fail"
        assert outcome.note == "product != 1 mod p^3; Taylor form fails mod p^4"


FIRST_PRIME_OVER_CAPS = 524309  # the least prime above 2^19


class TestCostCaps:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a capped check did work")

        monkeypatch.setattr(verifier, "a_p", refuse)
        monkeypatch.setattr(verifier, "count_N", refuse)

    def test_caps_are_the_int64_bounds(self):
        assert TABLE_MAX_BOUND == CONV_MAX_P == 1 << 19 < FIRST_PRIME_OVER_CAPS

    def test_trace_over_the_count_cap_is_skipped(self, no_work):
        outcome = check_trace(FIRST_PRIME_OVER_CAPS, FIRST_PRIME_OVER_CAPS)
        assert outcome.status == "skipped"
        assert outcome.note == f"cost cap: p <= {CONV_MAX_P} for the int64 point count"

    @pytest.mark.parametrize("check", [check_a1, check_a2, check_trace])
    def test_eta_bound_over_the_table_cap_is_skipped(self, no_work, check):
        outcome = check(7, TABLE_MAX_BOUND + 1)
        assert outcome.status == "skipped"
        assert outcome.note == f"cost cap: eta bound <= {TABLE_MAX_BOUND} for the int64 table"

    def test_sweep_above_the_caps_finishes(self, no_work):
        p = FIRST_PRIME_OVER_CAPS
        checks = {CheckId.A1, CheckId.A2, CheckId.TRACE_RELATION}
        report = run_suite(p, p, checks, workers=1)
        assert [o.status for o in report.outcomes] == ["skipped"] * 3
        assert all(o.note.startswith("cost cap:") for o in report.outcomes)
