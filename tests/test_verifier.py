import functools
import json
import os
import signal
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest

from oracles import pair_pochhammer, pfq_residue, pochhammer_mod
from supercong import hypergeom, verifier
from supercong.eta import TABLE_MAX_BOUND
from supercong.exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    ResidueInt,
    is_prime,
    pochhammer,
    reduce_mod,
    vp,
)
from supercong.padic_gamma import gamma_p
from supercong.variety import CONV_MAX_P
from supercong.verifier import (
    DECLARATIONS,
    DEFAULT_CHECKS,
    QUARTER,
    CheckId,
    CheckOutcome,
    ConfigError,
    GammaSide,
    Report,
    check_a1,
    check_a2,
    check_a3,
    check_a4,
    check_b1,
    check_b4,
    check_b6,
    check_c1,
    check_c3,
    check_c5,
    check_swisher,
    check_trace,
    check_wolstenholme,
    emit_report,
    parse_report,
    primes_between,
    run_suite,
    sweep_leaves,
)

# the checks whose Pochhammer symbols a sweep reads off one tree for all primes at once
PRODUCTS = {CheckId.B4, CheckId.B6, CheckId.C5}

# the checks that read Gamma_p(1/4), computed once per prime for all of them
GAMMA = {CheckId.A3, CheckId.A4, CheckId.A3_SWISHER, CheckId.C5}

# the checks with a side that a sweep computes for all primes at once
BATCHED = {CheckId.A1, CheckId.A2, CheckId.A3, CheckId.A4, CheckId.A3_SWISHER,
           CheckId.WOLSTENHOLME} | PRODUCTS


class TestPrimesBetween:
    def test_small_ranges(self):
        assert primes_between(3, 20) == [3, 5, 7, 11, 13, 17, 19]
        assert primes_between(2, 2) == [2]
        assert primes_between(24, 28) == []
        assert len(primes_between(2, 1000)) == 168

    @pytest.mark.parametrize("lo, hi", [
        (-7, 60), (0, 2), (2, 3), (0, 1), (-5, -1), (9, 8), (100, 50), (17, 17),
        (49, 200), (121, 400), (961, 1200),  # windows that start at q^2 of a base prime q
        (100, 121), (99999800, 100000000),
    ])
    def test_window_matches_is_prime(self, lo, hi):
        assert primes_between(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


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
        assert check_swisher(7).status == "skipped"
        assert check_swisher(53).status == "skipped"  # over the cost cap
        assert check_swisher(13).status == "pass"

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

    def test_trace_hand_values(self):
        # a(p) = p^3 - 2p^2 - 7 - N(p): 27 - 18 - 7 - 6, 125 - 50 - 7 - 70, 343 - 98 - 7 - 214
        for p, coeff, n_count in ((3, -4, 6), (5, -2, 70), (7, 24, 214)):
            assert p**3 - 2 * p**2 - 7 - n_count == coeff
            outcome = check_trace(p)
            assert outcome.status == "pass"
            assert outcome.note == f"a(p)={coeff} N(p)={n_count}"

    def test_trace_rejects_wrong_coefficient(self, monkeypatch):
        real = verifier.a_p
        monkeypatch.setattr(verifier, "a_p", lambda p: real(p) + 1)
        outcome = check_trace(3)
        assert outcome.status == "fail"
        assert outcome.note == "a(p)=-3 N(p)=6"

    @pytest.mark.parametrize("check", [check_a1, check_a2, check_trace])
    def test_eta_checks_above_a_thousand(self, check):
        # a direct call above p = 1000 needs no table setting: a_p sizes the table from p
        assert check(1009).status == "pass"

    def test_identity_checks(self):
        assert check_b1(7).status == "pass"
        assert check_c3(7).status == "pass"
        assert check_c3(13).status == "skipped"
        outcome = check_c1(2, F(1, 3))
        assert outcome.status == "pass"
        assert outcome.p == 2 and "y=1/3" in outcome.note

    def test_identity_failure_note_of_any_size(self, monkeypatch):
        # each b1 side at p = 2003 has more digits than str(int) converts by default
        real = hypergeom.bailey_b1_check(2003)
        num, den = real.lhs_pair
        wrong = hypergeom.IdentityOutcome(real.lhs_pair, (num + den, den))
        monkeypatch.setattr(verifier, "bailey_b1_check", lambda p: wrong)
        outcome = check_b1(2003)
        assert outcome.status == "fail"
        lhs, rhs = outcome.note.split(" ")
        assert lhs.startswith("lhs=") and rhs.startswith("rhs=") and len(lhs) > 4300

        def parse(text):
            return F(*(int(Decimal(part)) for part in text.split("/")))

        assert (parse(lhs[4:]), parse(rhs[4:])) == (real.lhs, real.lhs + 1)


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
        r1 = run_suite(3, 20, {CheckId.A1, CheckId.A3, CheckId.TRACE_RELATION}, workers=1)
        r2 = run_suite(3, 20, {CheckId.A1, CheckId.A3, CheckId.TRACE_RELATION}, workers=3)
        assert emit_report(r1, include_timing=False) == emit_report(r2, include_timing=False)
        assert r1 == r2  # outcome equality ignores elapsed_ms


def counting_forks(monkeypatch) -> list[int]:
    """Patch os.fork to record the pid of every child it makes."""
    real = os.fork
    pids = []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkedWorkers:
    # the first k odd primes, for sweeps of k A1 tasks
    PRIMES = primes_between(3, 19)

    def test_every_outcome_comes_back_once(self):
        for k in range(8):
            pmin, pmax = (3, self.PRIMES[k - 1]) if k else (4, 4)
            one = run_suite(pmin, pmax, {CheckId.A1}, workers=1)
            assert [o.p for o in one.outcomes] == self.PRIMES[:k]
            for workers in range(2, 6):
                many = run_suite(pmin, pmax, {CheckId.A1}, workers=workers)
                assert [o.p for o in many.outcomes] == self.PRIMES[:k], (k, workers)
                assert emit_report(many, include_timing=False) == emit_report(one, include_timing=False)

    def test_no_idle_child(self, monkeypatch):
        pids = counting_forks(monkeypatch)
        report = run_suite(3, 5, {CheckId.A1}, workers=8)
        assert len(report.outcomes) == 2 and len(pids) == 1
        run_suite(3, 19, {CheckId.A1}, workers=1)
        assert len(pids) == 1  # one worker forks nothing

    def test_without_fork_more_workers_is_a_config_error(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ConfigError, match="os.fork"):
            run_suite(3, 5, {CheckId.A1}, workers=2)
        assert run_suite(3, 5, {CheckId.A1}, workers=1).summary["pass"] == 2

    def test_dead_c1_worker_rows_keep_their_y(self, monkeypatch):
        parent = os.getpid()
        real = verifier.check_c1

        def dying(n, y):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(n, y)

        monkeypatch.setattr(verifier, "check_c1", dying)
        tasks = [(CheckId.C1_IDENTITY, (n, y)) for n in range(3) for y in verifier.C1_SAMPLE_YS[:2]]
        outcomes = verifier._run_forked(tasks, 2)
        assert [o.status for o in outcomes] == ["pass"] * 3 + ["fail"] * 3
        for o, (_, (n, y)) in zip(outcomes[3:], tasks[1::2], strict=True):
            assert (o.p, o.note) == (n, f"y={y} worker exited with signal {signal.SIGKILL.value}")

    def test_a_raising_share_takes_the_children_down(self, monkeypatch):
        pids = counting_forks(monkeypatch)
        parent = os.getpid()

        def stuck_or_interrupted(p, *rest):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(verifier, "check_a1", stuck_or_interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_suite(3, 19, {CheckId.A1}, workers=3)
        assert time.perf_counter() - start < 30
        assert len(pids) == 2 and all(reaped(pid) for pid in pids)


def direct_symbols(check, p):
    """The Pochhammer symbols of check_b4, check_b6 or check_c5 at p, one factor at a time."""
    m, q = (p - 1) // 2, (p + 1) // 4
    if check is CheckId.B4:
        return (pochhammer_mod(F(1, 2), m, p, 3), pochhammer_mod(F(1 - p, 2), m, p, 3),
                pochhammer_mod(ConjugatePair(F(1), F(p, 2), TRACE_OMEGA), m, p, 3))
    if check is CheckId.B6:
        return (pochhammer_mod(1 + F(p, 2), m, p, 4), pochhammer_mod(1 - F(p, 2), m, p, 4),
                pochhammer_mod(1, m, p, 4))
    return (pochhammer_mod(ConjugatePair(F(1), F(p, 4), TRACE_I), q - 1, p, 4),
            pochhammer_mod(ConjugatePair(F(1, 2), F(p, 4), TRACE_I), q, p, 4))


def sides_at(check, p, leaves):
    """Each side of check at p, read from its leaves."""
    return tuple(side.read(p, leaf) for side, leaf in zip(DECLARATIONS[check].sides, leaves))


@functools.cache
def sweep(lo, hi):
    return run_suite(lo, hi, BATCHED, workers=1)


class TestBatchedSides:
    def test_sides_match_the_single_prime_sums(self):
        primes = primes_between(2, 400)
        leaves = sweep_leaves(primes, BATCHED)
        single = {
            CheckId.A1: lambda p: pfq_residue(hypergeom.kilbourn_spec(p), p, 3),
            CheckId.A2: lambda p: pfq_residue(hypergeom.thm1_spec(p), p, 3, e=1),
            CheckId.A3: lambda p: pfq_residue(hypergeom.vanhamme_spec(p), p, 3),
            CheckId.A4: lambda p: pfq_residue(hypergeom.vanhamme_spec(p), p, 4),
            CheckId.A3_SWISHER: lambda p: pfq_residue(hypergeom.vanhamme_spec(p), p, 5),
            CheckId.B6: lambda p: pfq_residue(hypergeom.half_harmonic2_spec(p), p, 4),
            CheckId.WOLSTENHOLME: lambda p: pfq_residue(hypergeom.half_harmonic2_spec(p), p, 1),
        }
        assert leaves.keys() == BATCHED
        for check, sum_at in single.items():
            at = leaves[check]
            assert at, check
            assert {p: sides_at(check, p, at[p])[0] for p in at} == {p: sum_at(p) for p in at}, check
        # the primes each check would skip are left out
        assert min(leaves[CheckId.A2]) == 5 and 2 not in leaves[CheckId.A1]
        assert all(p % 4 == 1 and p <= verifier.SWISHER_MAX_P for p in leaves[CheckId.A3_SWISHER])
        assert sorted(leaves[CheckId.C5]) == [p for p in primes if p % 4 == 3 and p >= 7]
        assert sorted(leaves[CheckId.B4]) == sorted(leaves[CheckId.B6]) == primes_between(5, 400)

    def test_sweep_reads_the_batched_side(self, monkeypatch):
        monkeypatch.setattr(verifier, "pfq_residues",
                            lambda family, primes, k, e=0: [ResidueInt(0, p, k) for p in primes])
        report = run_suite(3, 40, {CheckId.A1}, workers=1)
        assert [o.rhs_residue for o in report.outcomes] == [ResidueInt(0, o.p, 3) for o in report.outcomes]

    def test_sweep_reads_the_batched_symbols(self, monkeypatch):
        # (1+y)_n = 1 at every leaf makes every symbol 1 except the 4^-m and 16^-q scales
        monkeypatch.setattr(verifier, "rising_coefficients",
                            lambda leaves, k: [[1] + [0] * (k - 1) for _ in leaves])
        report = run_suite(3, 40, {CheckId.B6}, workers=1)
        assert [o.lhs_residue for o in report.outcomes if o.p >= 5] == [
            ResidueInt(1, p, 4) for p in primes_between(5, 40)]
        report = run_suite(3, 40, {CheckId.B4}, workers=1)
        assert [o.lhs_residue for o in report.outcomes if o.p >= 5] == [
            ResidueInt(16, p, 3).inverse() ** ((p - 1) // 2) for p in primes_between(5, 40)]

    def test_a_raising_leaf_is_a_fail_row(self, monkeypatch):
        real = verifier.pfq_residues

        def raise_at_second(family, primes, k, e=0):
            out = real(family, primes, k, e)
            out[1] = NegativeValuation("at the second prime")
            return out

        monkeypatch.setattr(verifier, "pfq_residues", raise_at_second)
        report = run_suite(3, 60, BATCHED, workers=2)
        monkeypatch.undo()
        # the second prime of each family's batch: a1 and the Van Hamme sum (a3, and
        # swisher; a4 starts at 7) are summed from 3, a2 and the half harmonic sum from 5
        failed = {(o.check, o.p): o.note for o in report.outcomes if o.status == "fail"}
        assert failed == {
            (check, p): "NegativeValuation: at the second prime"
            for check, p in [(CheckId.A1, 5), (CheckId.A3, 5), (CheckId.A3_SWISHER, 5),
                             (CheckId.A2, 7), (CheckId.B6, 7), (CheckId.WOLSTENHOLME, 7)]
        }
        clean = run_suite(3, 60, BATCHED, workers=1)
        assert [o for o in report.outcomes if o.status != "fail"] == [
            o for o in clean.outcomes if (o.check, o.p) not in failed]
        with pytest.raises(NegativeValuation, match="alone"):
            check_a1(5, NegativeValuation("alone"))

    @pytest.mark.parametrize("lo, hi", [(3, 400), (10000, 10100)])
    def test_batched_rows_are_the_direct_rows(self, lo, hi):
        report = sweep(lo, hi)
        assert len(report.outcomes) == len(BATCHED) * len(primes_between(lo, hi))
        for outcome in report.outcomes:
            assert outcome == getattr(verifier, f"check_{outcome.check.value}")(outcome.p)

    @pytest.mark.parametrize("lo, hi", [(3, 400), (10000, 10100)])
    def test_one_prime_window_is_the_sweep_row(self, lo, hi):
        for outcome in sweep(lo, hi).outcomes:
            p = outcome.p
            assert run_suite(p, p, {outcome.check}, workers=1).outcomes == (outcome,)

    def test_direct_call_with_and_without_the_side(self):
        leaves = sweep_leaves([2111, 2113], {CheckId.A1, CheckId.B4, CheckId.B6})
        for p in (2111, 2113):
            assert check_a1(p, *leaves[CheckId.A1][p]) == check_a1(p)
            assert check_b4(p, *leaves[CheckId.B4][p]) == check_b4(p)
            assert check_b6(p, *leaves[CheckId.B6][p]) == check_b6(p)

    def test_one_prime_is_batched(self):
        leaves = sweep_leaves([101], BATCHED)
        assert {check: list(at) for check, at in leaves.items()} == {
            check: [101] if check not in (CheckId.A4, CheckId.A3_SWISHER, CheckId.C5) else []
            for check in BATCHED
        }
        assert sweep_leaves([2, 3], {CheckId.A2}) == {CheckId.A2: {}}


class TestRisingSymbols:
    """Each batched symbol against pochhammer_mod.  b4's ratio is 1 by the theorem,
    so only the symbols one by one show a wrong tree."""

    @pytest.mark.parametrize("lo, hi", [(3, 3000), (10000, 10100)])
    def test_every_symbol_matches_pochhammer_mod(self, lo, hi):
        primes = primes_between(lo, hi)
        together = sweep_leaves(primes, PRODUCTS)
        alone = {check: sweep_leaves(primes, {check})[check] for check in PRODUCTS}
        for check in PRODUCTS:
            assert together[check].keys() == alone[check].keys()
            for p, leaves in together[check].items():
                symbols = sides_at(check, p, leaves)[-1]
                direct = direct_symbols(check, p)
                assert len(symbols) == len(direct)
                for i, (batched, single) in enumerate(zip(symbols, direct)):
                    assert batched == single, (check, p, i)
                    assert sides_at(check, p, alone[check][p])[-1][i] == single, (check, p, i)
        assert sorted(together[CheckId.B4]) == sorted(together[CheckId.B6]) == [p for p in primes if p >= 5]
        assert sorted(together[CheckId.C5]) == [p for p in primes if p % 4 == 3 and p >= 7]


class TestGammaSide:
    @pytest.mark.parametrize("lo, hi", [(3, 3000), (10000, 10100)])
    def test_every_leaf_matches_gamma_p(self, lo, hi):
        leaves = sweep_leaves(primes_between(lo, hi), GAMMA)
        oracle = functools.cache(lambda p, k: gamma_p(QUARTER, p, k))
        read = 0
        for check in GAMMA:
            for p, leaves_at_p in leaves[check].items():
                for side, leaf in zip(DECLARATIONS[check].sides, leaves_at_p):
                    if not isinstance(side, GammaSide):
                        continue
                    if not side.at(p):
                        assert leaf is None and side.read(p, leaf) is None, (check, p)
                        continue
                    assert side.read(p, leaf) == oracle(p, side.k), (check, p)
                    read += 1
        assert read == sum(1 for check in GAMMA for p in leaves[check]
                           if check is not CheckId.A3 or p % 4 == 1)

    def test_one_call_per_prime_at_the_largest_precision_read(self, monkeypatch):
        calls = []

        def counted(x, p, k):
            calls.append((x, p, k))
            return gamma_p(x, p, k)

        monkeypatch.setattr(verifier, "gamma_p", counted)
        report = run_suite(3, 1000, DEFAULT_CHECKS, workers=1)
        assert report.summary["fail"] == 0
        # a3 reads k = 3 at p = 1 (mod 4), swisher 5 there up to its cap, a4 and c5 4 at p = 3
        assert len(calls) == 166
        assert calls == [
            (QUARTER, p, 4 if p % 4 == 3 else 5 if p <= verifier.SWISHER_MAX_P else 3)
            for p in primes_between(5, 1000)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_gamma_p_fails_the_rows_that_read_it(self, monkeypatch, workers):
        clean = run_suite(3, 100, DEFAULT_CHECKS, workers=1)

        def broken_at_3_mod_4(x, p, k):
            if p % 4 == 3:
                raise ZeroDivisionError(f"at {p}")
            return gamma_p(x, p, k)

        monkeypatch.setattr(verifier, "gamma_p", broken_at_3_mod_4)
        report = run_suite(3, 100, DEFAULT_CHECKS, workers=workers)
        failed = {(o.check, o.p): o for o in report.outcomes if o.status == "fail"}
        reads = [p for p in primes_between(7, 100) if p % 4 == 3]
        assert failed.keys() == {(check, p) for check in (CheckId.A4, CheckId.C5) for p in reads}
        for (_, p), outcome in failed.items():
            assert outcome.note == f"ZeroDivisionError: at {p}"
            assert outcome.lhs_residue is outcome.rhs_residue is outcome.modulus is None
        assert [o for o in report.outcomes if o.status != "fail"] == [
            o for o in clean.outcomes if (o.check, o.p) not in failed]


class TestDispatch:
    def test_every_check_has_its_function(self):
        for check in CheckId:
            assert callable(getattr(verifier, f"check_{check.value}")), check

    def test_every_check_has_one_declaration(self):
        assert DECLARATIONS.keys() == set(CheckId)

    def test_check_is_looked_up_when_the_task_runs(self, monkeypatch):
        stub = CheckOutcome(CheckId.A1, 3, "pass", note="stub")
        monkeypatch.setattr(verifier, "check_a1", lambda p, *leaves: stub)
        report = run_suite(3, 3, {CheckId.A1}, workers=1)
        assert report.outcomes == (stub,)

    def test_task_is_stamped_with_its_time(self):
        outcome = verifier._run_task((CheckId.A1, (3,)))
        assert outcome.status == "pass" and outcome.elapsed_ms > 0
        object.__setattr__(outcome, "spans", [])  # as a tracer attaches its spans to each outcome

    def test_c1_failure_keeps_its_y(self, monkeypatch):
        def broken(n, y):
            raise ZeroDivisionError("pole")

        monkeypatch.setattr(verifier, "whipple_c1_check", broken)
        outcome = verifier._run_task((CheckId.C1_IDENTITY, (2, F(1, 3))))
        assert (outcome.p, outcome.status) == (2, "fail")
        assert outcome.note == "y=1/3 ZeroDivisionError: pole"


class TestReports:
    def sample_report(self):
        return run_suite(3, 15, {CheckId.A1, CheckId.TRACE_RELATION}, workers=1)

    def test_json_round_trip(self):
        report = self.sample_report()
        assert parse_report(emit_report(report)) == report

    def test_round_trip_of_every_status(self):
        report = run_suite(3, 13, {CheckId.A1, CheckId.A4, CheckId.C1_IDENTITY}, workers=1)
        failed = CheckOutcome(CheckId.A3, 5, "fail", ResidueInt(1, 5, 3), ResidueInt(2, 5, 3), "x")
        report = Report(report.version, 3, 13, report.outcomes + (failed,))
        parsed = parse_report(emit_report(report))
        assert parsed == report and parsed.summary == report.summary
        assert parsed.outcomes[-1].modulus == 125

    @pytest.mark.parametrize("modulus", ["12", "1", "0", "-9"])
    def test_parse_rejects_a_modulus_not_a_power_of_p(self, modulus):
        obj = json.loads(emit_report(self.sample_report()))
        assert obj["outcomes"][0]["p"] == 3
        obj["outcomes"][0]["modulus"] = modulus
        with pytest.raises(ValueError):
            parse_report(json.dumps(obj).encode())

    def test_summary_counts_the_outcomes(self):
        rows = [("pass", 3), ("skipped", 5), ("fail", 7), ("pass", 11), ("skipped", 13)]
        outcomes = tuple(CheckOutcome(CheckId.A1, p, status) for status, p in rows)
        report = Report("0", 3, 13, outcomes)
        assert list(report.summary.items()) == [("pass", 2), ("fail", 1), ("skipped", 2)]
        assert b'"summary": {\n    "pass": 2,\n    "fail": 1,\n    "skipped": 2\n  }' in emit_report(report)

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
        report = Report("0", 3, 3, ())
        obj = json.loads(emit_report(report).decode())
        assert obj["outcomes"] == []
        assert obj["summary"] == {"pass": 0, "fail": 0, "skipped": 0}

    def test_timing_column_is_optional(self):
        data = emit_report(self.sample_report(), include_timing=False)
        assert b"elapsed_ms" not in data

    @pytest.mark.parametrize("include_timing", [True, False])
    def test_json_is_json_dumps_with_indent_2(self, include_timing):
        sample = run_suite(3, 13, {CheckId.A1, CheckId.A4, CheckId.TRACE_RELATION,
                                   CheckId.C1_IDENTITY}, workers=1)
        failed = CheckOutcome(CheckId.A3, 5, "fail", ResidueInt(1, 5, 3), ResidueInt(2, 5, 3),
                              'a "quoted" note: \u00e9\t\\', 0.25)
        reports = [
            sample,
            Report(sample.version, 3, 13, sample.outcomes + (failed,)),
            Report("0", 3, 3, ()),
        ]
        assert {o.status for o in reports[1].outcomes} == {"pass", "fail", "skipped"}
        assert any(o.lhs_residue is None for o in sample.outcomes)
        for report in reports:
            obj = {
                "version": report.version,
                "pmin": report.pmin,
                "pmax": report.pmax,
                "outcomes": [verifier._outcome_row(o, include_timing) for o in report.outcomes],
                "summary": report.summary,
            }
            expected = (json.dumps(obj, indent=2) + "\n").encode()
            assert emit_report(report, include_timing=include_timing) == expected

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
    return num / pair_pochhammer(ConjugatePair(F(1), F(p, 2), TRACE_OMEGA), m)


def b6_exact(p):
    """The ratio and its Taylor form 1 - (p^2/4) sum_{j<=m} 1/j^2."""
    m = (p - 1) // 2
    ratio = pochhammer(1 + F(p, 2), m) * pochhammer(1 - F(p, 2), m) / pochhammer(F(1), m) ** 2
    harmonic = sum((F(1, j * j) for j in range(1, m + 1)), F(0))
    return ratio, 1 - F(p * p, 4) * harmonic


def c5_exact(p):
    """-(p^3/16) prod_{j<q} (j^2 + p^2/16) / prod_{j<=q} ((j - 1/2)^2 + p^2/16), q = (p+1)/4."""
    q = (p + 1) // 4
    num = pair_pochhammer(ConjugatePair(F(1), F(p, 4), TRACE_I), q - 1)
    return -F(p**3, 16) * num / pair_pochhammer(ConjugatePair(F(1, 2), F(p, 4), TRACE_I), q)


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
        declaration = DECLARATIONS[CheckId.B6]
        series, rising = declaration.sides

        def off(p, k, *leaf):
            plus, minus, factorial = rising.symbols(p, k, *leaf)
            return plus * (1 + p * p), minus, factorial

        sides = (series, rising._replace(symbols=off))
        monkeypatch.setitem(DECLARATIONS, CheckId.B6, declaration._replace(sides=sides))
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
        outcome = check_trace(FIRST_PRIME_OVER_CAPS)
        assert outcome.status == "skipped"
        assert outcome.note == f"cost cap: p <= {CONV_MAX_P} for the int64 point count"

    @pytest.mark.parametrize("check", [check_a1, check_a2])
    def test_eta_bound_over_the_table_cap_is_skipped(self, no_work, check):
        # p needs a table of bound 2^20; the trace check meets its count cap first
        outcome = check(FIRST_PRIME_OVER_CAPS)
        assert outcome.status == "skipped"
        assert outcome.note == f"cost cap: eta bound <= {TABLE_MAX_BOUND} for the int64 table"

    def test_row_does_not_depend_on_the_window(self, monkeypatch):
        # the (A1, 2^19 - 1) row is decided from p alone, whatever else the sweep holds
        monkeypatch.setattr(verifier, "a_p", lambda p: 0)
        monkeypatch.setattr(verifier, "pfq_residues",
                            lambda family, primes, k, e=0: [ResidueInt(0, p, k) for p in primes])
        p = (1 << 19) - 1
        alone = run_suite(p, p, {CheckId.A1}, workers=1)
        wider = run_suite(p, FIRST_PRIME_OVER_CAPS, {CheckId.A1}, workers=1)
        assert alone.outcomes[0] == wider.outcomes[0]
        assert alone.outcomes[0].status == "pass"

    def test_sweep_above_the_caps_finishes(self, no_work):
        p = FIRST_PRIME_OVER_CAPS
        checks = {CheckId.A1, CheckId.A2, CheckId.TRACE_RELATION}
        report = run_suite(p, p, checks, workers=1)
        assert [o.status for o in report.outcomes] == ["skipped"] * 3
        assert all(o.note.startswith("cost cap:") for o in report.outcomes)
