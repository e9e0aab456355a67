"""Acceptance criteria: exhaustive desk-scale sweeps, exact unless marked float.

Each test prints one PASS line on success (visible with pytest -s); a failing
assertion reports the offending prime or case.
"""

import random
import time
from fractions import Fraction as F

from oracles import ramanujan_float_check, sp
from supercong.eta import f_coefficients
from supercong.exact import pochhammer, reduce_mod, vp
from supercong.hypergeom import (
    bailey_b1_check,
    c3_check,
    whipple_c1_check,
)
from supercong.padic_gamma import gamma_p
from supercong.variety import brute_force_N, count_N
from supercong.verifier import (
    C1_MAX_N,
    C1_SAMPLE_YS,
    CheckId,
    check_a1,
    check_a2,
    check_a3,
    check_a4,
    check_b4,
    check_b6,
    check_c5,
    check_swisher,
    check_trace,
    check_wolstenholme,
    emit_report,
    primes_between,
    run_suite,
)


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_a1_sweep():
    start = time.perf_counter()
    failures = [p for p in primes_between(3, 300) if check_a1(p).status != "pass"]
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 120.0
    report(1, f"a1 holds mod p^3 for all odd primes 3..300 ({elapsed:.1f}s single-threaded)")


def test_criterion_02_a2_sweep():
    failures = [p for p in primes_between(5, 300) if check_a2(p).status != "pass"]
    assert failures == []
    report(2, "a2 holds mod p^3 for all primes 5..300")


def test_criterion_03_a3_sweep_both_branches():
    primes = primes_between(3, 200)
    outcomes = {p: check_a3(p) for p in primes}
    failures = [p for p, o in outcomes.items() if o.status != "pass"]
    assert failures == []
    class_one = [p for p in primes if p % 4 == 1]
    class_three = [p for p in primes if p % 4 == 3]
    assert len(class_one) >= 20 and len(class_three) >= 20
    report(3, f"a3 holds for all odd primes 3..200 "
              f"({len(class_one)} primes = 1 mod 4, {len(class_three)} primes = 3 mod 4)")


def test_criterion_04_a4_sweep():
    primes = [p for p in primes_between(7, 100) if p % 4 == 3]
    failures = [p for p in primes if check_a4(p).status != "pass"]
    assert failures == []
    report(4, f"a4 holds mod p^4 for all {len(primes)} primes = 3 mod 4 in 7..100")


def test_criterion_05_swisher():
    for p in (13, 17, 29, 37, 41):
        outcome = check_swisher(p)
        assert outcome.status == "pass", p
        assert outcome.modulus == p**5
    report(5, "the p = 1 mod 4 branch of a3 holds mod p^5 at p in {13, 17, 29, 37, 41}")


def test_criterion_06_trace_relation():
    failures = [p for p in primes_between(3, 200) if check_trace(p).status != "pass"]
    assert failures == []
    for p in primes_between(3, 13):
        assert count_N(p) == brute_force_N(p), p
    report(6, "a(p) = p^3 - 2p^2 - 7 - N(p) for all primes 3..200; "
              "convolution count matches brute force for p <= 13")


def test_criterion_07_intermediate_congruences():
    for p in primes_between(5, 100):
        assert check_b4(p).status == "pass", p
        assert check_b6(p).status == "pass", p
    c5_primes = [p for p in primes_between(7, 100) if p % 4 == 3]
    for p in c5_primes:
        assert check_c5(p).status == "pass", p
    for p in primes_between(5, 1000):
        assert check_wolstenholme(p).status == "pass", p
    report(7, "b4, b6 (both sub-checks), c5 hold for applicable primes <= 100; "
              "the half harmonic sum vanishes mod p for 5 <= p <= 1000")


def test_criterion_08_identity_suite():
    for p in primes_between(3, 50):
        assert bailey_b1_check(p).equal, p  # corrected parameter reading
    for n in range(C1_MAX_N + 1):
        for y in C1_SAMPLE_YS:
            assert whipple_c1_check(n, y).equal, (n, y)
    c3_primes = [p for p in primes_between(7, 50) if p % 4 == 3]
    for p in c3_primes:
        outcome = c3_check(p)
        assert outcome.equal, p
        assert isinstance(outcome.lhs, F) and isinstance(outcome.rhs, F)  # im-parts vanished
    report(8, f"b1 equal for all odd p <= 50, c1 equal for n <= {C1_MAX_N} x "
              f"{len(C1_SAMPLE_YS)} rationals, c3 equal and exactly real for p <= 50")


def test_criterion_09_gamma_property_suite():
    for p in (3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            assert gamma_p(1, p, k).value == p**k - 1  # Gamma_p(1) = -1
    rng = random.Random(2024)
    reflection = continuity = bridge = 0
    while bridge < 200:
        p = rng.choice([3, 5, 7, 11, 13, 17])
        k = rng.choice([1, 2, 3])
        den = rng.choice([1, 2, 3, 4, 7, 8, 9, 16])
        if den % p == 0:
            continue
        x = F(rng.randrange(1, 80), den)
        prod = gamma_p(x, p, k) * gamma_p(1 - x, p, k)
        assert prod == reduce_mod(F((-1) ** sp(x, p)), p, k), (x, p, k)
        reflection += 1
        assert gamma_p(x + p, p, 1) == gamma_p(x, p, 1), (x, p)
        continuity += 1
        n = rng.randrange(0, 10)
        if any(vp(x + j, p) > 0 for j in range(n)):
            continue
        lhs = reduce_mod(pochhammer(x, n), p, k)
        rhs = reduce_mod((-1) ** n, p, k) * gamma_p(x + n, p, k) * gamma_p(x, p, k).inverse()
        assert lhs == rhs, (x, n, p, k)
        bridge += 1
    report(9, f"Gamma_p properties: unit value, reflection x{reflection} (k <= 3), "
              f"continuity x{continuity}, Pochhammer bridge x{bridge} - zero failures")


def test_criterion_10_eta_expansion():
    coeffs = f_coefficients(60)
    assert coeffs[1] == 1
    assert all(coeffs[n] == 0 for n in range(2, 61, 2))
    # independent small-degree hand expansion up to q^6: scales 2,4,6 from the
    # squared-argument factor and scale 4 again from the quadrupled-argument one
    hand = [1]
    for s, e in ((2, 4), (4, 4), (6, 4), (4, 4)):
        factor = [1] + [0] * (s - 1) + [-1]
        power = [1]
        for _ in range(e):
            out = [0] * 7
            for a, ca in enumerate(power):
                for b, cb in enumerate(factor):
                    if a + b <= 6:
                        out[a + b] += ca * cb
            power = out
        out = [0] * 7
        for a, ca in enumerate(hand):
            for b, cb in enumerate(power):
                if a + b <= 6:
                    out[a + b] += ca * cb
        hand = out
    assert [coeffs[n + 1] for n in range(7)] == hand  # shift by the leading q
    assert (coeffs[3], coeffs[5], coeffs[7]) == (-4, -2, 24)
    assert coeffs[15] == coeffs[3] * coeffs[5]
    assert coeffs[21] == coeffs[3] * coeffs[7]
    report(10, "eta expansion: a(1)=1, a(2m)=0, a(3)=-4, a(5)=-2, a(7)=24, "
               "a(15)=a(3)a(5), a(21)=a(3)a(7)")


def test_criterion_11_float_sanity():
    outcome = ramanujan_float_check(10**4)
    assert outcome.abs_err < 1e-6
    report(11, f"10^4-term float sum is within {outcome.abs_err:.2e} of 2/Gamma(3/4)^4")


def test_criterion_12_determinism():
    blobs = []
    for workers in (1, 4, 8):
        suite = run_suite(3, 100, set(CheckId), workers=workers)
        assert suite.summary["fail"] == 0
        blobs.append(emit_report(suite, include_timing=False))
    assert blobs[0] == blobs[1] == blobs[2]
    report(12, "run_suite(3, 100, all checks) emits byte-identical JSON at 1, 4, 8 workers")


def test_criterion_13_a4_c5_to_1000():
    start = time.perf_counter()
    primes = [p for p in primes_between(7, 1000) if p % 4 == 3]
    failures = [p for p in primes
                if check_a4(p).status != "pass" or check_c5(p).status != "pass"]
    elapsed = time.perf_counter() - start
    assert failures == []
    report(13, f"a4 and c5 hold mod p^4 for all {len(primes)} primes = 3 mod 4 in 7..1000 "
               f"({elapsed:.1f}s single-threaded)")


def test_criterion_14_series_checks_above_ten_thousand():
    start = time.perf_counter()
    checks = {CheckId.A1, CheckId.A2, CheckId.B4, CheckId.B6, CheckId.WOLSTENHOLME,
              CheckId.TRACE_RELATION}
    suite = run_suite(10000, 10100, checks, workers=1)
    elapsed = time.perf_counter() - start
    primes = primes_between(10000, 10100)
    assert len(suite.outcomes) == len(checks) * len(primes)
    failures = [(o.check.value, o.p) for o in suite.outcomes if o.status != "pass"]
    assert failures == []
    report(14, f"a1, a2, b4, b6, wolstenholme and trace hold at all {len(primes)} primes "
               f"in 10000..10100 ({elapsed:.1f}s single-threaded)")


def test_criterion_15_identities_above_two_thousand():
    start = time.perf_counter()
    primes = primes_between(2000, 2100)
    c3_primes = [p for p in primes if p % 4 == 3]
    failures = [p for p in primes if not bailey_b1_check(p).equal]
    failures += [p for p in c3_primes if not c3_check(p).equal]
    assert failures == []
    window = time.perf_counter() - start
    start = time.perf_counter()
    assert bailey_b1_check(10007).equal and c3_check(10007).equal  # 10007 = 3 mod 4
    elapsed = time.perf_counter() - start
    report(15, f"b1 equal at all {len(primes)} primes and c3 at the {len(c3_primes)} primes "
               f"= 3 mod 4 in 2000..2100 ({window:.1f}s), both at 10007 ({elapsed:.1f}s)")


def test_criterion_16_a1_a2_to_ten_thousand():
    start = time.perf_counter()
    suite = run_suite(3, 10**4, {CheckId.A1, CheckId.A2}, workers=1)
    elapsed = time.perf_counter() - start
    # every odd prime for a1, and every prime from 5 for a2 (it skips p = 3)
    assert suite.summary == {"pass": 2455, "fail": 0, "skipped": 1}
    assert elapsed < 10.0
    report(16, f"a1 and a2 hold at all 2455 of their primes up to 10^4 "
               f"({elapsed:.1f}s single-threaded, each series summed once per sweep)")


def test_criterion_17_b4_b6_to_ten_thousand():
    start = time.perf_counter()
    suite = run_suite(5, 10**4, {CheckId.B4, CheckId.B6}, workers=1)
    elapsed = time.perf_counter() - start
    # both checks at each of the 1227 primes in 5..10^4
    assert suite.summary == {"pass": 2454, "fail": 0, "skipped": 0}
    assert elapsed < 2.0
    report(17, f"b4 and b6 hold at all 1227 primes in 5..10^4 "
               f"({elapsed:.1f}s single-threaded, their symbols read off one tree per sweep)")


def test_criterion_18_identities_to_two_thousand():
    start = time.perf_counter()
    primes = primes_between(3, 2000)
    c3_primes = [p for p in primes if p % 4 == 3 and p >= 7]
    failures = [("b1", p) for p in primes if not bailey_b1_check(p).equal]
    failures += [("c3", p) for p in c3_primes if not c3_check(p).equal]
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 6.0
    report(18, f"b1 equal at all {len(primes)} odd primes and c3 at the {len(c3_primes)} primes "
               f"= 3 mod 4 in 3..2000 ({elapsed:.1f}s single-threaded, each side from "
               f"its parameters' factor progressions)")
