"""Runs the congruence checks across prime ranges and emits machine-readable reports.

Every check is a pure function prime -> CheckOutcome, so a sweep parallelizes
over primes with no shared state; outcomes are merged by a deterministic sort,
making a Report independent of the worker count.  Residues are rendered as
decimal strings in reports to avoid integer-width ambiguity in consumers.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from .eta import DEFAULT_LIMIT, TABLE_MAX_BOUND, a_p
from .exact import (
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    ResidueInt,
    half_harmonic2,
    pochhammer_mod,
    reduce_mod,
)

# unused by the checks, but perfbench/tracing.py wraps every name it lists in this module
from .exact import pochhammer, vp  # noqa: F401
from .hypergeom import (
    bailey_b1_check,
    c3_check,
    c3_rhs_closed,
    kilbourn_lhs,
    thm1_rhs,
    vanhamme_lhs,
    whipple_c1_check,
)
from .padic_gamma import gamma_p
from .variety import CONV_MAX_P, count_N

TOOL_VERSION = "0.1.0"

SWISHER_MAX_P = 50

ETA_CAP_NOTE = f"cost cap: eta bound <= {TABLE_MAX_BOUND} for the int64 table"

F = Fraction


class ConfigError(ValueError):
    """Unusable suite configuration (empty check set, inverted range, ...)."""


class CheckId(Enum):
    """All verifiable statements; values double as the CLI spellings."""

    A1 = "a1"
    A2 = "a2"
    A3 = "a3"
    A4 = "a4"
    A3_SWISHER = "swisher"
    B1_IDENTITY = "b1"
    B4 = "b4"
    B6 = "b6"
    C3_IDENTITY = "c3"
    C5 = "c5"
    WOLSTENHOLME = "wolstenholme"
    TRACE_RELATION = "trace"
    C1_IDENTITY = "c1"


_CHECK_ORDER = {check: i for i, check in enumerate(CheckId)}

DEFAULT_CHECKS = frozenset(CheckId) - {CheckId.B1_IDENTITY, CheckId.C3_IDENTITY, CheckId.C1_IDENTITY}

# fixed non-pole sample for the C1 identity grid (n = 0..8 each)
C1_MAX_N = 8
C1_SAMPLE_YS = (
    F(1, 3), F(-1, 3), F(1, 5), F(-1, 5), F(2, 7), F(-2, 7),
    F(3, 8), F(-3, 8), F(1, 2), F(-1, 2), F(5, 3), F(-7, 5),
)


@dataclass(frozen=True)
class CheckOutcome:
    """One verification result.  For C1 the p field carries n and the note names y."""

    check: CheckId
    p: int
    status: str  # "pass" | "fail" | "skipped"
    lhs_residue: Optional[ResidueInt] = None
    rhs_residue: Optional[ResidueInt] = None
    modulus: Optional[int] = None
    note: str = ""
    elapsed_ms: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class Report:
    version: str
    timestamp: str = field(compare=False)
    pmin: int = 0
    pmax: int = 0
    outcomes: tuple[CheckOutcome, ...] = ()
    summary: dict = field(default_factory=dict)


def _skip(check: CheckId, p: int, reason: str) -> CheckOutcome:
    return CheckOutcome(check, p, "skipped", note=reason)


def _residue_outcome(
    check: CheckId, p: int, lhs: ResidueInt, rhs: ResidueInt, note: str = ""
) -> CheckOutcome:
    status = "pass" if lhs == rhs else "fail"
    return CheckOutcome(check, p, status, lhs, rhs, lhs.modulus, note)


def _identity_outcome(check: CheckId, p: int, outcome, note: str = "") -> CheckOutcome:
    if outcome.equal:
        return CheckOutcome(check, p, "pass", note=note)
    detail = f"lhs={outcome.lhs} rhs={outcome.rhs}"
    return CheckOutcome(check, p, "fail", note=f"{note} {detail}".strip())


def check_a1(p: int, eta_limit: int = DEFAULT_LIMIT) -> CheckOutcome:
    """a(p) = 4F3[1/2,1/2,1/2,1/2; 1,1,1; 1]_{(p-1)/2} (mod p^3), every odd prime."""
    if p % 2 == 0:
        return _skip(CheckId.A1, p, "p must be odd")
    if eta_limit > TABLE_MAX_BOUND:
        return _skip(CheckId.A1, p, ETA_CAP_NOTE)
    try:
        lhs = reduce_mod(a_p(p, eta_limit), p, 3)
        rhs = kilbourn_lhs(p, 3)
    except NegativeValuation as exc:
        return CheckOutcome(CheckId.A1, p, "fail", note=f"negative valuation: {exc}")
    return _residue_outcome(CheckId.A1, p, lhs, rhs)


def check_a2(p: int, eta_limit: int = DEFAULT_LIMIT) -> CheckOutcome:
    """a(p) = p * 4F3[1/2,1/2,1/2,1/2; 1,3/4,5/4; 1]_{(p-1)/2} (mod p^3), p >= 5."""
    if p < 5:
        return _skip(CheckId.A2, p, "theorem requires p >= 5")
    if eta_limit > TABLE_MAX_BOUND:
        return _skip(CheckId.A2, p, ETA_CAP_NOTE)
    try:
        lhs = reduce_mod(a_p(p, eta_limit), p, 3)
        rhs = thm1_rhs(p, 3)
    except NegativeValuation as exc:
        return CheckOutcome(CheckId.A2, p, "fail", note=f"negative valuation: {exc}")
    return _residue_outcome(CheckId.A2, p, lhs, rhs)


def check_a3(p: int) -> CheckOutcome:
    """Van Hamme (A.2): the truncated 6F5(-1) is -p Gamma_p(1/4)^4 mod p^3 for
    p = 1 (mod 4) and vanishes mod p^3 for p = 3 (mod 4)."""
    if p % 2 == 0:
        return _skip(CheckId.A3, p, "p must be odd")
    try:
        lhs = vanhamme_lhs(p, 3)
        if p % 4 == 1:
            rhs = reduce_mod(F(-p), p, 3) * gamma_p(F(1, 4), p, 3) ** 4
            note = "branch p = 1 (mod 4)"
        else:
            rhs = ResidueInt(0, p, 3)
            note = "branch p = 3 (mod 4): sum vanishes mod p^3"
    except NegativeValuation as exc:
        return CheckOutcome(CheckId.A3, p, "fail", note=f"negative valuation: {exc}")
    return _residue_outcome(CheckId.A3, p, lhs, rhs, note)


def check_a4(p: int) -> CheckOutcome:
    """The p = 3 (mod 4) strengthening: 6F5(-1) = -(p^3/16) Gamma_p(1/4)^4 mod p^4."""
    if p % 4 != 3:
        return _skip(CheckId.A4, p, "p != 3 (mod 4)")
    if p < 7:
        return _skip(CheckId.A4, p, "theorem requires p >= 7")
    try:
        lhs = vanhamme_lhs(p, 4)
        rhs = reduce_mod(F(-(p**3), 16), p, 4) * gamma_p(F(1, 4), p, 4) ** 4
    except NegativeValuation as exc:
        return CheckOutcome(CheckId.A4, p, "fail", note=f"negative valuation: {exc}")
    return _residue_outcome(CheckId.A4, p, lhs, rhs)


def check_a3_swisher(p: int) -> CheckOutcome:
    """The p = 1 (mod 4) branch of Van Hamme (A.2) strengthened to mod p^5."""
    if p % 4 != 1:
        return _skip(CheckId.A3_SWISHER, p, "p != 1 (mod 4)")
    if p > SWISHER_MAX_P:
        return _skip(CheckId.A3_SWISHER, p, f"cost cap: p <= {SWISHER_MAX_P} for mod p^5")
    try:
        lhs = vanhamme_lhs(p, 5)
        rhs = reduce_mod(F(-p), p, 5) * gamma_p(F(1, 4), p, 5) ** 4
    except NegativeValuation as exc:
        return CheckOutcome(CheckId.A3_SWISHER, p, "fail", note=f"negative valuation: {exc}")
    return _residue_outcome(CheckId.A3_SWISHER, p, lhs, rhs)


def check_b4(p: int) -> CheckOutcome:
    """(1/2)_m ((1-p)/2)_m / [(1+wp/2)_m (1+w^2p/2)_m] = 1 mod p^3, m = (p-1)/2.

    The conjugate-pair denominator is prod_{j<=m} (j^2 - (p/2) j + p^2/4);
    every factor of the three products is a p-unit, so all of them are
    multiplied mod p^3.
    """
    if p < 5:
        return _skip(CheckId.B4, p, "requires p >= 5")
    m = (p - 1) // 2
    num = pochhammer_mod(F(1, 2), m, p, 3) * pochhammer_mod(F(1 - p, 2), m, p, 3)
    den = pochhammer_mod(ConjugatePair(F(1), F(p, 2), TRACE_OMEGA), m, p, 3)
    lhs = num * den.inverse()
    return _residue_outcome(CheckId.B4, p, lhs, ResidueInt(1, p, 3))


def check_b6(p: int) -> CheckOutcome:
    """(1+p/2)_m (1-p/2)_m / (1)_m^2 = 1 mod p^3, and the sharper Taylor form
    1 - (p^2/4) sum_{j<=m} 1/j^2 mod p^4.  Every factor is a p-unit."""
    if p < 5:
        return _skip(CheckId.B6, p, "requires p >= 5")
    m = (p - 1) // 2
    num = pochhammer_mod(1 + F(p, 2), m, p, 4) * pochhammer_mod(1 - F(p, 2), m, p, 4)
    lhs = num * pochhammer_mod(1, m, p, 4).inverse() ** 2
    rhs = 1 - reduce_mod(F(p * p, 4), p, 4) * half_harmonic2(p, 4)
    coarse_ok = (lhs.value - 1) % p**3 == 0
    if coarse_ok and lhs == rhs:
        return CheckOutcome(CheckId.B6, p, "pass", lhs, rhs, lhs.modulus)
    note = []
    if not coarse_ok:
        note.append("product != 1 mod p^3")
    if lhs != rhs:
        note.append("Taylor form fails mod p^4")
    return CheckOutcome(CheckId.B6, p, "fail", lhs, rhs, lhs.modulus, "; ".join(note))


def check_c5(p: int) -> CheckOutcome:
    """The rational closed form of the quartic specialization equals
    -(p^3/16) Gamma_p(1/4)^4 mod p^4 for p = 3 (mod 4)."""
    if p % 4 != 3:
        return _skip(CheckId.C5, p, "p != 3 (mod 4)")
    if p < 7:
        return _skip(CheckId.C5, p, "requires p >= 7")
    try:
        lhs = c3_rhs_closed(p, 4)
        rhs = reduce_mod(F(-(p**3), 16), p, 4) * gamma_p(F(1, 4), p, 4) ** 4
    except NegativeValuation as exc:
        return CheckOutcome(CheckId.C5, p, "fail", note=f"{type(exc).__name__}: {exc}")
    return _residue_outcome(CheckId.C5, p, lhs, rhs)


def check_wolstenholme(p: int) -> CheckOutcome:
    """sum_{j=1}^{(p-1)/2} 1/j^2 = 0 (mod p) for p >= 5."""
    if p < 5:
        return _skip(CheckId.WOLSTENHOLME, p, "requires p >= 5")
    lhs = half_harmonic2(p, 1)
    return _residue_outcome(CheckId.WOLSTENHOLME, p, lhs, ResidueInt(0, p, 1))


def check_trace(p: int, eta_limit: int = DEFAULT_LIMIT) -> CheckOutcome:
    """a(p) = p^3 - 2p^2 - 7 - N(p) with a(p) from the eta expansion."""
    if p % 2 == 0:
        return _skip(CheckId.TRACE_RELATION, p, "p must be odd")
    if p > CONV_MAX_P:
        return _skip(CheckId.TRACE_RELATION, p, f"cost cap: p <= {CONV_MAX_P} for the int64 point count")
    if eta_limit > TABLE_MAX_BOUND:
        return _skip(CheckId.TRACE_RELATION, p, ETA_CAP_NOTE)
    coeff = a_p(p, eta_limit)
    n_count = count_N(p)
    ok = coeff == p**3 - 2 * p**2 - 7 - n_count
    return CheckOutcome(
        CheckId.TRACE_RELATION, p, "pass" if ok else "fail",
        note=f"a(p)={coeff} N(p)={n_count}",
    )


def check_b1_identity(p: int) -> CheckOutcome:
    """Exact equality of both sides of the specialized Bailey transformation (both rational)."""
    if p % 2 == 0:
        return _skip(CheckId.B1_IDENTITY, p, "p must be odd")
    return _identity_outcome(CheckId.B1_IDENTITY, p, bailey_b1_check(p))


def check_c3_identity(p: int) -> CheckOutcome:
    """Exact equality of the quartic 6F5 specialization and its closed form (both rational)."""
    if p % 4 != 3:
        return _skip(CheckId.C3_IDENTITY, p, "p != 3 (mod 4)")
    if p < 7:
        return _skip(CheckId.C3_IDENTITY, p, "requires p >= 7")
    return _identity_outcome(CheckId.C3_IDENTITY, p, c3_check(p))


def check_c1_identity(n: int, y) -> CheckOutcome:
    """Exact equality of the terminating Whipple 6F5 and its rational closed form."""
    return _identity_outcome(CheckId.C1_IDENTITY, n, whipple_c1_check(n, y), note=f"y={Fraction(y)}")


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], by sieve."""
    if hi < 2:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = b"\x00" * len(flags[q * q :: q])
    return [n for n in range(max(lo, 2), hi + 1) if flags[n]]


def _run_task(task) -> CheckOutcome:
    check, arg, eta_bound = task
    start = time.perf_counter()
    if check is CheckId.A1:
        outcome = check_a1(arg, eta_bound)
    elif check is CheckId.A2:
        outcome = check_a2(arg, eta_bound)
    elif check is CheckId.A3:
        outcome = check_a3(arg)
    elif check is CheckId.A4:
        outcome = check_a4(arg)
    elif check is CheckId.A3_SWISHER:
        outcome = check_a3_swisher(arg)
    elif check is CheckId.B1_IDENTITY:
        outcome = check_b1_identity(arg)
    elif check is CheckId.B4:
        outcome = check_b4(arg)
    elif check is CheckId.B6:
        outcome = check_b6(arg)
    elif check is CheckId.C3_IDENTITY:
        outcome = check_c3_identity(arg)
    elif check is CheckId.C5:
        outcome = check_c5(arg)
    elif check is CheckId.WOLSTENHOLME:
        outcome = check_wolstenholme(arg)
    elif check is CheckId.TRACE_RELATION:
        outcome = check_trace(arg, eta_bound)
    elif check is CheckId.C1_IDENTITY:
        outcome = check_c1_identity(*arg)
    else:  # pragma: no cover
        raise ConfigError(f"unknown check {check}")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return replace(outcome, elapsed_ms=elapsed_ms)


def default_workers() -> int:
    return int(os.environ.get("SUPERCONG_WORKERS", "1"))


def run_suite(
    pmin: int,
    pmax: int,
    checks: Iterable[CheckId],
    workers: Optional[int] = None,
    eta_bound: int = DEFAULT_LIMIT,
    timestamp: Optional[str] = None,
) -> Report:
    """Run the selected checks over all primes in [pmin, pmax].

    The outcome list is sorted by (check, p, note) and is identical for any
    worker count.  Skipped hypotheses are recorded, never dropped.
    """
    checks = frozenset(checks)
    if not checks:
        raise ConfigError("empty check set")
    if pmin > pmax:
        raise ConfigError(f"pmin {pmin} exceeds pmax {pmax}")
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    eta_bound = max(eta_bound, pmax)

    primes = primes_between(pmin, pmax)
    tasks = []
    for check in CheckId:
        if check not in checks:
            continue
        if check is CheckId.C1_IDENTITY:
            tasks.extend((check, (n, y), eta_bound) for n in range(C1_MAX_N + 1) for y in C1_SAMPLE_YS)
        else:
            tasks.extend((check, p, eta_bound) for p in primes)

    if workers == 1:
        outcomes = [_run_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_task, tasks, chunksize=4))

    outcomes.sort(key=lambda o: (_CHECK_ORDER[o.check], o.p, o.note))
    summary = {
        "pass": sum(1 for o in outcomes if o.status == "pass"),
        "fail": sum(1 for o in outcomes if o.status == "fail"),
        "skipped": sum(1 for o in outcomes if o.status == "skipped"),
    }
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return Report(TOOL_VERSION, timestamp, pmin, pmax, tuple(outcomes), summary)


def _outcome_row(outcome: CheckOutcome, include_timing: bool) -> dict:
    row = {
        "check": outcome.check.name,
        "p": outcome.p,
        "status": outcome.status,
        "lhs": str(outcome.lhs_residue.value) if outcome.lhs_residue is not None else None,
        "rhs": str(outcome.rhs_residue.value) if outcome.rhs_residue is not None else None,
        "modulus": str(outcome.modulus) if outcome.modulus is not None else None,
        "note": outcome.note,
    }
    if include_timing:
        row["elapsed_ms"] = round(outcome.elapsed_ms, 3)
    return row


def emit_report(report: Report, fmt: str = "json", include_timing: bool = True) -> bytes:
    """Serialize a report; byte-stable for identical inputs.

    ``include_timing=False`` drops the volatile elapsed_ms column so that runs
    with different worker counts serialize byte-identically.
    """
    rows = [_outcome_row(o, include_timing) for o in report.outcomes]
    if fmt == "json":
        obj = {
            "version": report.version,
            "pmin": report.pmin,
            "pmax": report.pmax,
            "outcomes": rows,
            "summary": report.summary,
        }
        return (json.dumps(obj, indent=2) + "\n").encode()
    if fmt == "csv":
        columns = ["check", "p", "status", "lhs", "rhs", "modulus", "note"]
        if include_timing:
            columns.append("elapsed_ms")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in columns})
        return buf.getvalue().encode()
    raise ConfigError(f"unknown report format {fmt!r}")


def _residue_from(value: Optional[str], p: int, modulus: Optional[int]) -> Optional[ResidueInt]:
    if value is None or modulus is None:
        return None
    k = 0
    m = modulus
    while m > 1:
        if m % p:
            raise ValueError(f"modulus {modulus} is not a power of {p}")
        m //= p
        k += 1
    return ResidueInt(int(value), p, k)


def parse_report(data: bytes) -> Report:
    """Rebuild a Report from its JSON serialization (timestamp is not on the wire)."""
    obj = json.loads(data.decode())
    outcomes = []
    for row in obj["outcomes"]:
        check = CheckId[row["check"]]
        p = row["p"]
        modulus = int(row["modulus"]) if row["modulus"] is not None else None
        base = p if check is not CheckId.C1_IDENTITY else 0
        outcomes.append(
            CheckOutcome(
                check,
                p,
                row["status"],
                _residue_from(row["lhs"], base, modulus),
                _residue_from(row["rhs"], base, modulus),
                modulus,
                row["note"],
                row.get("elapsed_ms", 0.0),
            )
        )
    return Report(
        obj["version"], "", obj["pmin"], obj["pmax"], tuple(outcomes), obj["summary"]
    )
