"""Runs the congruence checks across prime ranges and emits machine-readable reports.

Each check is declared once, in ``DECLARATIONS``: the hypotheses it needs
of p, in order, each with the note of the skipped row when p fails it, and
the sides it reads, of three kinds: a truncated series (``SeriesSide``),
Gamma_p at a fixed argument (``GammaSide``), or Pochhammer symbols read off
(1+y)_n (``RisingSide``).  The check functions and the sweep read both from
there.  Before any task runs, a sweep computes the leaves of every side at
all its primes at once (``sweep_leaves``): one ``pfq_residues`` tree per
series and one ``rising_coefficients`` tree for all the symbols, each at
the largest precision its checks read, and one ``gamma_p`` call per
argument and prime, at the largest precision read there.  A check called
on its own computes the same leaves at its one prime.  Every check is
a pure function prime -> CheckOutcome, so a sweep parallelizes over primes
with no shared state; a check that raises becomes a fail outcome naming the
exception, and so does one whose leaf is the exception its prefix raised.
On n workers the sweep forks n - 1 children once, each running an
interleaved share of the tasks while the calling process runs the first; a
child that dies has its tasks become fail outcomes naming how it exited.
Outcomes are merged by a deterministic sort, making a Report independent of
the worker count.  Residues are rendered as decimal strings in reports to
avoid integer-width ambiguity in consumers.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Collection, Iterable, NamedTuple, Optional, Union

from .eta import TABLE_MAX_BOUND, a_p
from .exact import (
    TRACE_I,
    TRACE_OMEGA,
    ResidueInt,
    fraction_str,
    p_split,
    poly_value,
    reduce_mod,
    rising_coefficients,
)

# unused by the checks, but perfbench/tracing.py wraps every name it lists in this module
from .exact import pochhammer, vp  # noqa: F401
from .hypergeom import half_harmonic2, kilbourn_lhs, thm1_rhs, vanhamme_lhs  # noqa: F401
from .hypergeom import (
    HALF_HARMONIC2,
    KILBOURN,
    THM1,
    VANHAMME,
    SeriesFamily,
    bailey_b1_check,
    c3_check,
    c3_rhs_closed,
    pfq_residues,
    whipple_c1_check,
)
from .padic_gamma import gamma_p
from .variety import CONV_MAX_P, count_N

TOOL_VERSION = "0.1.0"

SWISHER_MAX_P = 50

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
    note: str = ""
    elapsed_ms: float = field(default=0.0, compare=False)

    @property
    def modulus(self) -> Optional[int]:
        """p^k of the residues compared, or None for a row without residues."""
        return self.lhs_residue.modulus if self.lhs_residue is not None else None


@dataclass(frozen=True)
class Report:
    version: str
    pmin: int
    pmax: int
    outcomes: tuple[CheckOutcome, ...]

    @property
    def summary(self) -> dict[str, int]:
        """The number of outcomes of each status, counted from the rows."""
        return {
            status: sum(1 for o in self.outcomes if o.status == status)
            for status in ("pass", "fail", "skipped")
        }


def _residue_outcome(
    check: CheckId, p: int, lhs: ResidueInt, rhs: ResidueInt, note: str = ""
) -> CheckOutcome:
    status = "pass" if lhs == rhs else "fail"
    return CheckOutcome(check, p, status, lhs, rhs, note)


def _identity_outcome(check: CheckId, p: int, outcome, note: str = "") -> CheckOutcome:
    if outcome.equal:
        return CheckOutcome(check, p, "pass", note=note)
    detail = f"lhs={fraction_str(outcome.lhs)} rhs={fraction_str(outcome.rhs)}"
    return CheckOutcome(check, p, "fail", note=f"{note} {detail}".strip())


# --- reading Pochhammer symbols off (1+y)_n -----------------------------------


def _pair_value(f: list[int], y: int, trace: int, modulus: int) -> int:
    """(1+zeta*y)_n (1+zeta'*y)_n mod p^k, for y = 0 mod p, zeta + zeta' = trace, zeta*zeta' = 1.

    With s_j = zeta^j + zeta^-j (s_0 = 2, s_1 = trace, s_j = trace*s_{j-1} - s_{j-2})
    the product of sum_d f_d (zeta*y)^d and its conjugate is
    sum_d f_d^2 y^(2d) + sum_{d<e} f_d f_e s_{e-d} y^(d+e); the terms with
    d + e >= len(f) vanish mod p^k.
    """
    s = [2, trace]
    while len(s) < len(f):
        s.append(trace * s[-1] - s[-2])
    value = 0
    for d in range(len(f)):
        for e in range(d, len(f) - d):
            value += f[d] * f[e] * (1 if e == d else s[e - d]) * y ** (d + e)
    return value % modulus


def _b4_symbols(p: int, k: int, f_m: list[int], f_2m: list[int]) -> tuple[ResidueInt, ...]:
    """check_b4's symbols (1/2)_m, ((1-p)/2)_m and (1+wp/2)_m (1+w^2p/2)_m, m = (p-1)/2, from
    F_n = (1+y)_n: (1/2)_m = F_2m(0) / (4^m F_m(0)), ((1-p)/2)_m = F_2m(-p) / (4^m F_m(-p/2))
    and the omega pair F_m(wp/2) F_m(w^2 p/2)."""
    modulus = p**k
    half_p = p * pow(2, -1, modulus) % modulus
    four_m = pow(4, (p - 1) // 2, modulus)
    half = f_2m[0] * pow(four_m * f_m[0], -1, modulus)
    shifted = poly_value(f_2m, -p, modulus) * pow(
        four_m * poly_value(f_m, -half_p, modulus), -1, modulus
    )
    pair = _pair_value(f_m, half_p, TRACE_OMEGA, modulus)
    return tuple(ResidueInt(x, p, k) for x in (half, shifted, pair))


def _b6_symbols(p: int, k: int, f_m: list[int]) -> tuple[ResidueInt, ...]:
    """check_b6's symbols (1+p/2)_m, (1-p/2)_m and m!: F_m = (1+y)_m at y = p/2, -p/2 and 0."""
    modulus = p**k
    half_p = p * pow(2, -1, modulus) % modulus
    return tuple(ResidueInt(poly_value(f_m, y, modulus), p, k) for y in (half_p, -half_p, 0))


def _c5_symbols(
    p: int, k: int, f_q1: list[int], f_q: list[int], f_2q: list[int]
) -> tuple[ResidueInt, ...]:
    """check_c5's symbols (A)_{q-1} and (B)_q of ``c3_rhs_closed``, q = (p+1)/4, from
    F_n = (1+y)_n and the i pair N(F)(y) = F(iy) F(-iy):
    (A)_{q-1} = N(F_{q-1})(p/4) and (B)_q = N(F_2q)(p/2) / (16^q N(F_q)(p/4))."""
    modulus = p**k
    quarter_p = p * pow(4, -1, modulus) % modulus
    num_symbol = _pair_value(f_q1, quarter_p, TRACE_I, modulus)
    den = pow(16, (p + 1) // 4, modulus) * _pair_value(f_q, quarter_p, TRACE_I, modulus)
    den_symbol = _pair_value(f_2q, 2 * quarter_p, TRACE_I, modulus) * pow(den, -1, modulus)
    return ResidueInt(num_symbol, p, k), ResidueInt(den_symbol, p, k)


# --- the declarations ----------------------------------------------------------


class Hypothesis(NamedTuple):
    """A condition a check needs of p, and the note of its skipped row when p fails it."""

    holds: Callable[[int], bool]
    note: str


def _read_residue(p: int, k: int, leaf) -> ResidueInt:
    """A residue leaf, at a precision of at least k, reduced mod p^k; a leaf that is the
    exception its computation raised is raised here."""
    if isinstance(leaf, Exception):
        raise leaf
    return ResidueInt(leaf.value, p, k)


class SeriesSide(NamedTuple):
    """p^e times the truncated series ``family`` at p, mod p^k (``pfq_residues``)."""

    family: SeriesFamily
    e: int
    k: int

    def read(self, p: int, leaf) -> ResidueInt:
        """The side from its leaf: the residue at p, or the exception its prefix raised."""
        return _read_residue(p, self.k, leaf)


class GammaSide(NamedTuple):
    """Gamma_p(x) mod p^k at the primes where ``at(p)`` holds (``gamma_p``)."""

    x: Fraction
    k: int
    at: Callable[[int], bool] = lambda p: True

    def read(self, p: int, leaf) -> Optional[ResidueInt]:
        """The side from its leaf: Gamma_p(x) at p, or the exception ``gamma_p`` raised; None
        at a prime where ``at`` fails.  Gamma_p is 1-Lipschitz, so Gamma_p(x) mod p^K for
        any K >= k reduces to Gamma_p(x) mod p^k."""
        return None if leaf is None else _read_residue(p, self.k, leaf)


class RisingSide(NamedTuple):
    """Pochhammer symbols mod p^k, read off (1+y)_n at each of the positions n at p."""

    k: int
    positions: Callable[[int], tuple[int, ...]]
    symbols: Callable[..., tuple[ResidueInt, ...]]  # (p, k, coefficients at each n) -> symbols

    def read(self, p: int, leaf) -> tuple[ResidueInt, ...]:
        """The symbols from their leaf: the coefficients of (1+y)_n at each position."""
        return self.symbols(p, self.k, *leaf)


class Declaration(NamedTuple):
    """A check's hypotheses, in the order they are tested, and the sides it reads, in the
    order its function takes them."""

    hypotheses: tuple[Hypothesis, ...]
    sides: tuple[Union[SeriesSide, GammaSide, RisingSide], ...] = ()


_ODD = Hypothesis(lambda p: p % 2 == 1, "p must be odd")
_ETA_CAP = Hypothesis(lambda p: p <= TABLE_MAX_BOUND,
                      f"cost cap: eta bound <= {TABLE_MAX_BOUND} for the int64 table")
_FROM_5 = Hypothesis(lambda p: p >= 5, "requires p >= 5")
_FROM_7 = Hypothesis(lambda p: p >= 7, "requires p >= 7")
_3_MOD_4 = Hypothesis(lambda p: p % 4 == 3, "p != 3 (mod 4)")
QUARTER = F(1, 4)

DECLARATIONS = {
    CheckId.A1: Declaration((_ODD, _ETA_CAP), (SeriesSide(KILBOURN, 0, 3),)),
    CheckId.A2: Declaration(
        (Hypothesis(lambda p: p >= 5, "theorem requires p >= 5"), _ETA_CAP),
        (SeriesSide(THM1, 1, 3),),
    ),
    CheckId.A3: Declaration(
        (_ODD,),
        (SeriesSide(VANHAMME, 0, 3), GammaSide(QUARTER, 3, at=lambda p: p % 4 == 1)),
    ),
    CheckId.A4: Declaration(
        (_3_MOD_4, Hypothesis(lambda p: p >= 7, "theorem requires p >= 7")),
        (SeriesSide(VANHAMME, 0, 4), GammaSide(QUARTER, 4)),
    ),
    CheckId.A3_SWISHER: Declaration(
        (Hypothesis(lambda p: p % 4 == 1, "p != 1 (mod 4)"),
         Hypothesis(lambda p: p <= SWISHER_MAX_P, f"cost cap: p <= {SWISHER_MAX_P} for mod p^5")),
        (SeriesSide(VANHAMME, 0, 5), GammaSide(QUARTER, 5)),
    ),
    CheckId.B1_IDENTITY: Declaration((_ODD,)),
    CheckId.B4: Declaration((_FROM_5,), (RisingSide(3, lambda p: (p // 2, p - 1), _b4_symbols),)),
    CheckId.B6: Declaration(
        (_FROM_5,),
        (SeriesSide(HALF_HARMONIC2, 0, 4), RisingSide(4, lambda p: (p // 2,), _b6_symbols)),
    ),
    CheckId.C3_IDENTITY: Declaration((_3_MOD_4, _FROM_7)),
    CheckId.C5: Declaration(
        (_3_MOD_4, _FROM_7),
        (GammaSide(QUARTER, 4),
         RisingSide(4, lambda p: ((p - 3) // 4, (p + 1) // 4, (p + 1) // 2), _c5_symbols)),
    ),
    CheckId.WOLSTENHOLME: Declaration((_FROM_5,), (SeriesSide(HALF_HARMONIC2, 0, 1),)),
    CheckId.TRACE_RELATION: Declaration(
        (_ODD, Hypothesis(lambda p: p <= CONV_MAX_P,
                          f"cost cap: p <= {CONV_MAX_P} for the int64 point count")),
    ),
    CheckId.C1_IDENTITY: Declaration(()),  # run on a fixed (n, y) grid, not at primes
}


def _admits(check: CheckId, p: int) -> bool:
    return all(hypothesis.holds(p) for hypothesis in DECLARATIONS[check].hypotheses)


def _tree(side) -> tuple:
    """The tree a side's leaves come from: its kind and what the kind's sides share."""
    if isinstance(side, SeriesSide):
        return SeriesSide, side.family, side.e
    if isinstance(side, GammaSide):
        return GammaSide, side.x
    return (RisingSide,)


def _gamma_leaf(x: Fraction, p: int, k: int):
    """Gamma_p(x) mod p^k, or the exception ``gamma_p`` raised."""
    try:
        return gamma_p(x, p, k)  # the module attribute, read at run time
    except Exception as exc:
        return exc


def sweep_leaves(primes: list[int], checks: Collection[CheckId]) -> dict[CheckId, dict[int, tuple]]:
    """The leaves of each selected check's sides, {check: {p: one leaf per side}}, at each prime
    the check's hypotheses admit; ``side.read(p, leaf)`` turns a leaf into its side.

    The series sides of one family and e share one ``pfq_residues`` call at
    every prime one of them reads, at the largest k they read; a series leaf
    is that residue, or the exception its prefix raised.  The Gamma_p sides
    of one x share one ``gamma_p(x, p, k)`` call at each prime where one of
    them is read, at the largest k read there; a Gamma_p leaf is that
    residue, the exception the call raised, or None where the side's ``at``
    fails.  Every position of every rising side is a leaf of one
    ``rising_coefficients`` call, at the largest k read and with modulus
    p^k; a rising leaf is the coefficients at each of the side's positions.
    """
    admitted = {c: [p for p in primes if _admits(c, p)]
                for c in checks if DECLARATIONS[c].sides}
    trees = {}  # _tree(side) -> the (check, side index, side) of the sides that read it
    for check in admitted:
        for i, side in enumerate(DECLARATIONS[check].sides):
            trees.setdefault(_tree(side), []).append((check, i, side))
    leaves = {}  # (check, side index) -> {p: leaf}
    for (kind, *shared), sides in trees.items():
        if kind is GammaSide:
            (x,) = shared
            k_at = {}  # p -> the largest k read there
            for c, _, side in sides:
                for p in filter(side.at, admitted[c]):
                    k_at[p] = max(k_at.get(p, 0), side.k)
            values = {p: _gamma_leaf(x, p, k_at[p]) for p in sorted(k_at)}
            for c, i, side in sides:
                leaves[c, i] = {p: values[p] if side.at(p) else None for p in admitted[c]}
        elif kind is RisingSide:
            k = max(side.k for _, _, side in sides)
            at = sorted({(n, p) for c, _, side in sides
                         for p in admitted[c] for n in side.positions(p)})
            coefficients = dict(zip(at, rising_coefficients([(n, p**k) for n, p in at], k)))
            for c, i, side in sides:
                leaves[c, i] = {p: tuple(coefficients[n, p] for n in side.positions(p))
                                for p in admitted[c]}
        else:
            family, e = shared
            k = max(side.k for _, _, side in sides)
            read = sorted(set().union(*(admitted[c] for c, _, _ in sides)))
            residues = dict(zip(read, pfq_residues(family, read, k, e)))
            for c, i, _ in sides:
                leaves[c, i] = {p: residues[p] for p in admitted[c]}
    return {c: {p: tuple(leaves[c, i][p] for i in range(len(DECLARATIONS[c].sides))) for p in ps}
            for c, ps in admitted.items()}


def _declared(check: CheckId):
    """Make a check body (p, *sides) -> CheckOutcome into the function of ``check``, (p, *leaves).

    The function returns the skipped row of the first hypothesis in the
    check's declaration that p fails.  Otherwise it reads each side from its
    leaf: the leaves a sweep passes after p, or those of ``sweep_leaves`` at
    the one prime p when none are passed.
    """

    def wrap(body):
        @functools.wraps(body)
        def run(p: int, *leaves) -> CheckOutcome:
            hypotheses, sides = DECLARATIONS[check]
            for holds, note in hypotheses:
                if not holds(p):
                    return CheckOutcome(check, p, "skipped", note=note)
            if sides and not leaves:
                leaves = sweep_leaves([p], {check})[check][p]
            return body(p, *[side.read(p, leaf) for side, leaf in zip(sides, leaves)])

        return run

    return wrap


# --- the checks ----------------------------------------------------------------


@_declared(CheckId.A1)
def check_a1(p: int, series: ResidueInt) -> CheckOutcome:
    """a(p) = 4F3[1/2,1/2,1/2,1/2; 1,1,1; 1]_{(p-1)/2} (mod p^3), every odd prime."""
    return _residue_outcome(CheckId.A1, p, reduce_mod(a_p(p), p, series.k), series)


@_declared(CheckId.A2)
def check_a2(p: int, series: ResidueInt) -> CheckOutcome:
    """a(p) = p * 4F3[1/2,1/2,1/2,1/2; 1,3/4,5/4; 1]_{(p-1)/2} (mod p^3), p >= 5."""
    return _residue_outcome(CheckId.A2, p, reduce_mod(a_p(p), p, series.k), series)


@_declared(CheckId.A3)
def check_a3(p: int, series: ResidueInt, gamma: Optional[ResidueInt]) -> CheckOutcome:
    """Van Hamme (A.2): the truncated 6F5(-1) is -p Gamma_p(1/4)^4 mod p^3 for
    p = 1 (mod 4) and vanishes mod p^3 for p = 3 (mod 4)."""
    if p % 4 == 1:
        rhs = reduce_mod(F(-p), p, series.k) * gamma**4
        note = "branch p = 1 (mod 4)"
    else:
        rhs = ResidueInt(0, p, series.k)
        note = "branch p = 3 (mod 4): sum vanishes mod p^3"
    return _residue_outcome(CheckId.A3, p, series, rhs, note)


@_declared(CheckId.A4)
def check_a4(p: int, series: ResidueInt, gamma: ResidueInt) -> CheckOutcome:
    """The p = 3 (mod 4) strengthening: 6F5(-1) = -(p^3/16) Gamma_p(1/4)^4 mod p^4."""
    rhs = reduce_mod(F(-(p**3), 16), p, series.k) * gamma**4
    return _residue_outcome(CheckId.A4, p, series, rhs)


@_declared(CheckId.A3_SWISHER)
def check_swisher(p: int, series: ResidueInt, gamma: ResidueInt) -> CheckOutcome:
    """The p = 1 (mod 4) branch of Van Hamme (A.2) strengthened to mod p^5."""
    rhs = reduce_mod(F(-p), p, series.k) * gamma**4
    return _residue_outcome(CheckId.A3_SWISHER, p, series, rhs)


@_declared(CheckId.B4)
def check_b4(p: int, symbols: tuple[ResidueInt, ...]) -> CheckOutcome:
    """(1/2)_m ((1-p)/2)_m / [(1+wp/2)_m (1+w^2p/2)_m] = 1 mod p^3, m = (p-1)/2.

    The conjugate-pair denominator is prod_{j<=m} (j^2 - (p/2) j + p^2/4);
    every factor of the three symbols is a p-unit.
    """
    half, shifted, pair = symbols
    lhs = half * shifted * pair.inverse()
    return _residue_outcome(CheckId.B4, p, lhs, ResidueInt(1, p, lhs.k))


@_declared(CheckId.B6)
def check_b6(p: int, series: ResidueInt, symbols: tuple[ResidueInt, ...]) -> CheckOutcome:
    """(1+p/2)_m (1-p/2)_m / (1)_m^2 = 1 mod p^3, and the sharper Taylor form
    1 - (p^2/4) sum_{j<=m} 1/j^2 mod p^4.  Every factor is a p-unit."""
    plus, minus, factorial = symbols
    lhs = plus * minus * factorial.inverse() ** 2
    rhs = 1 - reduce_mod(F(p * p, 4), p, series.k) * series
    coarse_ok = (lhs.value - 1) % p**3 == 0
    if coarse_ok and lhs == rhs:
        return CheckOutcome(CheckId.B6, p, "pass", lhs, rhs)
    note = []
    if not coarse_ok:
        note.append("product != 1 mod p^3")
    if lhs != rhs:
        note.append("Taylor form fails mod p^4")
    return CheckOutcome(CheckId.B6, p, "fail", lhs, rhs, "; ".join(note))


@_declared(CheckId.C5)
def check_c5(p: int, gamma: ResidueInt, symbols: tuple[ResidueInt, ResidueInt]) -> CheckOutcome:
    """The rational closed form of the quartic specialization equals
    -(p^3/16) Gamma_p(1/4)^4 mod p^4 for p = 3 (mod 4)."""
    lhs = c3_rhs_closed(p, symbols)
    rhs = reduce_mod(F(-(p**3), 16), p, lhs.k) * gamma**4
    return _residue_outcome(CheckId.C5, p, lhs, rhs)


@_declared(CheckId.WOLSTENHOLME)
def check_wolstenholme(p: int, series: ResidueInt) -> CheckOutcome:
    """sum_{j=1}^{(p-1)/2} 1/j^2 = 0 (mod p) for p >= 5."""
    return _residue_outcome(CheckId.WOLSTENHOLME, p, series, ResidueInt(0, p, series.k))


@_declared(CheckId.TRACE_RELATION)
def check_trace(p: int) -> CheckOutcome:
    """a(p) = p^3 - 2p^2 - 7 - N(p) with a(p) from the eta expansion."""
    coeff = a_p(p)
    n_count = count_N(p)
    ok = coeff == p**3 - 2 * p**2 - 7 - n_count
    return CheckOutcome(
        CheckId.TRACE_RELATION, p, "pass" if ok else "fail",
        note=f"a(p)={coeff} N(p)={n_count}",
    )


@_declared(CheckId.B1_IDENTITY)
def check_b1(p: int) -> CheckOutcome:
    """Exact equality of both sides of the specialized Bailey transformation (both rational)."""
    return _identity_outcome(CheckId.B1_IDENTITY, p, bailey_b1_check(p))


@_declared(CheckId.C3_IDENTITY)
def check_c3(p: int) -> CheckOutcome:
    """Exact equality of the quartic 6F5 specialization and its closed form (both rational)."""
    return _identity_outcome(CheckId.C3_IDENTITY, p, c3_check(p))


def check_c1(n: int, y) -> CheckOutcome:
    """Exact equality of the terminating Whipple 6F5 and its rational closed form."""
    return _identity_outcome(CheckId.C1_IDENTITY, n, whipple_c1_check(n, y), note=f"y={Fraction(y)}")


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], by a sieve of that window alone.

    The base primes up to isqrt(hi) come from a small sieve of their own, so
    time and memory are O(sqrt(hi) + (hi - lo)).
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    window = bytearray([1]) * (hi - lo + 1)
    for q in range(2, root + 1):
        if base[q]:
            base[q * q :: q] = bytes(len(base[q * q :: q]))
            start = max(q * q, -(-lo // q) * q) - lo
            window[start::q] = bytes(len(window[start::q]))
    return [lo + i for i, prime in enumerate(window) if prime]


def _run_task(task) -> CheckOutcome:
    """Run one (CheckId, args) task; an exception raised by the check becomes a fail outcome.

    The check is looked up by name when the task runs, so a rebound
    module attribute check_<value> is the one called.  Every check returns
    an outcome of its own, so it is stamped with its elapsed_ms in place.
    """
    check, args = task
    start = time.perf_counter()
    try:
        outcome = globals()[f"check_{check.value}"](*args)
    except Exception as exc:
        outcome = _failed(task, f"{type(exc).__name__}: {exc}")
    object.__setattr__(outcome, "elapsed_ms", (time.perf_counter() - start) * 1000.0)
    return outcome


def _failed(task, note: str) -> CheckOutcome:
    """The fail outcome of a task that produced none; a C1 note names its y."""
    check, args = task
    if check is CheckId.C1_IDENTITY:
        note = f"y={Fraction(args[1])} {note}"
    return CheckOutcome(check, args[0], "fail", note=note)


def _run_share(tasks: list, i: int, n: int) -> list[CheckOutcome]:
    # _run_task is read from the module when called, so a rebound attribute is the one run
    return [_run_task(t) for t in tasks[i::n]]


def _exit_note(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"worker exited with signal {-code}" if code < 0 else f"worker exited with status {code}"


def _run_forked(tasks: list, workers: int) -> list[CheckOutcome]:
    """Every task's outcome, from n = min(workers, len(tasks)) processes (at least one).

    The caller forks n - 1 children before any task runs; child i runs
    ``tasks[i::n]`` and sends its outcomes back as one pickle on a pipe,
    while the caller runs share 0.  A child that leaves without sending a
    complete pickle has each of its tasks become a fail outcome naming how
    it exited.  If the caller's own share raises, the children are killed
    and reaped before the exception propagates.
    """
    n = max(1, min(workers, len(tasks)))
    children = []  # (pid, read end) of shares 1..n-1
    try:
        for i in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    data = pickle.dumps(_run_share(tasks, i, n))
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, read))
            # a later child must not hold this write end open, or the read never ends
            os.close(write)
        outcomes = _run_share(tasks, 0, n)
    except BaseException:
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        raise
    for i, (pid, read) in enumerate(children, start=1):
        with open(read, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status == 0 and data:
            outcomes.extend(pickle.loads(data))
        else:
            note = _exit_note(status)
            outcomes.extend(_failed(t, note) for t in tasks[i::n])
    return outcomes


def run_suite(pmin: int, pmax: int, checks: Iterable[CheckId], workers: int = 1) -> Report:
    """Run the selected checks over all primes in [pmin, pmax].

    The outcome list is sorted by (check, p, note) and is identical for any
    worker count.  Skipped hypotheses are recorded, never dropped.  Before
    any task runs, and before any worker is forked, the calling process
    computes the leaves of every check's sides for all primes at once
    (``sweep_leaves``); a task carries its leaves after p.  More than one
    worker needs ``os.fork``.
    """
    checks = frozenset(checks)
    if not checks:
        raise ConfigError("empty check set")
    if pmin > pmax:
        raise ConfigError(f"pmin {pmin} exceeds pmax {pmax}")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if workers > 1 and not hasattr(os, "fork"):
        raise ConfigError("more than one worker needs os.fork, which this platform lacks")

    primes = primes_between(pmin, pmax)
    leaves = sweep_leaves(primes, checks)
    tasks = []
    for check in CheckId:
        if check not in checks:
            continue
        if check is CheckId.C1_IDENTITY:
            tasks.extend((check, (n, y)) for n in range(C1_MAX_N + 1) for y in C1_SAMPLE_YS)
        else:
            at = leaves.get(check, {})
            tasks.extend((check, (p, *at.get(p, ()))) for p in primes)

    outcomes = _run_forked(tasks, workers)
    outcomes.sort(key=lambda o: (_CHECK_ORDER[o.check], o.p, o.note))
    return Report(TOOL_VERSION, pmin, pmax, tuple(outcomes))


def _outcome_row(outcome: CheckOutcome, include_timing: bool) -> dict:
    modulus = outcome.modulus
    row = {
        "check": outcome.check.name,
        "p": outcome.p,
        "status": outcome.status,
        "lhs": str(outcome.lhs_residue.value) if outcome.lhs_residue is not None else None,
        "rhs": str(outcome.rhs_residue.value) if outcome.rhs_residue is not None else None,
        "modulus": str(modulus) if modulus is not None else None,
        "note": outcome.note,
    }
    if include_timing:
        row["elapsed_ms"] = round(outcome.elapsed_ms, 3)
    return row


# a flat row at the indent of an outcome in the report; json.dumps with indent runs the
# encoder written in Python, this one runs the C encoder
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_document(report: Report, rows: list[dict]) -> str:
    """The bytes of json.dumps(report as a dict, indent=2), each flat row encoded in C."""
    outcomes = ",\n    ".join("{\n      " + _ROW_ENCODER.encode(row)[1:-1] + "\n    }" for row in rows)
    fields = [
        f'"version": {json.dumps(report.version)}',
        f'"pmin": {json.dumps(report.pmin)}',
        f'"pmax": {json.dumps(report.pmax)}',
        f'"outcomes": [\n    {outcomes}\n  ]' if rows else '"outcomes": []',
        '"summary": ' + json.dumps(report.summary, indent=2).replace("\n", "\n  "),
    ]
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def emit_report(report: Report, fmt: str = "json", include_timing: bool = True) -> bytes:
    """Serialize a report; byte-stable for identical inputs.

    ``include_timing=False`` drops the volatile elapsed_ms column so that runs
    with different worker counts serialize byte-identically.  JSON is
    indented by 2, as ``json.dumps(..., indent=2)`` writes it.
    """
    rows = [_outcome_row(o, include_timing) for o in report.outcomes]
    if fmt == "json":
        return _json_document(report, rows).encode()
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


def _residue_from(value: Optional[str], p: int, modulus: Optional[str]) -> Optional[ResidueInt]:
    if value is None or modulus is None:
        return None
    k, unit = p_split(int(modulus), p)
    if unit != 1:
        raise ValueError(f"modulus {modulus} is not a power of {p}")
    return ResidueInt(int(value), p, k)


def parse_report(data: bytes) -> Report:
    """Rebuild a Report from its JSON serialization; the summary is recounted from the rows."""
    obj = json.loads(data.decode())
    outcomes = []
    for row in obj["outcomes"]:
        p = row["p"]
        outcomes.append(
            CheckOutcome(
                CheckId[row["check"]],
                p,
                row["status"],
                _residue_from(row["lhs"], p, row["modulus"]),
                _residue_from(row["rhs"], p, row["modulus"]),
                row["note"],
                row.get("elapsed_ms", 0.0),
            )
        )
    return Report(obj["version"], obj["pmin"], obj["pmax"], tuple(outcomes))
