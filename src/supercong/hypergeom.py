"""Truncated hypergeometric series: exact over Q, and residues in Z/p^k.

A series runs the multiplicative recurrence
t_{k+1} = t_k * prod(a_i + k) / prod(b_j + k) * z / (k + 1).  A parameter is
a rational or a ``ConjugatePair``, which stands for two Galois-conjugate
parameters in Q(i) or Q(omega) and contributes their joint rational
quadratic factor, so every sum stays in Q.

There are two evaluators.  ``pfq_truncated`` sums the recurrence exactly in
``Fraction``s; it serves the exact identities (b1, c1, c3), ``supercong
hyper`` and the tests, with ``pfq_truncated_reference`` (from Pochhammer
symbols) as its own oracle.  ``pfq_residue`` is the fast path for the
congruence checks: it runs the same recurrence over integers, carrying each
term as p^v times a unit mod p^(k+guard), so no O(p^2)-bit denominator is
ever formed; ``pfq_truncated`` reduced mod p^k is its test oracle.  On top
of the evaluators sit the concrete sums and identity instances the verifier
checks: Kilbourn's 4F3, the Van Hamme 6F5(-1), Whipple's terminating 6F5
with its fully rational closed form, Bailey's 4F3 transformation specialized
at cube-root-of-unity parameters, and the fourth-root specialization of the
Whipple closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    ResidueInt,
    cleared_factor,
    pochhammer,
    pochhammer_mod,
    reduce_mod,
)


class ZeroDenominatorPochhammer(ArithmeticError):
    """A bottom-parameter Pochhammer symbol vanished inside the truncation range."""

    def __init__(self, term_index: int, param_index: int):
        self.term_index = term_index
        self.param_index = param_index
        super().__init__(
            f"bottom parameter #{param_index} has a vanishing Pochhammer factor "
            f"at term {term_index}"
        )


class GuardExceeded(NegativeValuation):
    """A term of a residue series has p-adic valuation below -guard, beyond its fixed precision."""


class PoleParameter(ValueError):
    """Identity-check inputs sit on a pole of one of the two sides."""


@dataclass(frozen=True)
class SeriesSpec:
    """A truncated pFq: top/bottom parameter lists, argument, and truncation index.

    ``terms`` is the truncation index n: the sum runs over k = 0..n inclusive.
    Each parameter is a rational or a ``ConjugatePair`` (two parameters).
    """

    top: tuple[Fraction | ConjugatePair, ...]
    bottom: tuple[Fraction | ConjugatePair, ...]
    argument: Fraction
    terms: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "top", tuple(_as_param(a) for a in self.top))
        object.__setattr__(self, "bottom", tuple(_as_param(b) for b in self.bottom))
        object.__setattr__(self, "argument", Fraction(self.argument))
        if self.terms < 0:
            raise ValueError("truncation index must be >= 0")


def _as_param(x) -> Fraction | ConjugatePair:
    return x if isinstance(x, ConjugatePair) else Fraction(x)


def _factor(param: Fraction | ConjugatePair, k: int) -> Fraction:
    """The factor param contributes to the Pochhammer product at offset k."""
    if isinstance(param, ConjugatePair):
        return param.factor(k)
    return param + k


def _rising(param: Fraction | ConjugatePair, n: int) -> Fraction:
    if isinstance(param, ConjugatePair):
        return param.pochhammer(n)
    return pochhammer(param, n)


def pfq_truncated(spec: SeriesSpec) -> Fraction:
    """Exact sum_{k=0}^{n} prod(top_i)_k / (prod(bottom_j)_k * k!) * z^k."""
    total = term = Fraction(1)
    for k in range(spec.terms):
        num = Fraction(1)
        for a in spec.top:
            num *= _factor(a, k)
        den = Fraction(1)
        for j, b in enumerate(spec.bottom):
            factor = _factor(b, k)
            if not factor:
                raise ZeroDenominatorPochhammer(k + 1, j)
            den *= factor
        term = term * num / den * spec.argument / (k + 1)
        total += term
    return total


def pfq_truncated_reference(spec: SeriesSpec) -> Fraction:
    """From-scratch evaluation via Pochhammer symbols; the slow oracle for pfq_truncated."""
    total = Fraction(0)
    for k in range(spec.terms + 1):
        num = Fraction(1)
        for a in spec.top:
            num *= _rising(a, k)
        den = Fraction(math.factorial(k))
        for j, b in enumerate(spec.bottom):
            factor = _rising(b, k)
            if not factor:
                raise ZeroDenominatorPochhammer(k, j)
            den *= factor
        total += num / den * spec.argument**k
    return total


def _cleared(params) -> tuple[list[tuple[int, int, int]], int]:
    """Each parameter's integer factor coefficients (``cleared_factor``) and the product of the d's."""
    coeffs, den = [], 1
    for param in params:
        c, d = cleared_factor(param)
        coeffs.append(c)
        den *= d
    return coeffs, den


def _p_split(x: int, p: int) -> tuple[int, int]:
    """(v, u) with x = p^v * u and p not dividing u, for a nonzero int x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def _factor_product(coeffs, j: int, p: int, modulus: int) -> tuple[int, int, int | None]:
    """(v, u, None) with the product of the factors at offset j = p^v * u (u mod modulus),
    or (0, 0, index) when the factor of parameter #index vanishes."""
    v, u = 0, 1
    for index, (c0, c1, c2) in enumerate(coeffs):
        x = c0 + j * (c1 + j * c2)
        if not x:
            return 0, 0, index
        while x % p == 0:  # _p_split, inlined in the hot loop
            x //= p
            v += 1
        u = u * x % modulus
    return v, u, None


def pfq_residue(spec: SeriesSpec, p: int, k: int, e: int = 0) -> ResidueInt:
    """p^e * pfq_truncated(spec) mod p^k, computed over integers without forming the rational sum.

    Each rational parameter n/d contributes the integer n + j*d at step j, a
    ``ConjugatePair`` its quadratic cleared of denominators; the constant
    denominators and the argument are folded into one scale per step.  Term j
    is carried as p^v * u: the p-power is stripped from every factor before
    it enters the unit u, which is kept mod p^(k+g).  The guard g is the
    number of bottom parameters (a pair counts as two).  The terms are summed
    over one common denominator, inverted once at the end.

    Raises ZeroDenominatorPochhammer at a vanishing bottom factor and
    GuardExceeded when a term's valuation drops below -g, whichever comes
    first, and NegativeValuation when p^e times the sum is not p-integral.
    """
    guard = sum(2 if isinstance(b, ConjugatePair) else 1 for b in spec.bottom)
    modulus = p ** (k + guard)
    top, top_den = _cleared(spec.top)
    bottom, bottom_den = _cleared(spec.bottom)
    scale = spec.argument * bottom_den / top_den
    vanished = not scale
    if not vanished:
        v_num, scale_num = _p_split(scale.numerator, p)
        v_den, scale_den = _p_split(scale.denominator, p)
        scale_v = v_num - v_den
    # term j = p^v * num / den; total / den = p^guard * (sum of the terms so far)
    v, num, den = 0, 1, 1
    total = p**guard
    for j in range(spec.terms):
        bottom_v, bottom_u, index = _factor_product(bottom, j, p, modulus)
        if index is not None:
            raise ZeroDenominatorPochhammer(j + 1, index)
        if vanished:
            continue
        top_v, top_u, index = _factor_product(top, j, p, modulus)
        if index is not None:
            vanished = True
            continue
        step_v, step_u = _p_split(j + 1, p)
        v += top_v - bottom_v - step_v + scale_v
        if v < -guard:
            raise GuardExceeded(
                f"term {j + 1} has {p}-adic valuation {v}, below the guard -{guard}"
            )
        num = num * top_u * scale_num % modulus
        step_den = bottom_u * step_u * scale_den % modulus
        den = den * step_den % modulus
        total = total * step_den
        if v < k:
            total += p ** (v + guard) * num
        total %= modulus
    total = total * pow(den, -1, modulus) % modulus
    shift = e - guard
    if shift < 0:
        if total % p**-shift:
            raise NegativeValuation(
                f"{p}^{e} times the sum has negative {p}-adic valuation, cannot reduce mod {p}^{k}"
            )
        return ResidueInt(total // p**-shift, p, k)
    return ResidueInt(total * p**shift, p, k)


# --- the concrete truncated sums -------------------------------------------

F = Fraction


def kilbourn_spec(p: int) -> SeriesSpec:
    """4F3[1/2,1/2,1/2,1/2; 1,1,1; 1] truncated at (p-1)/2."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    return SeriesSpec((F(1, 2),) * 4, (F(1),) * 3, F(1), (p - 1) // 2)


def kilbourn_lhs(p: int, k: int) -> ResidueInt:
    """The Kilbourn sum mod p^k: congruent to a(p) mod p^3."""
    return pfq_residue(kilbourn_spec(p), p, k)


def thm1_spec(p: int) -> SeriesSpec:
    """4F3[1/2,1/2,1/2,1/2; 1,3/4,5/4; 1] truncated at (p-1)/2.

    Individual terms can have valuation -1 through the (5/4)_k bottom factor;
    the p-multiplied full sum is p-integral for p >= 5.
    """
    if p < 5:
        raise ValueError("requires p >= 5")
    return SeriesSpec((F(1, 2),) * 4, (F(1), F(3, 4), F(5, 4)), F(1), (p - 1) // 2)


def thm1_rhs(p: int, k: int) -> ResidueInt:
    """p times the Theorem 1 sum, mod p^k."""
    return pfq_residue(thm1_spec(p), p, k, e=1)


def vanhamme_spec(p: int) -> SeriesSpec:
    """6F5[5/4,1/2,1/2,1/2,1/2,1/2; 1/4,1,1,1,1; -1] truncated at (p-1)/2."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    return SeriesSpec(
        (F(5, 4),) + (F(1, 2),) * 5, (F(1, 4),) + (F(1),) * 4, F(-1), (p - 1) // 2
    )


def vanhamme_lhs(p: int, k: int) -> ResidueInt:
    """The Van Hamme sum mod p^k."""
    return pfq_residue(vanhamme_spec(p), p, k)


# --- identity instances ------------------------------------------------------


@dataclass(frozen=True)
class IdentityOutcome:
    """Both exact sides of an identity check, so failures are diagnosable."""

    lhs: Fraction
    rhs: Fraction
    equal: bool


def whipple_c1_check(n: int, y) -> IdentityOutcome:
    """Terminating Whipple 6F5(-1) at parameter x = 2n + 3/2 against its rational closed form.

    lhs = 6F5[5/4, 1/2, -2n-1, 2n+2, 1/2+y, 1/2-y;
              1/4, 2n+5/2, -2n-1/2, 1-y, 1+y; -1]   (terminates at k = 2n+1)
    rhs = -(4n+3) (y/2)_{n+1} (y/2-n)_{n+1} / ((y-1)/2 - n)_{2n+2}
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    y = F(y)
    bottom = (F(1, 4), 2 * n + F(5, 2), -2 * n - F(1, 2), 1 - y, 1 + y)
    for j, b in enumerate(bottom):
        for t in range(2 * n + 1):
            if b + t == 0:
                raise PoleParameter(f"bottom parameter {b} hits zero at offset {t}")
    rhs_den = pochhammer((y - 1) / 2 - n, 2 * n + 2)
    if rhs_den == 0:
        raise PoleParameter(f"((y-1)/2 - n)_(2n+2) vanishes for y = {y}, n = {n}")

    top = (F(5, 4), F(1, 2), F(-2 * n - 1), F(2 * n + 2), F(1, 2) + y, F(1, 2) - y)
    lhs = pfq_truncated(SeriesSpec(top, bottom, F(-1), 2 * n + 1))
    rhs = -(4 * n + 3) * pochhammer(y / 2, n + 1) * pochhammer(y / 2 - n, n + 1) / rhs_den
    return IdentityOutcome(lhs, rhs, lhs == rhs)


def bailey_b1_check(p: int) -> IdentityOutcome:
    """Bailey's 4F3(1) transformation specialized at a = 1/2, b = (1 - wp)/2, w^3 = 1.

    lhs = 4F3[1/2, (1-wp)/2, (1-w^2 p)/2, (1-p)/2;
              1 + wp/2, 1 + w^2 p/2, 1 + p/2; 1]      (terminates at (p-1)/2)
    rhs = p (1/2)_m ((1-p)/2)_m / [(1+wp/2)_m (1+w^2 p/2)_m]
          * 4F3[1/2, (1-wp)/2, (1-w^2 p)/2, (1-p)/2; 1, 3/4, 5/4; 1]_m

    The omega parameters come in the conjugate pairs (1-wp)/2, (1-w^2 p)/2
    and 1+wp/2, 1+w^2 p/2, so both sides are rational.
    """
    if p % 2 == 0 or p < 3:
        raise ValueError("p must be an odd prime")
    m = (p - 1) // 2
    b_pair = ConjugatePair(F(1, 2), F(-p, 2), TRACE_OMEGA)
    d_pair = ConjugatePair(F(1), F(p, 2), TRACE_OMEGA)
    top = (F(1, 2), b_pair, F(1 - p, 2))
    lhs = pfq_truncated(SeriesSpec(top, (d_pair, 1 + F(p, 2)), F(1), m))
    prefactor = p * pochhammer(F(1, 2), m) * pochhammer(F(1 - p, 2), m) / d_pair.pochhammer(m)
    rhs = prefactor * pfq_truncated(SeriesSpec(top, (F(1), F(3, 4), F(5, 4)), F(1), m))
    return IdentityOutcome(lhs, rhs, lhs == rhs)


def _c3_closed_form(p: int) -> tuple[int, ConjugatePair, ConjugatePair]:
    """q and the pairs A, B with the closed form = -(p^3/16) (A)_{q-1} / (B)_q.

    The closed form is -p (-ip/4)_q ((3-(i+1)p)/4)_q / ((1-(i+1)p)/4)_{2q},
    q = (p+1)/4.  The real parts of the two numerator symbols together run
    over -(q-1)..q-1 and those of the denominator over the half-integers
    +-(j - 1/2), so pairing x - ip/4 with -x - ip/4 leaves
    -(p^3/16) prod_{j<q} (j^2 + p^2/16) / prod_{j<=q} ((j - 1/2)^2 + p^2/16).
    """
    if p % 4 != 3 or p < 7:
        raise ValueError("requires a prime p = 3 (mod 4), p >= 7")
    return (p + 1) // 4, ConjugatePair(F(1), F(p, 4), TRACE_I), ConjugatePair(F(1, 2), F(p, 4), TRACE_I)


def c3_rhs_closed(p: int, k: int) -> ResidueInt:
    """The closed form mod p^k.  Every factor of both products is a p-unit."""
    q, num, den = _c3_closed_form(p)
    ratio = pochhammer_mod(num, q - 1, p, k) * pochhammer_mod(den, q, p, k).inverse()
    return reduce_mod(F(-(p**3), 16), p, k) * ratio


def c3_check(p: int) -> IdentityOutcome:
    """The fourth-root specialization of the Whipple closed form, at n=(p-3)/4, y=-ip/2.

    lhs = 6F5[5/4, 1/2, (1-p)/2, (1+p)/2, (1-ip)/2, (1+ip)/2;
              1/4, 1-p/2, 1+p/2, 1-ip/2, 1+ip/2; -1]   (truncated at (p-1)/2)
    Its i parameters come in conjugate pairs, so lhs is rational; rhs is the
    closed form of ``c3_rhs_closed``, evaluated exactly.
    """
    if p % 4 != 3 or p < 7:
        raise ValueError("requires a prime p = 3 (mod 4), p >= 7")
    top = (F(5, 4), F(1, 2), F(1 - p, 2), F(1 + p, 2), ConjugatePair(F(1, 2), F(p, 2), TRACE_I))
    bottom = (F(1, 4), 1 - F(p, 2), 1 + F(p, 2), ConjugatePair(F(1), F(p, 2), TRACE_I))
    lhs = pfq_truncated(SeriesSpec(top, bottom, F(-1), (p - 1) // 2))
    q, num, den = _c3_closed_form(p)
    rhs = -F(p**3, 16) * num.pochhammer(q - 1) / den.pochhammer(q)
    return IdentityOutcome(lhs, rhs, lhs == rhs)


@dataclass(frozen=True)
class FloatOutcome:
    partial: float
    target: float
    abs_err: float


def ramanujan_float_check(terms: int) -> FloatOutcome:
    """Double-precision partial sum of the full 6F5(-1) against 2/Gamma(3/4)^4.

    The series is sum_k (-1)^k (4k+1) ((1/2)_k / k!)^5; terms decay like
    k^(-3/2), so 10^4 terms reach ~1e-7.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    partial = 0.0
    c = 1.0  # ((1/2)_k / k!)^5
    for k in range(terms):
        partial += (-1) ** k * (4 * k + 1) * c
        c *= ((k + 0.5) / (k + 1)) ** 5
    target = 2 / math.gamma(0.75) ** 4
    return FloatOutcome(partial, target, abs(partial - target))
