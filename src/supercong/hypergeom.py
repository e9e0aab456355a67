"""Exact truncated hypergeometric series over Q.

All sums are evaluated term-by-term through the multiplicative recurrence
t_{k+1} = t_k * prod(a_i + k) / prod(b_j + k) * z / (k + 1); a from-scratch
evaluator built on Pochhammer symbols is retained as an internal oracle.
A parameter is a rational or a ``ConjugatePair``, which stands for two
Galois-conjugate parameters in Q(i) or Q(omega) and contributes their joint
rational quadratic factor, so every sum stays in Q.  On top of the generic
evaluator sit the concrete sums and identity instances the verifier checks:
Kilbourn's 4F3, the Van Hamme 6F5(-1), Whipple's terminating 6F5 with its
fully rational closed form, Bailey's 4F3 transformation specialized at
cube-root-of-unity parameters, and the fourth-root specialization of the
Whipple closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import TRACE_I, TRACE_OMEGA, ConjugatePair, pochhammer


class ZeroDenominatorPochhammer(ArithmeticError):
    """A bottom-parameter Pochhammer symbol vanished inside the truncation range."""

    def __init__(self, term_index: int, param_index: int):
        self.term_index = term_index
        self.param_index = param_index
        super().__init__(
            f"bottom parameter #{param_index} has a vanishing Pochhammer factor "
            f"at term {term_index}"
        )


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


# --- the concrete truncated sums -------------------------------------------

F = Fraction


def kilbourn_lhs(p: int) -> Fraction:
    """4F3[1/2,1/2,1/2,1/2; 1,1,1; 1] truncated at (p-1)/2: congruent to a(p) mod p^3."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    half = (p - 1) // 2
    return pfq_truncated(SeriesSpec((F(1, 2),) * 4, (F(1),) * 3, F(1), half))


def thm1_rhs(p: int) -> Fraction:
    """p * 4F3[1/2,1/2,1/2,1/2; 1,3/4,5/4; 1] truncated at (p-1)/2, exact in Q.

    Individual terms can have valuation -1 through the (5/4)_k bottom factor;
    the p-multiplied full sum is p-integral for p >= 5.
    """
    if p < 5:
        raise ValueError("requires p >= 5")
    half = (p - 1) // 2
    return p * pfq_truncated(
        SeriesSpec((F(1, 2),) * 4, (F(1), F(3, 4), F(5, 4)), F(1), half)
    )


def vanhamme_lhs(p: int) -> Fraction:
    """6F5[5/4,1/2,1/2,1/2,1/2,1/2; 1/4,1,1,1,1; -1] truncated at (p-1)/2."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    half = (p - 1) // 2
    return pfq_truncated(
        SeriesSpec((F(5, 4),) + (F(1, 2),) * 5, (F(1, 4),) + (F(1),) * 4, F(-1), half)
    )


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


def c3_rhs_closed(p: int) -> Fraction:
    """The closed form -p (-ip/4)_q ((3-(i+1)p)/4)_q / ((1-(i+1)p)/4)_{2q}, q = (p+1)/4.

    The real parts of the two numerator symbols together run over
    -(q-1)..q-1 and those of the denominator over the half-integers
    +-(j - 1/2), so pairing x - ip/4 with -x - ip/4 leaves
    -(p^3/16) prod_{j<q} (j^2 + p^2/16) / prod_{j<=q} ((j - 1/2)^2 + p^2/16).
    """
    if p % 4 != 3 or p < 7:
        raise ValueError("requires a prime p = 3 (mod 4), p >= 7")
    q = (p + 1) // 4
    num = ConjugatePair(F(1), F(p, 4), TRACE_I).pochhammer(q - 1)
    den = ConjugatePair(F(1, 2), F(p, 4), TRACE_I).pochhammer(q)
    return -F(p**3, 16) * num / den


def c3_check(p: int) -> IdentityOutcome:
    """The fourth-root specialization of the Whipple closed form, at n=(p-3)/4, y=-ip/2.

    lhs = 6F5[5/4, 1/2, (1-p)/2, (1+p)/2, (1-ip)/2, (1+ip)/2;
              1/4, 1-p/2, 1+p/2, 1-ip/2, 1+ip/2; -1]   (truncated at (p-1)/2)
    Its i parameters come in conjugate pairs, so lhs is rational.
    """
    if p % 4 != 3 or p < 7:
        raise ValueError("requires a prime p = 3 (mod 4), p >= 7")
    top = (F(5, 4), F(1, 2), F(1 - p, 2), F(1 + p, 2), ConjugatePair(F(1, 2), F(p, 2), TRACE_I))
    bottom = (F(1, 4), 1 - F(p, 2), 1 + F(p, 2), ConjugatePair(F(1), F(p, 2), TRACE_I))
    lhs = pfq_truncated(SeriesSpec(top, bottom, F(-1), (p - 1) // 2))
    rhs = c3_rhs_closed(p)
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
