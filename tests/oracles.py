"""Slow references for the series and symbols of ``supercong``, kept for the tests only.

- ``pfq_truncated_reference``: a truncated pFq term by term from its Pochhammer
  symbols, over Q; the oracle of ``hypergeom.pfq_truncated``.
- ``pfq_residue``: p^e times a truncated pFq mod p^k by the recurrence run one
  step at a time, each term carried as p^v times a unit; the oracle of
  ``hypergeom.pfq_residues``.
- ``pochhammer_mod``: (param)_n mod p^k multiplied one factor at a time; the
  oracle of the symbols the checks read off ``exact.rising_coefficients``.
- ``pair_factor``, ``pair_pochhammer``: a ``ConjugatePair``'s joint factor at
  one offset, and its joint Pochhammer symbol over Q.
- ``ramanujan_float_check``: the full Van Hamme 6F5(-1) in double precision
  against its Gamma closed form, the only float computation of the project.
- ``gamma_p_doubling``: Gamma_p(x) mod p^k from the block polynomial H built
  one factor at a time, with the block product by Taylor-shift doubling; the
  oracle of ``padic_gamma.gamma_p`` where the definitional product is out of
  reach.
- ``sp``, ``legendre``: the representative of x mod p in {1..p}, and Euler's
  criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from supercong.exact import (
    ConjugatePair,
    NegativeValuation,
    RationalLike,
    ResidueInt,
    cleared_factor,
    p_split,
    pochhammer,
    pochhammer_pair,
    reduce_mod,
)
from supercong.hypergeom import SeriesSpec, ZeroDenominatorPochhammer


class GuardExceeded(NegativeValuation):
    """A term of ``pfq_residue`` has valuation below the guard its fixed precision allows."""


def _guard(bottom) -> int:
    """The guard of ``pfq_residue``: the number of bottom parameters, a pair counting as two."""
    return sum(2 if isinstance(b, ConjugatePair) else 1 for b in bottom)


def pair_factor(pair: ConjugatePair, k: int) -> Fraction:
    """(u + k + y*zeta)(u + k + y*zeta') of the pair."""
    return (k + pair.linear) * k + pair.constant


def pair_pochhammer(pair: ConjugatePair, n: int) -> Fraction:
    """(u + y*zeta)_n (u + y*zeta')_n of the pair."""
    return Fraction(*pochhammer_pair(pair, n))


def _rising(param: Fraction | ConjugatePair, n: int) -> Fraction:
    if isinstance(param, ConjugatePair):
        return pair_pochhammer(param, n)
    return pochhammer(param, n)


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


def _factor_product(coeffs, j: int, p: int, modulus: int) -> tuple[int, int, int | None]:
    """(v, u, None) with the product of the factors at offset j = p^v * u (u mod modulus),
    or (0, 0, index) when the factor of parameter #index vanishes."""
    v, u = 0, 1
    for index, (c0, c1, c2) in enumerate(coeffs):
        x = c0 + j * (c1 + j * c2)
        if not x:
            return 0, 0, index
        while x % p == 0:
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
    guard = _guard(spec.bottom)
    precision = k + max(0, -e)  # of the sum itself, before the factor p^e
    modulus = p ** (precision + guard)
    top, top_den = _cleared(spec.top)
    bottom, bottom_den = _cleared(spec.bottom)
    scale = spec.argument * bottom_den / top_den
    vanished = not scale
    if not vanished:
        v_num, scale_num = p_split(scale.numerator, p)
        v_den, scale_den = p_split(scale.denominator, p)
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
        step_v, step_u = p_split(j + 1, p)
        v += top_v - bottom_v - step_v + scale_v
        if v < -guard:
            raise GuardExceeded(
                f"term {j + 1} has {p}-adic valuation {v}, below the guard -{guard}"
            )
        num = num * top_u * scale_num % modulus
        step_den = bottom_u * step_u * scale_den % modulus
        den = den * step_den % modulus
        total = total * step_den
        if v < precision:
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


def pochhammer_mod(param: Fraction | int | ConjugatePair, n: int, p: int, k: int) -> ResidueInt:
    """(param)_n mod p^k, multiplying integer factors; the denominator must be a p-unit."""
    if n < 0:
        raise ValueError("pochhammer index must be >= 0")
    (c0, c1, c2), den = cleared_factor(param)
    if den % p == 0:
        raise NegativeValuation(f"{param} has {p} in its denominator, cannot reduce mod {p}^{k}")
    modulus = p**k
    out = 1
    for j in range(n):
        out = out * (c0 + j * (c1 + j * c2)) % modulus
    return ResidueInt(out * pow(den, -n, modulus), p, k)


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


def _shift(f: list[int], a: int, modulus: int) -> list[int]:
    """Coefficients of f(y + a), by repeated synthetic division."""
    c = list(f)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return [x % modulus for x in c]


def _cut_product(f: list[int], g: list[int], modulus: int) -> list[int]:
    """f * g cut to the length of f, mod modulus."""
    return [sum(f[a] * g[d - a] for a in range(d + 1)) % modulus for d in range(len(f))]


def _block_polynomial(p: int, k: int, modulus: int) -> list[int]:
    """H(y) = prod_{s=1}^{p-1} (p*y + s) cut to degree < k, mod p^k, one factor at a time."""
    h = [1] + [0] * (k - 1)
    for s in range(1, p):
        for d in range(k - 1, 0, -1):
            h[d] = (s * h[d] + p * h[d - 1]) % modulus
        h[0] = h[0] * s % modulus
    return h


def gamma_p_doubling(x: RationalLike, p: int, k: int) -> ResidueInt:
    """Gamma_p(x) mod p^k, with prod_{i<Q} H(i) by doubling G_n(y) = prod_{i<n} H(y + i).

    G_{a+b}(y) = G_a(y) * G_b(y + a): one Taylor shift and one cut product
    per doubling, or per added block, over the bits of Q; the shifts keep
    the y^d coefficients divisible by p^d, so the cut to degree < k is exact.
    """
    modulus = p**k
    m = reduce_mod(x, p, k).value
    q, r = divmod(m, p)
    acc = 1
    if q:
        h = _block_polynomial(p, k, modulus)
        g, n = h, 1  # g = G_n
        for bit in bin(q)[3:]:
            g = _cut_product(g, _shift(g, n, modulus), modulus)
            n *= 2
            if bit == "1":
                g = _cut_product(g, _shift(h, n, modulus), modulus)
                n += 1
        acc = g[0]
    for s in range(1, r):
        acc = acc * (q * p + s) % modulus
    return ResidueInt(-acc % modulus if m % 2 else acc, p, k)


def sp(x: RationalLike, p: int) -> int:
    """The representative of x mod p lying in {1, ..., p}."""
    r = reduce_mod(x, p, 1).value
    return r if r != 0 else p


def legendre(a: int, p: int) -> int:
    """Quadratic-residue character of a mod p (odd prime p): -1, 0 or 1, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1
