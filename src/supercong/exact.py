"""Exact scalar arithmetic: rationals, residues mod p^k, Pochhammer symbols.

Everything here is exact.  Rationals are ``fractions.Fraction`` (always reduced,
positive denominator) and residues live in Z/p^k.  The only non-rational
parameters the checks use are Galois-conjugate pairs u + y*zeta, u + y*zeta'
over Q(i) or Q(omega); the product of their two Pochhammer symbols is a
product of rational quadratics, so a ``ConjugatePair`` stands for both and
no cyclotomic arithmetic is needed.  Congruence between rationals is
valuation-based: x = y (mod p^k) means vp(x - y) >= k.

Two paths compute a Pochhammer symbol or the half harmonic sum.  The fast
path, which the congruence checks use, works in Z/p^k throughout: each factor
is cleared of its denominator to an integer (``cleared_factor``) and only
residues are multiplied (``pochhammer_mod``, ``half_harmonic2``).  The exact
``pochhammer`` over Q serves the identity checks and the tests, where it is
the oracle for the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Rational = Fraction

RationalLike = Union[Fraction, int]


class NegativeValuation(ArithmeticError):
    """Raised when a residue reduction is applied to a value with p in its denominator."""


class TooLarge(ValueError):
    """A computation was requested beyond its cost cap."""


def vp(x: RationalLike, p: int) -> Union[int, float]:
    """p-adic valuation of a rational: the v with x = p**v * (a/b), p dividing neither a nor b.

    vp(0) is math.inf, so congruence tests degenerate correctly when both sides
    are equal.
    """
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_prime(n: int) -> bool:
    """Whether the int n is prime, by trial division."""
    if not isinstance(n, int) or n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def reduce_mod(x: RationalLike, p: int, k: int) -> "ResidueInt":
    """Reduce a p-integral rational into Z/p^k as num * den**-1.

    Raises NegativeValuation when p divides the denominator: a congruence is
    being applied to a non-p-integral value, which is always a caller bug here
    (individual series terms may have vp = -1; only fully summed expressions
    are reduced).
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NegativeValuation(f"{x} has negative {p}-adic valuation, cannot reduce mod {p}^{k}")
    modulus = p**k
    value = x.numerator * pow(x.denominator, -1, modulus) % modulus
    return ResidueInt(value, p, k)


def congruent(x: RationalLike, y: RationalLike, p: int, k: int) -> bool:
    """Whether x = y (mod p^k) in the valuation sense: vp(x - y) >= k."""
    return vp(Fraction(x) - Fraction(y), p) >= k


@dataclass(frozen=True)
class ResidueInt:
    """An element of Z/p^k.  Arithmetic combines only residues with matching (p, k)."""

    value: int
    p: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("precision exponent k must be >= 1")
        object.__setattr__(self, "value", self.value % self.modulus)

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def _coerce(self, other: Union["ResidueInt", int]) -> "ResidueInt":
        if isinstance(other, ResidueInt):
            if (other.p, other.k) != (self.p, self.k):
                raise ValueError(
                    f"cannot combine residues mod {self.p}^{self.k} and mod {other.p}^{other.k}"
                )
            return other
        if isinstance(other, int):
            return ResidueInt(other, self.p, self.k)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ResidueInt(self.value + other.value, self.p, self.k)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ResidueInt(self.value - other.value, self.p, self.k)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ResidueInt(other.value - self.value, self.p, self.k)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ResidueInt(self.value * other.value, self.p, self.k)

    __rmul__ = __mul__

    def __neg__(self):
        return ResidueInt(-self.value, self.p, self.k)

    def __pow__(self, exponent: int):
        return ResidueInt(pow(self.value, exponent, self.modulus), self.p, self.k)

    def inverse(self) -> "ResidueInt":
        return ResidueInt(pow(self.value, -1, self.modulus), self.p, self.k)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.p}^{self.k})"


def pochhammer(a: RationalLike, n: int) -> Fraction:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1.  Exact."""
    if n < 0:
        raise ValueError("pochhammer index must be >= 0")
    out = Fraction(1)
    a = Fraction(a)
    for j in range(n):
        out *= a + j
    return out


TRACE_I = 0  # i + (-i)
TRACE_OMEGA = -1  # omega + omega^2


@dataclass(frozen=True)
class ConjugatePair:
    """The two parameters u + y*zeta and u + y*zeta', with zeta' the Galois conjugate of zeta.

    zeta + zeta' = trace (TRACE_I or TRACE_OMEGA) and zeta*zeta' = 1, so the
    pair's joint Pochhammer factor at offset k is the rational quadratic
    (u+k)^2 + trace*y*(u+k) + y^2.
    """

    u: Fraction
    y: Fraction
    trace: int
    # factor(k) = (k + linear) * k + constant, expanded once
    linear: Fraction = field(init=False, repr=False, compare=False)
    constant: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u, y = Fraction(self.u), Fraction(self.y)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "linear", 2 * u + self.trace * y)
        object.__setattr__(self, "constant", u * (u + self.trace * y) + y * y)

    def factor(self, k: int) -> Fraction:
        """(u + k + y*zeta)(u + k + y*zeta')."""
        return (k + self.linear) * k + self.constant

    def pochhammer(self, n: int) -> Fraction:
        """(u + y*zeta)_n (u + y*zeta')_n."""
        if n < 0:
            raise ValueError("pochhammer index must be >= 0")
        out = Fraction(1)
        for k in range(n):
            out *= self.factor(k)
        return out


def cleared_factor(param: Union[RationalLike, ConjugatePair]) -> tuple[tuple[int, int, int], int]:
    """Integers (c0, c1, c2), d with param's Pochhammer factor at offset j = (c0 + c1*j + c2*j^2) / d.

    A rational n/d gives (n, d, 0), d; a ``ConjugatePair`` gives its quadratic
    times the least common denominator of its coefficients.
    """
    if isinstance(param, ConjugatePair):
        den = math.lcm(param.linear.denominator, param.constant.denominator)
        return (int(param.constant * den), int(param.linear * den), den), den
    param = Fraction(param)
    return (param.numerator, param.denominator, 0), param.denominator


def pochhammer_mod(
    param: Union[RationalLike, ConjugatePair], n: int, p: int, k: int
) -> ResidueInt:
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


def half_harmonic2(p: int, k: int) -> ResidueInt:
    """sum_{j=1}^{(p-1)/2} 1/j^2 mod p^k.  Divisible by p for p >= 5 (Wolstenholme).

    Every j is a p-unit, so the sum is kept as one fraction num/den of
    residues and den is inverted once at the end.
    """
    if p % 2 == 0:
        raise ValueError("p must be odd")
    modulus = p**k
    num, den = 0, 1
    for j in range(1, (p - 1) // 2 + 1):
        square = j * j
        num = (num * square + den) % modulus
        den = den * square % modulus
    return ResidueInt(num * pow(den, -1, modulus), p, k)
