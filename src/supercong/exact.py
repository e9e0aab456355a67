"""Exact scalar arithmetic: rationals, residues mod p^k, Pochhammer symbols.

Everything here is exact.  Rationals are ``fractions.Fraction`` (always reduced,
positive denominator) and residues live in Z/p^k.  The only non-rational
parameters the checks use are Galois-conjugate pairs u + y*zeta, u + y*zeta'
over Q(i) or Q(omega); the product of their two Pochhammer symbols is a
product of rational quadratics, so a ``ConjugatePair`` stands for both and
no cyclotomic arithmetic is needed.

Every Pochhammer symbol is computed from its factors cleared of their
denominator to integers (``cleared_factor``).  Over Q the n factors of
(param)_n are one integer progression, built in C by
``cleared_progression``: a ``range`` for a rational parameter, a ``map``
over ranges for a pair's quadratic.  ``pochhammer_pair`` multiplies it by a
product tree into one unreduced (numerator, denominator) pair; the identity
checks use the pair, and ``pochhammer`` reduces it to a ``Fraction``.  The
series of ``hypergeom`` build their step factors from the same
progressions.

A product over steps of any other node type, the (P, Q, T) of a series or
a polynomial cut to K coefficients, is one binary-splitting walk
(Haible-Papanikolaou), ``split_product``: a run of steps a..c-1 is halved
at its midpoint down to runs of at most ``LEAF_STEPS`` steps, whose nodes a
caller's ``run`` gives, and the halves are composed by the caller's
``compose``.  A sweep needs the same kind of product at many primes.
``remainder_tree`` is the accumulating remainder tree (Costa-Gerbicz-Harvey)
that gives every prefix of the steps, each reduced mod its own modulus, over
any node type.  It cuts the steps into segments at the given ends and splits
each one, reduced mod the product of the moduli of the prefixes that read it
where that product is the smaller.  Both functions reduce a node only through
the node type's ``reduce``.  ``hypergeom.pfq_residues`` walks it with the
(P, Q, T) triples of a series.  ``rising_coefficients`` walks it with
polynomials: the K lowest coefficients of (1+y)_n at many (n, modulus)
leaves.  A Pochhammer symbol whose parameters depend on p only through
y = p*t, t p-integral, is a value of (1+y)_n (``poly_value``), and mod p^K
only those K coefficients matter, so one tree gives such a symbol at every
prime of a sweep, and a tree of one prime's leaves gives it at that prime.
The congruence checks read every Pochhammer symbol this way and multiply
only residues, and Gamma_p reads its block polynomial and tail this way;
the exact symbol, and a product of residues one at a time, are oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence, Union

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
    return p_split(x.numerator, p)[0] - p_split(x.denominator, p)[0]


def p_split(x: int, p: int) -> tuple[int, int]:
    """(v, u) with x = p^v * u and p not dividing u; ValueError for x = 0 or p < 2 (no such v)."""
    if x == 0 or p < 2:
        raise ValueError(f"{x} has no {p}-adic valuation")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


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


def fraction_str(x: Fraction) -> str:
    """str(x), for a rational of any size.

    str() of an int refuses more digits than sys.get_int_max_str_digits()
    (4300 by default); Decimal converts an int exactly and has no such limit.
    """
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def pochhammer(a: RationalLike, n: int) -> Fraction:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1.  Exact."""
    return Fraction(*pochhammer_pair(a, n))


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
    # the joint factor at offset k is (k + linear) * k + constant, expanded once
    linear: Fraction = field(init=False, repr=False, compare=False)
    constant: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u, y = Fraction(self.u), Fraction(self.y)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        # with u = a/b and y = c/d, linear is 2u + trace*y over b*d and
        # constant u(u + trace*y) + y^2 over (b*d)^2; integers, one gcd each
        a, b, c, d = u.numerator, u.denominator, y.numerator, y.denominator
        shifted = a * d + self.trace * c * b  # (u + trace*y) * b*d
        object.__setattr__(self, "linear", Fraction(a * d + shifted, b * d))
        object.__setattr__(self, "constant", Fraction(a * d * shifted + (c * b) ** 2, (b * d) ** 2))


def cleared_factor(param: Union[RationalLike, ConjugatePair]) -> tuple[tuple[int, int, int], int]:
    """Integers (c0, c1, c2), d with param's Pochhammer factor at offset j = (c0 + c1*j + c2*j^2) / d.

    A rational n/d gives (n, d, 0), d; a ``ConjugatePair`` gives its quadratic
    times the least common denominator of its coefficients.
    """
    if isinstance(param, ConjugatePair):
        linear, constant = param.linear, param.constant
        den = math.lcm(linear.denominator, constant.denominator)
        c0 = constant.numerator * (den // constant.denominator)
        return (c0, linear.numerator * (den // linear.denominator), den), den
    return (param.numerator, param.denominator, 0), param.denominator


class Progression(NamedTuple):
    """The factors f(0), ..., f(n-1) of (param)_n cleared to integers, and their denominator."""

    factors: Sequence[int]
    den: int


def cleared_progression(param: Union[RationalLike, ConjugatePair], n: int) -> Progression:
    """The factors f(0), ..., f(n-1) of (param)_n cleared by ``cleared_factor``, and its d.

    A rational a/d gives the arithmetic progression a, a+d, ..., as a
    ``range``; a ``ConjugatePair`` gives its quadratic c0 + j*(c1 + j*c2) as
    one ``map`` over two ranges.  Both iterate in C, with no Python step per
    factor.
    """
    (c0, c1, c2), den = cleared_factor(param)
    if not c2:
        return Progression(range(c0, c0 + n * c1, c1), den)
    return Progression(list(map(c0.__add__, map(mul, range(n), range(c1, c1 + n * c2, c2)))), den)


def _pairwise(nodes: list, compose) -> list:
    """One level up a product tree: each pair of nodes composed, an odd last node carried up."""
    odd = nodes[-1:] if len(nodes) % 2 else []
    return [*map(compose, nodes[::2], nodes[1::2]), *odd]


# a run of at most this many steps is the node of one call of run
LEAF_STEPS = 16


def split_product(run, compose, reduce, a: int, c: int, modulus: int = 0):
    """The node of the steps a..c-1, by binary splitting (Haible-Papanikolaou).

    The steps are halved at their midpoint down to runs of at most
    ``LEAF_STEPS`` steps; run(j, l) gives the node of the steps j..l-1, and
    compose(left, right) the node of left followed by right.  With a
    modulus, every node above the runs is reduced by it, as
    reduce(node, modulus).
    """
    if c - a <= LEAF_STEPS:
        return run(a, c)
    b = (a + c) // 2
    node = compose(split_product(run, compose, reduce, a, b, modulus),
                   split_product(run, compose, reduce, b, c, modulus))
    return reduce(node, modulus) if modulus else node


def product_tree(factors: Sequence[int]) -> int:
    """The product of the ints, by ``split_product`` over runs of ``math.prod``.

    Operands of each product above the runs have about the same size, so
    the cost is quasi-linear in the size of the result, where a
    left-to-right ``math.prod`` of them all is quadratic.
    """
    return split_product(lambda a, c: math.prod(factors[a:c]), mul, None, 0, len(factors))


def remainder_tree(run, ends: list[int], moduli: list[int], compose, reduce, one) -> list:
    """For each i, the node of the steps 0..ends[i]-1 reduced mod moduli[i].

    An accumulating remainder tree (Costa-Gerbicz-Harvey) over any node type:
    run, compose and reduce are those of ``split_product``, and one is the
    empty node.  The ends must never decrease; equal ends give empty
    segments.  Segment i, the steps ends[i-1]..ends[i]-1, is summed by
    ``split_product``; only prefixes i, i+1, ... read it, so it is reduced
    mod the product of their moduli when its step count times the bit length
    of its end, about its unreduced size, exceeds their summed bit lengths.
    Product trees of the segments and of the moduli are built bottom-up,
    then each node receives the composition of every segment to its left,
    reduced mod the product of its own moduli.  The root's product is never
    formed.
    """
    if not ends:
        return []
    if ends[0] < 0 or any(b < a for a, b in zip(ends, ends[1:])):
        raise ValueError("the sequence of ends starts below 0 or decreases")
    bits = [*accumulate(m.bit_length() for m in reversed(moduli))][::-1]  # bits[i]: moduli[i:]
    segments = [split_product(run, compose, reduce, a, b,
                              product_tree(moduli[i:]) if (b - a) * b.bit_length() > bits[i] else 0)
                for i, (a, b) in enumerate(zip([0, *ends], ends))]
    seg_levels, mod_levels = [segments], [moduli]
    while len(seg_levels[-1]) > 2:
        seg_levels.append(_pairwise(seg_levels[-1], compose))
        mod_levels.append(_pairwise(mod_levels[-1], mul))
    before = [one]
    for segs, mods in zip(reversed(seg_levels), reversed(mod_levels)):
        before = [
            reduce(compose(before[i // 2], segs[i - 1]) if i % 2 else before[i // 2], mod)
            for i, mod in enumerate(mods)
        ]
    return [reduce(compose(b, s), m) for b, s, m in zip(before, segments, moduli)]


def cut_product(f: list[int], g: list[int]) -> list[int]:
    """f * g cut to the length of f."""
    k = len(f)
    out = [0] * k
    for a, fa in enumerate(f):
        if fa:
            for b in range(k - a):
                out[a + b] += fa * g[b]
    return out


def poly_value(f: list[int], y: int, modulus: int) -> int:
    """sum_d f_d y^d mod modulus, by Horner's rule."""
    value = 0
    for c in reversed(f):
        value = (value * y + c) % modulus
    return value


def _reduce_coefficients(f: list[int], modulus: int) -> list[int]:
    return [c % modulus for c in f]


def rising_coefficients(leaves: list[tuple[int, int]], k: int) -> list[list[int]]:
    """For each (n, modulus) of leaves, sorted by n, the k coefficients of
    (1+y)_n = prod_{s=1}^{n} (y + s) mod y^k, reduced mod that modulus.

    Step s - 1 is the factor y + s, and the positions n are the ends of one
    ``remainder_tree``.  A congruence reads (1+y)_n at y = p*t with t
    p-integral, and there y^d = 0 mod p^k for d >= k, so the k coefficients
    mod p^k give every such value mod p^k (``poly_value``).  A sweep's leaves
    are the positions of every prime, ``padic_gamma.gamma_p``'s r - 1 and p - 1.
    """

    one = [1] + [0] * (k - 1)
    degrees = range(k - 1, 0, -1)  # built once, not at every step

    def run(a: int, c: int) -> list[int]:
        f = list(one)
        for s in range(a + 1, c + 1):
            for d in degrees:
                f[d] = f[d] * s + f[d - 1]
            f[0] *= s
        return f

    ends = [n for n, _ in leaves]
    moduli = [modulus for _, modulus in leaves]
    return remainder_tree(run, ends, moduli, cut_product, _reduce_coefficients, one)


def pochhammer_pair(param: Union[RationalLike, ConjugatePair], n: int) -> tuple[int, int]:
    """Integers (num, den), not reduced, with num / den = (param)_n: the cleared factors over d^n."""
    if n < 0:
        raise ValueError("pochhammer index must be >= 0")
    factors, den = cleared_progression(param, n)
    return product_tree(factors), den**n
