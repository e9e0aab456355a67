"""Truncated hypergeometric series: exact over Q, and residues in Z/p^k.

A series runs the multiplicative recurrence
t_{k+1} = t_k * prod(a_i + k) / prod(b_j + k) * z / (k + 1).  A parameter is
a rational or a ``ConjugatePair``, which stands for two Galois-conjugate
parameters in Q(i) or Q(omega) and contributes their joint rational
quadratic factor, so every sum stays in Q.

There are two evaluators, one exact and one in Z/p^k, and both walk the
steps of a series by the one binary-splitting walk of ``exact``.
``pfq_pair`` sums a series exactly: the step ratio is cleared to integers
P(j) / Q(j), and ``exact.split_product`` over the (P, Q, T) nodes of the
steps gives the sum as one unreduced integer pair, with no gcd per term.
P and Q are built whole, not step by step: each parameter's cleared factors
over j < n are one integer progression (``exact.cleared_progression``,
iterated in C), and the step factors are the progressions multiplied
pointwise with ``map(mul, ...)``; b1 shares its top progressions between
its two series and its prefactor.  ``pfq_pair`` serves the exact identities
(b1, c1, c3), which compare their two sides by cross-multiplication, and
``pfq_truncated``, the reduced ``Fraction`` for ``supercong hyper`` and the
tests.  ``pfq_residues`` gives the residues of the congruence checks: a
``SeriesFamily`` declares parameters that do not depend on p and a
truncation index that does, and one accumulating remainder tree
(``exact.remainder_tree``) over its step factors, with the truncations as
its ends, gives the residue mod p^k at every prime of a sweep, with no
O(p^2)-bit denominator ever formed.  At a single prime it is the same tree
with one leaf (``kilbourn_lhs``, ``thm1_rhs``, ``vanhamme_lhs``,
``half_harmonic2``).  The slow references, the term-by-term sum from
Pochhammer symbols and a residue recurrence run one step at a time, are
test oracles only (``tests/oracles.py``).  On top of the
evaluators sit the concrete sums and identity instances the verifier
checks: Kilbourn's 4F3, the Theorem 1 4F3, the Van Hamme 6F5(-1), the half
harmonic sum as a 3F2, Whipple's terminating 6F5 with its fully rational
closed form, Bailey's 4F3 transformation specialized at cube-root-of-unity
parameters, and the fourth-root specialization of the Whipple closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable

from .exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    ResidueInt,
    Progression,
    cleared_progression,
    is_prime,
    p_split,
    pochhammer_pair,
    product_tree,
    reduce_mod,
    remainder_tree,
    split_product,
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


def _progressions(params, n: int) -> list[Progression]:
    """Each parameter's cleared factor progression over j < n (``cleared_progression``)."""
    return [cleared_progression(param, n) for param in params]


def _products(progressions: list[Progression], n: int, scale: int = 1) -> tuple[list[int], int]:
    """[scale * prod of the factors f(j), for j < n], and the product of the denominators."""
    out = repeat(scale, n)
    for factors, _ in progressions:
        out = map(mul, out, factors)
    return list(out), math.prod(den for _, den in progressions)


def _steps(
    top: tuple[list[int], int], bottom: list[Progression], argument: Fraction, n: int
) -> tuple[list[int], list[int]]:
    """Integers P(j), Q(j) with term j+1 = term j * P(j) / Q(j), for each step j < n to a nonzero
    term.

    top is the product of the top progressions (``_products``), which a
    caller may share between series.  P(j) = z_num * bottom_den * top(j) and
    Q(j) = z_den * top_den * (j + 1) * prod of the bottom factors at j.  The
    steps stop at a zero argument or the first vanishing top factor, but
    every bottom factor up to n is still tested: the first that vanishes, in
    j and then in parameter order, raises ZeroDenominatorPochhammer.
    """
    top_product, top_den = top
    qs, bottom_den = _products([(range(1, n + 1), 1), *bottom], n, argument.denominator * top_den)
    if 0 in qs:
        j = qs.index(0)
        index = next(i for i, (factors, _) in enumerate(bottom) if not factors[j])
        raise ZeroDenominatorPochhammer(j + 1, index)
    ps = list(map((argument.numerator * bottom_den).__mul__, top_product))
    if 0 in ps:
        live = ps.index(0)
        del ps[live:], qs[live:]
    return ps, qs


def _step_factors(spec: SeriesSpec) -> tuple[list[int], list[int]]:
    """``_steps`` of spec, from its parameters' progressions."""
    n = spec.terms
    return _steps(_products(_progressions(spec.top, n), n), _progressions(spec.bottom, n),
                  spec.argument, n)


def _compose(left: tuple[int, int, int], right: tuple[int, int, int]) -> tuple[int, int, int]:
    """(P, Q, T) of the steps of ``left`` followed by those of ``right``."""
    P1, Q1, T1 = left
    P2, Q2, T2 = right
    return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2


_ONE = (1, 1, 0)  # the (P, Q, T) of no step


def _reduce(node: tuple[int, int, int], modulus: int) -> tuple[int, int, int]:
    P, Q, T = node
    return P % modulus, Q % modulus, T % modulus


def _run(ps: list[int], qs: list[int]):
    """The run of ``exact.split_product`` over the steps ps, qs: (P, Q, T) of the steps a..c-1,
    with P and Q the products of ps and qs and T / Q = sum over j in a..c-1 of
    prod_{i=a}^{j} ps[i] / qs[i].  Steps past the end of ps, which ``_steps`` cuts at a
    vanishing top factor, are empty.
    """

    def run(a: int, c: int) -> tuple[int, int, int]:
        P, Q, T = _ONE
        for j in range(a, min(c, len(ps))):
            P *= ps[j]
            T = T * qs[j] + P
            Q *= qs[j]
        return P, Q, T

    return run


def _sum_pair(ps: list[int], qs: list[int]) -> tuple[int, int]:
    _, Q, T = split_product(_run(ps, qs), _compose, _reduce, 0, len(ps))
    return Q + T, Q


def pfq_pair(spec: SeriesSpec) -> tuple[int, int]:
    """Integers (num, den), not reduced, with num / den = pfq_truncated(spec).

    Binary splitting (Haible-Papanikolaou): ``exact.split_product`` over the
    integer step factors P(j), Q(j) of ``_step_factors`` gives the whole sum as
    1 + T / Q with no gcd, so its cost is a few multiplications of the
    final size instead of one reduced ``Fraction`` per term.
    """
    return _sum_pair(*_step_factors(spec))


def pfq_truncated(spec: SeriesSpec) -> Fraction:
    """Exact sum_{k=0}^{n} prod(top_i)_k / (prod(bottom_j)_k * k!) * z^k: ``pfq_pair``, reduced once."""
    return Fraction(*pfq_pair(spec))


def _guard(bottom) -> int:
    """The number of bottom parameters, a pair counting as two."""
    return sum(2 if isinstance(b, ConjugatePair) else 1 for b in bottom)


def _valuation(x: int, p: int, precision: int) -> int:
    """vp(x) for x reduced mod p^precision, or precision when x is 0 there."""
    return p_split(x, p)[0] if x else precision


def _prefix_residue(node, p: int, k: int, e: int, precision: int) -> ResidueInt:
    """p^e * (Q + T) / Q mod p^k from a prefix (P, Q, T) reduced mod p^precision.

    The precision must be at least k + vp(Q) + max(0, -e): enough to read Q's
    unit part and (Q + T) / p^(vp(Q) - e) mod p^k.

    Raises NegativeValuation when p^e times the sum is not p-integral.
    """
    _, Q, T = node
    v, unit = p_split(Q, p)
    total = (Q + T) % p**precision
    shift = e - v
    if shift < 0:
        if total % p**-shift:
            raise NegativeValuation(
                f"{p}^{e} times the sum has negative {p}-adic valuation, cannot reduce mod {p}^{k}"
            )
        total //= p**-shift
    else:
        total *= p**shift
    return ResidueInt(total * pow(unit, -1, p**k), p, k)


@dataclass(frozen=True)
class SeriesFamily:
    """A truncated series whose parameters and argument are fixed and whose truncation depends on p.

    truncation(p) is the truncation index at p; ``at`` gives the ``SeriesSpec``
    at one prime and ``pfq_residues`` sums the family at many primes.
    """

    top: tuple[Fraction | ConjugatePair, ...]
    bottom: tuple[Fraction | ConjugatePair, ...]
    argument: Fraction
    truncation: Callable[[int], int]

    def at(self, p: int) -> SeriesSpec:
        return SeriesSpec(self.top, self.bottom, self.argument, self.truncation(p))


def pfq_residues(
    family: SeriesFamily, primes: list[int], k: int, e: int = 0
) -> list[ResidueInt | NegativeValuation]:
    """p^e * pfq_truncated(family.at(p)) mod p^k for every p of primes, from one remainder tree.

    The family's truncation index must never decrease along primes.  The
    step factors are built once, for the largest truncation, and the
    truncations are the ends of one ``exact.remainder_tree`` over them, which
    reduces the prefix of each p mod p^(k+g) (for e >= 0), with the guard g
    the number of bottom parameters, a pair counting as two.  Nothing is
    divided before that, so a bottom factor divisible by p needs no
    valuation bookkeeping in the tree.  A prefix whose denominator Q has
    vp(Q) > g (p-factors of the step numerators and denominators can cancel
    in the terms) is summed again at that prime with g = vp(Q), by a tree of
    one leaf, which the declared families never need.

    Entry i is the residue at primes[i], or the NegativeValuation its prefix
    raised (see ``_prefix_residue``).  ZeroDenominatorPochhammer is raised
    for the whole family when a bottom factor vanishes before the largest
    truncation.
    """
    if not primes:
        return []
    ends = [family.truncation(p) for p in primes]
    guard = _guard(family.bottom)
    extra = max(0, -e)
    precision = k + guard + extra
    run = _run(*_step_factors(family.at(primes[-1])))
    moduli = [p**precision for p in primes]
    out: list[ResidueInt | NegativeValuation] = []
    prefixes = remainder_tree(run, ends, moduli, _compose, _reduce, _ONE)
    for node, p, end in zip(prefixes, primes, ends):
        g = guard
        while (v := _valuation(node[1], p, k + g + extra)) > g:
            g = v
            (node,) = remainder_tree(run, [end], [p ** (k + g + extra)], _compose, _reduce, _ONE)
        try:
            out.append(_prefix_residue(node, p, k, e, k + g + extra))
        except NegativeValuation as exc:
            out.append(exc)
    return out


def _residue_at(spec: SeriesSpec, p: int, k: int, e: int = 0) -> ResidueInt:
    """p^e * pfq_truncated(spec) mod p^k: ``pfq_residues`` at the one prime p; raises what
    its prefix raised."""
    family = SeriesFamily(spec.top, spec.bottom, spec.argument, lambda _: spec.terms)
    (residue,) = pfq_residues(family, [p], k, e)
    if isinstance(residue, NegativeValuation):
        raise residue
    return residue


# --- the concrete truncated sums -------------------------------------------

F = Fraction


def _half_p_minus_1(p: int) -> int:
    return (p - 1) // 2


KILBOURN = SeriesFamily((F(1, 2),) * 4, (F(1),) * 3, F(1), _half_p_minus_1)


def kilbourn_spec(p: int) -> SeriesSpec:
    """4F3[1/2,1/2,1/2,1/2; 1,1,1; 1] truncated at (p-1)/2."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    return KILBOURN.at(p)


def kilbourn_lhs(p: int, k: int) -> ResidueInt:
    """The Kilbourn sum mod p^k: congruent to a(p) mod p^3."""
    return _residue_at(kilbourn_spec(p), p, k)


THM1 = SeriesFamily((F(1, 2),) * 4, (F(1), F(3, 4), F(5, 4)), F(1), _half_p_minus_1)


def thm1_spec(p: int) -> SeriesSpec:
    """4F3[1/2,1/2,1/2,1/2; 1,3/4,5/4; 1] truncated at (p-1)/2.

    Individual terms can have valuation -1 through the (5/4)_k bottom factor;
    the p-multiplied full sum is p-integral for p >= 5.
    """
    if p < 5:
        raise ValueError("requires p >= 5")
    return THM1.at(p)


def thm1_rhs(p: int, k: int) -> ResidueInt:
    """p times the Theorem 1 sum, mod p^k."""
    return _residue_at(thm1_spec(p), p, k, e=1)


VANHAMME = SeriesFamily(
    (F(5, 4),) + (F(1, 2),) * 5, (F(1, 4),) + (F(1),) * 4, F(-1), _half_p_minus_1
)


def vanhamme_spec(p: int) -> SeriesSpec:
    """6F5[5/4,1/2,1/2,1/2,1/2,1/2; 1/4,1,1,1,1; -1] truncated at (p-1)/2."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    return VANHAMME.at(p)


def vanhamme_lhs(p: int, k: int) -> ResidueInt:
    """The Van Hamme sum mod p^k."""
    return _residue_at(vanhamme_spec(p), p, k)


def _half_p_minus_3(p: int) -> int:
    return (p - 3) // 2


HALF_HARMONIC2 = SeriesFamily((F(1),) * 3, (F(2),) * 2, F(1), _half_p_minus_3)


def half_harmonic2_spec(p: int) -> SeriesSpec:
    """3F2[1,1,1; 2,2; 1] truncated at (p-3)/2: term j is 1/(j+1)^2, so the sum is
    sum_{j=1}^{(p-1)/2} 1/j^2 (``half_harmonic2``)."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return HALF_HARMONIC2.at(p)


def half_harmonic2(p: int, k: int) -> ResidueInt:
    """sum_{j=1}^{(p-1)/2} 1/j^2 mod p^k.  Divisible by p for p >= 5 (Wolstenholme)."""
    return _residue_at(half_harmonic2_spec(p), p, k)


# --- identity instances ------------------------------------------------------


@dataclass(frozen=True)
class IdentityOutcome:
    """Both exact sides of an identity check, each an integer pair (num, den) not reduced.

    ``equal`` compares the pairs by cross-multiplication.  ``lhs`` and
    ``rhs`` reduce a side to a ``Fraction`` only when read, so a passing
    check does no gcd on its sides.
    """

    lhs_pair: tuple[int, int]
    rhs_pair: tuple[int, int]
    equal: bool = field(init=False)

    def __post_init__(self) -> None:
        (ln, ld), (rn, rd) = self.lhs_pair, self.rhs_pair
        object.__setattr__(self, "equal", ln * rd == rn * ld)

    @property
    def lhs(self) -> Fraction:
        return Fraction(*self.lhs_pair)

    @property
    def rhs(self) -> Fraction:
        return Fraction(*self.rhs_pair)


def _product(*pairs: tuple[int, int]) -> tuple[int, int]:
    """The product of rationals given as (num, den) pairs, as one pair."""
    return math.prod(n for n, _ in pairs), math.prod(d for _, d in pairs)


def _inverse(pair: tuple[int, int]) -> tuple[int, int]:
    num, den = pair
    return den, num


def whipple_c1_check(n: int, y) -> IdentityOutcome:
    """Terminating Whipple 6F5(-1) at parameter x = 2n + 3/2 against its rational closed form.

    lhs = 6F5[5/4, 1/2, -2n-1, 2n+2, 1/2+y, 1/2-y;
              1/4, 2n+5/2, -2n-1/2, 1-y, 1+y; -1]   (terminates at k = 2n+1)
    rhs = -(4n+3) (y/2)_{n+1} (y/2-n)_{n+1} / ((y-1)/2 - n)_{2n+2}
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    y = F(y)
    top = (F(5, 4), F(1, 2), F(-2 * n - 1), F(2 * n + 2), F(1, 2) + y, F(1, 2) - y)
    bottom = (F(1, 4), 2 * n + F(5, 2), -2 * n - F(1, 2), 1 - y, 1 + y)
    try:
        lhs = pfq_pair(SeriesSpec(top, bottom, F(-1), 2 * n + 1))
    except ZeroDenominatorPochhammer as pole:
        b, t = bottom[pole.param_index], pole.term_index - 1
        raise PoleParameter(f"bottom parameter {b} hits zero at offset {t}") from None
    rhs_den = pochhammer_pair((y - 1) / 2 - n, 2 * n + 2)
    if rhs_den[0] == 0:
        raise PoleParameter(f"((y-1)/2 - n)_(2n+2) vanishes for y = {y}, n = {n}")
    rhs = _product(
        (-(4 * n + 3), 1),
        pochhammer_pair(y / 2, n + 1),
        pochhammer_pair(y / 2 - n, n + 1),
        _inverse(rhs_den),
    )
    return IdentityOutcome(lhs, rhs)


def bailey_b1_check(p: int) -> IdentityOutcome:
    """Bailey's 4F3(1) transformation specialized at a = 1/2, b = (1 - wp)/2, w^3 = 1.

    lhs = 4F3[1/2, (1-wp)/2, (1-w^2 p)/2, (1-p)/2;
              1 + wp/2, 1 + w^2 p/2, 1 + p/2; 1]      (terminates at (p-1)/2)
    rhs = p (1/2)_m ((1-p)/2)_m / [(1+wp/2)_m (1+w^2 p/2)_m]
          * 4F3[1/2, (1-wp)/2, (1-w^2 p)/2, (1-p)/2; 1, 3/4, 5/4; 1]_m

    The omega parameters come in the conjugate pairs (1-wp)/2, (1-w^2 p)/2
    and 1+wp/2, 1+w^2 p/2, so both sides are rational.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    m = (p - 1) // 2
    b_pair = ConjugatePair(F(1, 2), F(-p, 2), TRACE_OMEGA)
    d_pair = ConjugatePair(F(1), F(p, 2), TRACE_OMEGA)
    half, b, shifted = _progressions((F(1, 2), b_pair, F(1 - p, 2)), m)
    top = _products([half, b, shifted], m)  # shared by the two series
    d, e = _progressions((d_pair, 1 + F(p, 2)), m)
    lhs = _sum_pair(*_steps(top, [d, e], F(1), m))
    series = _sum_pair(*_steps(top, _progressions(THM1.bottom, m), F(1), m))  # 1, 3/4, 5/4
    # (1/2)_m ((1-p)/2)_m / (d_pair)_m from the same progressions
    prefactor = (
        product_tree(list(map(mul, half.factors, shifted.factors))) * d.den**m,
        (half.den * shifted.den) ** m * product_tree(d.factors),
    )
    return IdentityOutcome(lhs, _product((p, 1), prefactor, series))


def _c3_closed_form(p: int) -> tuple[int, ConjugatePair, ConjugatePair]:
    """q and the pairs A, B with the closed form = -(p^3/16) (A)_{q-1} / (B)_q.

    The closed form is -p (-ip/4)_q ((3-(i+1)p)/4)_q / ((1-(i+1)p)/4)_{2q},
    q = (p+1)/4.  The real parts of the two numerator symbols together run
    over -(q-1)..q-1 and those of the denominator over the half-integers
    +-(j - 1/2), so pairing x - ip/4 with -x - ip/4 leaves
    -(p^3/16) prod_{j<q} (j^2 + p^2/16) / prod_{j<=q} ((j - 1/2)^2 + p^2/16).
    """
    if p % 4 != 3 or p < 7 or not is_prime(p):
        raise ValueError("requires a prime p = 3 (mod 4), p >= 7")
    return (p + 1) // 4, ConjugatePair(F(1), F(p, 4), TRACE_I), ConjugatePair(F(1, 2), F(p, 4), TRACE_I)


def c3_rhs_closed(p: int, symbols: tuple[ResidueInt, ResidueInt]) -> ResidueInt:
    """The closed form mod p^k from its symbols (A)_{q-1} and (B)_q mod p^k (``_c3_closed_form``).

    Every factor of both symbols is a p-unit.
    """
    num_symbol, den_symbol = symbols
    return reduce_mod(F(-(p**3), 16), p, num_symbol.k) * num_symbol * den_symbol.inverse()


def c3_check(p: int) -> IdentityOutcome:
    """The fourth-root specialization of the Whipple closed form, at n=(p-3)/4, y=-ip/2.

    lhs = 6F5[5/4, 1/2, (1-p)/2, (1+p)/2, (1-ip)/2, (1+ip)/2;
              1/4, 1-p/2, 1+p/2, 1-ip/2, 1+ip/2; -1]   (truncated at (p-1)/2)
    Its i parameters come in conjugate pairs, so lhs is rational; rhs is the
    closed form of ``c3_rhs_closed``, evaluated exactly.
    """
    if p % 4 != 3 or p < 7 or not is_prime(p):
        raise ValueError("requires a prime p = 3 (mod 4), p >= 7")
    top = (F(5, 4), F(1, 2), F(1 - p, 2), F(1 + p, 2), ConjugatePair(F(1, 2), F(p, 2), TRACE_I))
    bottom = (F(1, 4), 1 - F(p, 2), 1 + F(p, 2), ConjugatePair(F(1), F(p, 2), TRACE_I))
    lhs = pfq_pair(SeriesSpec(top, bottom, F(-1), (p - 1) // 2))
    q, num, den = _c3_closed_form(p)
    rhs = _product((-(p**3), 16), pochhammer_pair(num, q - 1), _inverse(pochhammer_pair(den, q)))
    return IdentityOutcome(lhs, rhs)
