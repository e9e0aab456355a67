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
pointwise with ``map(mul, ...)``.  ``pfq_pair`` serves the exact identities
c1 and c3, which compare their two sides by cross-multiplication, and
``pfq_truncated``, the reduced ``Fraction`` for ``supercong hyper`` and the
tests.  b1 clears its two series, which share P(j), and its prefactor to
integer step factors in p and j, and sums all three in one walk.
``pfq_residues`` gives the residues of the congruence checks: a
``SeriesFamily`` declares parameters that do not depend on p and a
truncation index that does, and one accumulating remainder tree
(``exact.remainder_tree``) over its step factors, with the truncations as
its ends, gives the residue mod p^k at every prime of a sweep, with no
O(p^2)-bit denominator ever formed: each prefix is reduced mod
p^(k + vp(Q) + max(0, -e)), with vp(Q) counted from the parameters.  At a
single prime it is the same tree with one leaf (``kilbourn_lhs``,
``thm1_rhs``, ``vanhamme_lhs``, ``half_harmonic2``).  The slow references,
the term-by-term sum from Pochhammer symbols and a residue recurrence run
one step at a time, are test oracles only (``tests/oracles.py``).  On top
of the evaluators sit the concrete sums and identity instances the verifier
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
    ConjugatePair,
    NegativeValuation,
    ResidueInt,
    Progression,
    cleared_factor,
    cleared_progression,
    is_prime,
    p_split,
    pochhammer_pair,
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


def _products(progressions: list[Progression], n: int, scale: int = 1) -> tuple[list[int], int]:
    """[scale * prod of the factors f(j), for j < n], and the product of the denominators."""
    out = repeat(scale, n)
    for factors, _ in progressions:
        out = map(mul, out, factors)
    return list(out), math.prod(den for _, den in progressions)


def _step_factors(spec: SeriesSpec) -> tuple[list[int], list[int]]:
    """Integers P(j), Q(j) with term j+1 = term j * P(j) / Q(j), for each step j < n to a nonzero
    term.

    Each parameter's factors over j < n are one progression (``cleared_progression``).
    P(j) = z_num * bottom_den * prod of the top factors at j and
    Q(j) = z_den * top_den * (j + 1) * prod of the bottom factors at j.  The
    steps stop at a zero argument or the first vanishing top factor, but
    every bottom factor up to n is still tested: the first that vanishes, in
    j and then in parameter order, raises ZeroDenominatorPochhammer.
    """
    n, argument = spec.terms, spec.argument
    top_product, top_den = _products([cleared_progression(a, n) for a in spec.top], n)
    bottom = [cleared_progression(b, n) for b in spec.bottom]
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


def _compose(left: tuple[int, int, int], right: tuple[int, int, int]) -> tuple[int, int, int]:
    """(P, Q, T) of the steps of ``left`` followed by those of ``right``."""
    P1, Q1, T1 = left
    P2, Q2, T2 = right
    return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2


def _reduce(node: tuple[int, int, int], modulus: int) -> tuple[int, int, int]:
    P, Q, T = node
    return P % modulus, Q % modulus, T % modulus


def _run(ps: list[int], qs: list[int]):
    """The run of ``exact.split_product`` over the steps ps, qs: (P, Q, T) of the steps a..c-1,
    with P and Q the products of ps and qs and T / Q = sum over j in a..c-1 of
    prod_{i=a}^{j} ps[i] / qs[i].  Steps past the end of ps, which ``_step_factors`` cuts
    at a vanishing top factor, are empty.
    """

    def run(a: int, c: int) -> tuple[int, int, int]:
        P, Q, T = 1, 1, 0
        for j in range(a, min(c, len(ps))):
            P *= ps[j]
            T = T * qs[j] + P
            Q *= qs[j]
        return P, Q, T

    return run


def pfq_pair(spec: SeriesSpec) -> tuple[int, int]:
    """Integers (num, den), not reduced, with num / den = pfq_truncated(spec).

    Binary splitting (Haible-Papanikolaou): ``exact.split_product`` over the
    integer step factors P(j), Q(j) of ``_step_factors`` gives the whole sum as
    1 + T / Q with no gcd, so its cost is a few multiplications of the
    final size instead of one reduced ``Fraction`` per term.
    """
    ps, qs = _step_factors(spec)
    _, Q, T = split_product(_run(ps, qs), _compose, _reduce, 0, len(ps))
    return Q + T, Q


def pfq_truncated(spec: SeriesSpec) -> Fraction:
    """Exact sum_{k=0}^{n} prod(top_i)_k / (prod(bottom_j)_k * k!) * z^k: ``pfq_pair``, reduced once."""
    return Fraction(*pfq_pair(spec))


def _prefix_residue(node, p: int, k: int, e: int, precision: int) -> ResidueInt | NegativeValuation:
    """p^e * (Q + T) / Q mod p^k from a prefix (P, Q, T) reduced mod p^precision, or the
    NegativeValuation when p^e times the sum is not p-integral.

    The precision is k + vp(Q) + max(0, -e) (``_prefix_valuations``): just
    enough to read Q's unit part and (Q + T) / p^(vp(Q) - e) mod p^k.
    """
    _, Q, T = node
    v, unit = p_split(Q, p)
    total = (Q + T) % p**precision
    shift = e - v
    if shift < 0:
        if total % p**-shift:
            return NegativeValuation(
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


def _prefix_valuations(family: SeriesFamily, primes: list[int], ends: list[int], steps: int) -> list[int]:
    """vp(Q) of the prefix of each p of primes: of the product of the step denominators Q(j)
    over j < min(end, steps), with end its truncation and steps the count ``_step_factors`` left.

    Q(j) = z_den * top_den * (j + 1) * prod of n + j*d over the bottom parameters n/d, which
    must be rational (``_step_factors``).  A factor n + j*d with p not dividing d is divisible
    by p only at j = -n/d (mod p), where its full valuation is read; with p | d it is a unit.
    """
    constant = family.argument.denominator * math.prod(cleared_factor(a)[1] for a in family.top)
    linear = [(1, 1), *((b.numerator, b.denominator) for b in family.bottom)]
    factors = [(c, d, linear.count((c, d))) for c, d in dict.fromkeys(linear)]
    out = []
    for p, end in zip(primes, ends):
        n = min(end, steps)
        v = 0 if constant % p else n * p_split(constant, p)[0]
        for c, d, count in factors:
            if d % p and (first := -c * pow(d, -1, p) % p) < n:
                for j in range(first, n, p):
                    v += count * p_split(c + j * d, p)[0]
        out.append(v)
    return out


def pfq_residues(
    family: SeriesFamily, primes: list[int], k: int, e: int = 0
) -> list[ResidueInt | NegativeValuation]:
    """p^e * pfq_truncated(family.at(p)) mod p^k for every p of primes, from one remainder tree.

    The family's truncation index must never decrease along primes, and its
    bottom parameters must be rational (a bottom ``ConjugatePair`` raises
    ValueError).  The step factors are built once, for the largest
    truncation, and the truncations are the ends of one remainder tree over
    them; the prefix of p is reduced mod p^(k + vp(Q) + max(0, -e)), with
    vp(Q) counted from the parameters (``_prefix_valuations``).

    Entry i is the residue at primes[i], or the NegativeValuation of its
    prefix.  ZeroDenominatorPochhammer is raised for the whole family when a
    bottom factor vanishes before the largest truncation.
    """
    if any(isinstance(b, ConjugatePair) for b in family.bottom):
        raise ValueError("pfq_residues counts vp(Q) of rational bottom parameters only")
    if not primes:
        return []
    ends = [family.truncation(p) for p in primes]
    ps, qs = _step_factors(family.at(primes[-1]))
    precisions = [k + v + max(0, -e) for v in _prefix_valuations(family, primes, ends, len(ps))]
    moduli = [p**precision for p, precision in zip(primes, precisions)]
    prefixes = remainder_tree(_run(ps, qs), ends, moduli, _compose, _reduce)
    return [_prefix_residue(node, p, k, e, precision)
            for node, p, precision in zip(prefixes, primes, precisions)]


def _residue_at(spec: SeriesSpec, p: int, k: int, e: int = 0) -> ResidueInt:
    """p^e * pfq_truncated(spec) mod p^k: ``pfq_residues`` at the one prime p; raises the
    NegativeValuation of its prefix."""
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


def _b1_compose(left: tuple, right: tuple) -> tuple:
    """(P, Q_L, T_L, Q_S, T_S, A, D) of left then right: two ``_compose`` sharing P, two products."""
    P1, QL1, TL1, QS1, TS1, A1, D1 = left
    P2, QL2, TL2, QS2, TS2, A2, D2 = right
    return P1 * P2, QL1 * QL2, TL1 * QL2 + P1 * TL2, QS1 * QS2, TS1 * QS2 + P1 * TS2, A1 * A2, D1 * D2


def bailey_b1_check(p: int) -> IdentityOutcome:
    """Bailey's 4F3(1) transformation specialized at a = 1/2, b = (1 - wp)/2, w^3 = 1.

    lhs = 4F3[1/2, (1-wp)/2, (1-w^2 p)/2, (1-p)/2;
              1 + wp/2, 1 + w^2 p/2, 1 + p/2; 1]      (terminates at (p-1)/2)
    rhs = p (1/2)_m ((1-p)/2)_m / [(1+wp/2)_m (1+w^2 p/2)_m]
          * 4F3[1/2, (1-wp)/2, (1-w^2 p)/2, (1-p)/2; 1, 3/4, 5/4; 1]_m

    The omega parameters come in the conjugate pairs (1-wp)/2, (1-w^2 p)/2 and
    1+wp/2, 1+w^2 p/2, so both sides are rational.  Let m = (p-1)/2 and, at step j < m,
    h = 2j+1, s = h-p and t = 2j+2.  The top factors 1/2+j = h/2, (1-p)/2+j = s/2 and the pair's
    (h^2+hp+p^2)/4 are P(j) = h s (h^2+hp+p^2) over 16, for both series; the lhs bottom factors
    j+1, the pair's (t^2-tp+p^2)/4 and 1+p/2+j = (t+p)/2 are Q_L(j) = 2(j+1)(t^2-tp+p^2)(t+p)
    over 16; and j+1, 1+j, 3/4+j, 5/4+j are Q_S(j) = (j+1)^2 (4j+3)(4j+5) over 16.  The
    prefactor's 4^m cancel: it is A / D, with A the product of h s and D that of t^2-tp+p^2.
    One ``exact.split_product`` walk over the node (P, Q_L, T_L, Q_S, T_S, A, D) gives both
    sums, each as 1 + T/Q, and the prefactor.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    m, pp = (p - 1) // 2, p * p
    hs, ts, js = range(1, p - 1, 2), range(2, p + 1, 2), range(1, m + 1)
    a_factors = list(map(mul, hs, range(1 - p, -1, 2)))  # h s
    d_factors = list(map(pp.__add__, map(mul, ts, range(2 - p, 1, 2))))  # t(t-p) + p^2
    ps = list(map(mul, a_factors, map(pp.__add__, map(mul, hs, range(1 + p, 2 * p - 1, 2)))))
    qls = list(map(mul, map(mul, ts, d_factors), range(2 + p, 2 * p + 1, 2)))  # 2(j+1) = t
    qss = list(map(mul, map(mul, js, js), map(mul, range(3, 2 * p, 4), range(5, 2 * p + 1, 4))))

    def run(a: int, c: int) -> tuple:
        P, QL, TL, QS, TS = 1, 1, 0, 1, 0
        for j in range(a, c):
            P *= ps[j]
            TL = TL * qls[j] + P
            QL *= qls[j]
            TS = TS * qss[j] + P
            QS *= qss[j]
        return P, QL, TL, QS, TS, math.prod(a_factors[a:c]), math.prod(d_factors[a:c])

    _, QL, TL, QS, TS, A, D = split_product(run, _b1_compose, None, 0, m)
    return IdentityOutcome((QL + TL, QL), (p * A * (QS + TS), D * QS))


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
