import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qzeta
from oracles import (
    GuardExceeded,
    pfq_residue,
    pfq_truncated_reference,
    pochhammer_mod,
    ramanujan_float_check,
)
from supercong import hypergeom
from supercong.eta import a_p
from supercong.exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    Progression,
    cleared_factor,
    cleared_progression,
    p_split,
    pochhammer,
    pochhammer_pair,
    reduce_mod,
    vp,
)
from supercong.hypergeom import (
    HALF_HARMONIC2,
    KILBOURN,
    THM1,
    VANHAMME,
    IdentityOutcome,
    PoleParameter,
    SeriesFamily,
    SeriesSpec,
    ZeroDenominatorPochhammer,
    _prefix_valuations,
    _step_factors,
    bailey_b1_check,
    c3_check,
    c3_rhs_closed,
    half_harmonic2,
    half_harmonic2_spec,
    kilbourn_lhs,
    kilbourn_spec,
    pfq_pair,
    pfq_residues,
    pfq_truncated,
    thm1_rhs,
    thm1_spec,
    vanhamme_lhs,
    vanhamme_spec,
    whipple_c1_check,
)
from supercong.verifier import primes_between


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
conjugate_pairs = st.builds(
    ConjugatePair,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from([TRACE_I, TRACE_OMEGA]),
)
non_positive_integers = st.integers(-5, 0).map(F)


def rational_params(min_size, max_size):
    return st.lists(small_rationals, min_size=min_size, max_size=max_size)


@st.composite
def exact_cases(draw):
    """Specs with rational and pair parameters of both traces, from 0 terms up, zero
    arguments among them, and top and bottom factors that vanish (a pair vanishes when y = 0)."""
    vanishing_pairs = st.builds(ConjugatePair, non_positive_integers, st.just(0),
                                st.sampled_from([TRACE_I, TRACE_OMEGA]))
    top = draw(rational_params(0, 3)) + draw(st.lists(conjugate_pairs, max_size=2))
    top += draw(st.lists(non_positive_integers, max_size=1))
    bottom = draw(rational_params(0, 2)) + draw(st.lists(conjugate_pairs, max_size=2))
    bottom += draw(st.lists(st.one_of(non_positive_integers, vanishing_pairs), max_size=1))
    argument = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
    terms = draw(st.integers(0, 40))
    return SeriesSpec(tuple(draw(st.permutations(top))), tuple(draw(st.permutations(bottom))),
                      argument, terms)


def outcome_of(evaluate, spec):
    try:
        return evaluate(spec)
    except ZeroDenominatorPochhammer as info:
        return info.term_index, info.param_index


def step_factors_by_loop(spec):
    """The step factors P(j), Q(j) built one step at a time: the oracle for ``_step_factors``.

    Every factor is evaluated at its offset j from ``cleared_factor``; the
    steps stop at a zero argument or the first vanishing top factor, and the
    first vanishing bottom factor, in j and then in parameter order, raises.
    """
    top = [cleared_factor(a) for a in spec.top]
    bottom = [cleared_factor(b) for b in spec.bottom]
    p_scale = spec.argument.numerator * math.prod(d for _, d in bottom)
    q_scale = spec.argument.denominator * math.prod(d for _, d in top)
    ps, qs = [], []
    live = p_scale != 0
    for j in range(spec.terms):
        q = q_scale * (j + 1)
        for index, ((c0, c1, c2), _) in enumerate(bottom):
            x = c0 + j * (c1 + j * c2)
            if not x:
                raise ZeroDenominatorPochhammer(j + 1, index)
            q *= x
        if live:
            p = p_scale
            for (c0, c1, c2), _ in top:
                p *= c0 + j * (c1 + j * c2)
            live = p != 0
            if live:
                ps.append(p)
                qs.append(q)
    return ps, qs


class TestStepFactors:
    """``_step_factors``, built from whole progressions, against the per-step loop."""

    @given(exact_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_loop(self, spec):
        assert outcome_of(_step_factors, spec) == outcome_of(step_factors_by_loop, spec)

    @pytest.mark.parametrize("spec", [
        # no steps at all, and a zero argument that still tests the bottom
        SeriesSpec((F(1, 2),), (F(1),), F(1), 0),
        SeriesSpec((F(1, 2),), (F(1), F(-3)), F(0), 6),
        SeriesSpec((ConjugatePair(F(1, 2), F(3, 4), TRACE_I),), (F(5, 3),), F(0), 6),
        # two bottoms, a rational and a pair, vanish at the same step: the first one raises
        SeriesSpec((F(1, 2),), (F(1), F(-2), ConjugatePair(F(-2), F(0), TRACE_I)), F(1), 5),
        SeriesSpec((F(1, 2),), (ConjugatePair(F(-2), F(0), TRACE_OMEGA), F(-2)), F(1), 5),
        # a bottom that vanishes after the top has ended the terms
        SeriesSpec((F(-1), ConjugatePair(F(1), F(2), TRACE_OMEGA)), (F(2), F(-3)), F(3, 2), 5),
        # a top that vanishes inside the range, with no bottom zero
        SeriesSpec((F(-4, 2), F(7, 3)), (F(5, 2), ConjugatePair(F(1), F(1, 2), TRACE_I)), F(-2), 9),
        # the b1 and c3 shapes at p = 11
        SeriesSpec((F(1, 2), ConjugatePair(F(1, 2), F(-11, 2), TRACE_OMEGA), F(-5)),
                   (ConjugatePair(F(1), F(11, 2), TRACE_OMEGA), F(13, 2)), F(1), 5),
        SeriesSpec((F(5, 4), F(1, 2), F(-5), F(6), ConjugatePair(F(1, 2), F(11, 2), TRACE_I)),
                   (F(1, 4), F(-9, 2), F(13, 2), ConjugatePair(F(1), F(11, 2), TRACE_I)), F(-1), 5),
    ])
    def test_edge_cases(self, spec):
        assert outcome_of(_step_factors, spec) == outcome_of(step_factors_by_loop, spec)

    def test_a_progression_one_step_off_is_caught(self, monkeypatch):
        # mutation check: the oracle comparison must fail when every progression starts at j = 1
        def one_step_off(param, n):
            factors, den = cleared_progression(param, n + 1)
            return Progression(factors[1:], den)

        monkeypatch.setattr(hypergeom, "cleared_progression", one_step_off)
        for spec in (SeriesSpec((F(1, 2),) * 2, (F(1),), F(1), 4),
                     SeriesSpec((ConjugatePair(F(1, 2), F(3, 4), TRACE_I),), (F(3, 2),), F(-1), 4)):
            assert outcome_of(_step_factors, spec) != outcome_of(step_factors_by_loop, spec)


class TestPfqTruncated:
    def test_kilbourn_two_terms(self):
        spec = SeriesSpec((F(1, 2),) * 4, (F(1),) * 3, F(1), 1)
        assert pfq_truncated(spec) == 1 + F(1, 16)

    def test_zero_terms_is_one(self):
        spec = SeriesSpec((F(5, 4), F(1, 2)), (F(1, 4),), F(-1), 0)
        assert pfq_truncated(spec) == 1

    def test_vanhamme_two_terms(self):
        spec = SeriesSpec((F(5, 4),) + (F(1, 2),) * 5, (F(1, 4),) + (F(1),) * 4, F(-1), 1)
        assert pfq_truncated(spec) == 1 - F(5, 32)

    def test_bottom_pochhammer_vanishes(self):
        spec = SeriesSpec((F(1, 2),), (F(-2),), F(1), 4)
        with pytest.raises(ZeroDenominatorPochhammer) as info:
            pfq_truncated(spec)
        assert info.value.term_index == 3  # (-2)+2 = 0 poisons terms k >= 3
        assert info.value.param_index == 0
        # the pair -1 +- 0*i vanishes at offset 1; it is bottom parameter #1
        spec = SeriesSpec((F(1, 2),), (F(3), ConjugatePair(-1, 0, TRACE_I)), F(1), 4)
        for evaluate in (pfq_truncated, pfq_truncated_reference):
            with pytest.raises(ZeroDenominatorPochhammer) as info:
                evaluate(spec)
            assert (info.value.term_index, info.value.param_index) == (2, 1)
        # a vanishing top factor (-1 + 1) or a zero argument ends the terms, not the test
        for argument in (F(1), F(0)):
            spec = SeriesSpec((F(-1),), (F(2), F(-3)), argument, 5)
            with pytest.raises(ZeroDenominatorPochhammer) as info:
                pfq_truncated(spec)
            assert (info.value.term_index, info.value.param_index) == (4, 1)

    @given(exact_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, spec):
        # the reference raises at the first vanishing (b)_k, which is the first
        # vanishing factor in step order, so the indices must agree too
        assert outcome_of(pfq_truncated, spec) == outcome_of(pfq_truncated_reference, spec)

    def test_recurrence_matches_reference_rational(self):
        rng = random.Random(3)
        for _ in range(25):
            top = tuple(F(rng.randrange(1, 9), rng.choice([1, 2, 4])) for _ in range(3))
            bottom = tuple(F(rng.randrange(1, 9), rng.choice([1, 2, 4])) for _ in range(2))
            spec = SeriesSpec(top, bottom, F(rng.choice([1, -1])), rng.randrange(0, 8))
            assert pfq_truncated(spec) == pfq_truncated_reference(spec)

    def test_recurrence_matches_reference_cyclo(self):
        # each pair against its two parameters 1 +- (3/2)zeta, 1 -+ (5/4)zeta in Q(zeta)
        for trace in (TRACE_I, TRACE_OMEGA):
            z = qzeta.zeta(trace)
            spec = SeriesSpec(
                (F(1, 2), ConjugatePair(1, F(3, 2), trace)),
                (ConjugatePair(1, F(-5, 4), trace), F(2)),
                F(-1),
                6,
            )
            oracle = qzeta.pfq(
                (F(1, 2), 1 + z * F(3, 2), 1 + z.conj() * F(3, 2)),
                (1 - z * F(5, 4), 1 - z.conj() * F(5, 4), F(2)),
                -1,
                6,
            )
            assert pfq_truncated(spec) == pfq_truncated_reference(spec) == oracle.as_rational()

    def test_truncation_is_incremental(self):
        top = (F(1, 2),) * 4
        bottom = (F(1), F(3, 4), F(5, 4))
        for n in range(6):
            shorter = pfq_truncated(SeriesSpec(top, bottom, F(1), n))
            longer = pfq_truncated(SeriesSpec(top, bottom, F(1), n + 1))
            term = (
                pochhammer(F(1, 2), n + 1) ** 4
                / (pochhammer(F(1), n + 1) * pochhammer(F(3, 4), n + 1) * pochhammer(F(5, 4), n + 1))
                / math.factorial(n + 1)
            )
            assert longer == shorter + term


class TestConcreteSums:
    def test_kilbourn_p3(self):
        assert pfq_truncated(kilbourn_spec(3)) == F(17, 16)
        assert kilbourn_lhs(3, 3).value == 23

    def test_thm1_rhs_p5(self):
        value = 5 * pfq_truncated(thm1_spec(5))
        assert vp(value, 5) >= 0
        assert thm1_rhs(5, 3) == reduce_mod(value, 5, 3)
        # cross-module oracle: congruent to a(5) = -2 mod 5^3
        assert thm1_rhs(5, 3) == reduce_mod(a_p(5), 5, 3)

    def test_thm1_rhs_zero_truncation_is_p(self):
        assert p_times_constant_term(5) == 5

    def test_vanhamme_values(self):
        assert pfq_truncated(vanhamme_spec(3)) == F(27, 32)
        assert vanhamme_lhs(3, 3).value == 0  # vp = 3
        assert vanhamme_lhs(3, 4).value == 27 * reduce_mod(F(1, 32), 3, 1).value
        assert pfq_truncated(vanhamme_spec(5)) == F(29835, 32768)
        assert 29835 == 5 * 5967
        assert vanhamme_lhs(5, 1).value == 0 and vanhamme_lhs(5, 2).value != 0  # vp = 1

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
    def test_vanhamme_vanishes_for_three_mod_four(self, p):
        assert vp(pfq_truncated(vanhamme_spec(p)), p) >= 3
        assert vanhamme_lhs(p, 3).value == 0


def p_times_constant_term(p):
    return p * pfq_truncated(SeriesSpec((F(1, 2),) * 4, (F(1), F(3, 4), F(5, 4)), F(1), 0))


ODD_PRIMES_TO_400 = primes_between(3, 400)


class TestResidueSeriesAgainstOracle:
    """The residue series the checks use against the exact sum reduced mod p^k."""

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_400)
    def test_kilbourn_and_thm1(self, p):
        for k in (3, 4, 5):
            assert kilbourn_lhs(p, k) == reduce_mod(pfq_truncated(kilbourn_spec(p)), p, k)
            if p >= 5:
                assert thm1_rhs(p, k) == reduce_mod(p * pfq_truncated(thm1_spec(p)), p, k)

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_400)
    def test_vanhamme(self, p):
        exact = pfq_truncated(vanhamme_spec(p))
        for k in (3, 4, 5):
            assert vanhamme_lhs(p, k) == reduce_mod(exact, p, k)


@st.composite
def residue_cases(draw):
    """A spec with rational and conjugate-pair parameters of both traces, and a prime."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    # bottom parameters n/d with p | n + jd for some j: factors divisible by p
    p_hits = st.builds(lambda j, d: F(p - j * d, d), st.integers(0, 4), st.integers(1, 4))
    top = draw(rational_params(0, 4)) + draw(st.lists(conjugate_pairs, max_size=2))
    bottom = draw(rational_params(0, 2)) + draw(st.lists(conjugate_pairs, max_size=1))
    bottom += draw(st.lists(p_hits, max_size=2))
    argument = draw(st.fractions(min_value=-3, max_value=3, max_denominator=p + 1))
    terms = draw(st.integers(0, 3 * p))
    spec = SeriesSpec(tuple(draw(st.permutations(top))), tuple(draw(st.permutations(bottom))),
                      argument, terms)
    return spec, p, draw(st.integers(1, 4)), draw(st.integers(-1, 2))


class TestPfqResidue:
    @given(residue_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reduced_exact_sum(self, case):
        spec, p, k, e = case
        try:
            exact = F(p) ** e * pfq_truncated(spec)
        except ZeroDenominatorPochhammer as info:
            # the guard may trip at an earlier term than the vanishing factor
            with pytest.raises((ZeroDenominatorPochhammer, GuardExceeded)) as got:
                pfq_residue(spec, p, k, e)
            if got.type is ZeroDenominatorPochhammer:
                assert (got.value.term_index, got.value.param_index) == (
                    info.term_index, info.param_index
                )
            return
        try:
            residue = pfq_residue(spec, p, k, e)
        except GuardExceeded:
            return  # the guard only limits precision: the sum itself may be fine
        except NegativeValuation:
            assert vp(exact, p) < 0
            return
        assert residue == reduce_mod(exact, p, k)

    def test_bottom_factor_divisible_by_p(self):
        # (3/2)_k has the factor 5/2 at k = 1: the term at k = 2 is 3/40
        spec = SeriesSpec((F(1, 2),) * 2, (F(3, 2),), F(1), 6)
        assert pfq_truncated(SeriesSpec(spec.top, spec.bottom, F(1), 2)) - 1 - F(1, 6) == F(3, 40)
        exact = 5 * pfq_truncated(spec)
        assert vp(exact, 5) >= 0
        assert pfq_residue(spec, 5, 3, e=1) == reduce_mod(exact, 5, 3)

    def test_sum_with_negative_valuation_raises(self):
        spec = SeriesSpec((F(1, 2),), (F(3, 2),), F(1), 3)  # 1 + 1/3 + 1/5 + 1/7
        with pytest.raises(NegativeValuation) as info:
            pfq_residue(spec, 5, 2)
        assert not isinstance(info.value, GuardExceeded)
        assert pfq_residue(spec, 5, 2, e=1) == reduce_mod(5 * pfq_truncated(spec), 5, 2)

    def test_guard_error(self):
        # one bottom parameter gives guard 1; the term 1/(k!)^2 has valuation -2 at k = 3
        spec = SeriesSpec((), (F(1),), F(1), 4)
        with pytest.raises(GuardExceeded) as info:
            pfq_residue(spec, 3, 3)
        assert isinstance(info.value, NegativeValuation)
        assert "term 3" in str(info.value)

    def test_vanishing_top_factor_ends_the_series(self):
        spec = SeriesSpec((F(-2), F(1, 2)), (F(3),), F(7), 9)
        assert pfq_residue(spec, 7, 3) == reduce_mod(pfq_truncated(spec), 7, 3)

    def test_argument_divisible_by_p(self):
        spec = SeriesSpec((F(1, 2),) * 2, (F(1),), F(9, 2), 8)
        assert pfq_residue(spec, 3, 4) == reduce_mod(pfq_truncated(spec), 3, 4)

    def test_zero_argument(self):
        spec = SeriesSpec((F(1, 2),), (F(1),), F(0), 5)
        assert pfq_residue(spec, 3, 2).value == 1


# each batched family of the verifier: the family, its single-prime spec, k, e and its least prime
BATCHED_FAMILIES = {
    "kilbourn": (KILBOURN, kilbourn_spec, 3, 0, 3),
    "thm1": (THM1, thm1_spec, 3, 1, 5),
    "vanhamme": (VANHAMME, vanhamme_spec, 5, 0, 3),
    "half_harmonic2": (HALF_HARMONIC2, half_harmonic2_spec, 4, 0, 3),
}


def single_prime(family, p, k, e):
    """pfq_residue at p, or the exception it raised."""
    try:
        return pfq_residue(family.at(p), p, k, e)
    except ArithmeticError as exc:
        return exc


def exact_residue(spec, p, k, e):
    """p^e * pfq_truncated(spec) reduced mod p^k, or the NegativeValuation that raised."""
    try:
        return reduce_mod(F(p) ** e * pfq_truncated(spec), p, k)
    except NegativeValuation as exc:
        return exc


@st.composite
def residue_families(draw):
    """A family with fixed parameters and argument and a truncation growing with p, some
    primes, k and e; rational bottom parameters with small denominators hit p at some steps,
    and a top parameter may be a pair."""
    top = draw(rational_params(0, 3)) + draw(st.lists(conjugate_pairs, max_size=1))
    bottom = draw(st.lists(small_rationals.filter(lambda x: x > 0), max_size=4))
    argument = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    scale, shift = draw(st.sampled_from([(1, 0), (2, -1), (4, 1)]))
    offset = draw(st.integers(-1, 3))
    primes = sorted(draw(st.sets(st.sampled_from(primes_between(3, 60)), max_size=6)))

    def truncation(p):
        return max(0, (scale * p + shift) // 2 + offset)

    family = SeriesFamily(tuple(top), tuple(bottom), argument, truncation)
    return family, primes, draw(st.integers(1, 4)), draw(st.integers(-1, 2))


class TestPfqResidues:
    @pytest.mark.parametrize("family", BATCHED_FAMILIES)
    def test_every_prime_to_3000(self, family):
        family, spec_at, k, e, least = BATCHED_FAMILIES[family]
        primes = primes_between(least, 3000)
        assert pfq_residues(family, primes, k, e) == [pfq_residue(spec_at(p), p, k, e) for p in primes]

    @pytest.mark.parametrize("family", BATCHED_FAMILIES)
    @pytest.mark.parametrize("window", [(2100, 2202), (10000, 10100)])
    def test_windows(self, family, window):
        family, spec_at, k, e, _ = BATCHED_FAMILIES[family]
        primes = primes_between(*window)
        assert pfq_residues(family, primes, k, e) == [pfq_residue(spec_at(p), p, k, e) for p in primes]

    @pytest.mark.parametrize("family", BATCHED_FAMILIES)
    def test_one_prime_and_none(self, family):
        family, spec_at, k, e, _ = BATCHED_FAMILIES[family]
        for p in (5, 2111, 10007):
            assert pfq_residues(family, [p], k, e) == [pfq_residue(spec_at(p), p, k, e)]
        assert pfq_residues(family, [], k, e) == []

    def test_half_harmonic2_spec(self):
        for p in primes_between(3, 400):
            assert pfq_residue(half_harmonic2_spec(p), p, 4) == half_harmonic2(p, 4)

    def test_sum_that_is_not_p_integral(self):
        # without the factor p the Theorem 1 sum has valuation -1 at some primes
        primes = primes_between(5, 300)
        got = pfq_residues(THM1, primes, 3)
        assert any(isinstance(batched, NegativeValuation) for batched in got)
        for p, batched in zip(primes, got):
            alone = single_prime(THM1, p, 3, 0)
            if isinstance(batched, NegativeValuation):
                assert type(batched) is type(alone) is NegativeValuation
                assert str(batched) == str(alone)
            else:
                assert batched == alone

    @given(residue_families())
    @settings(max_examples=200, deadline=None)
    def test_against_single_prime(self, case):
        family, primes, k, e = case
        got = pfq_residues(family, primes, k, e)
        assert len(got) == len(primes)
        for p, batched in zip(primes, got):
            alone = single_prime(family, p, k, e)
            if isinstance(alone, GuardExceeded):
                # the oracle's guard is on each term, the tree reads the whole sum exactly
                alone = exact_residue(family.at(p), p, k, e)
            if isinstance(batched, NegativeValuation):
                assert type(alone) is NegativeValuation
            else:
                assert batched == alone

    def test_two_factors_of_p_in_the_denominator(self):
        # term j is 1 / (1/2)_j, of valuation -1 from j = 3 at p = 5, but the step
        # denominators 2j+1 and j+1 hold 5 at j = 2 and j = 4: vp(Q) = 2, one more
        # than any single term needs, and the prefix is reduced mod 5^(k + 2 + max(0, -e))
        spec = SeriesSpec((F(1),), (F(1, 2),), F(1), 5)
        family = SeriesFamily(spec.top, spec.bottom, spec.argument, lambda p: 5)
        for e in (0, 1):
            expected = pfq_residue(spec, 5, 2, e)
            assert expected == reduce_mod(5**e * pfq_truncated(spec), 5, 2)
            assert pfq_residues(family, [5], 2, e) == [expected]
        # with 2p steps vp(Q) = 4 and a term reaches valuation -2, below the oracle's
        # guard of one per bottom parameter: the tree still gives the exact residue
        spec = SeriesSpec(spec.top, spec.bottom, spec.argument, 10)
        family = SeriesFamily(spec.top, spec.bottom, spec.argument, lambda p: 10)
        assert isinstance(single_prime(family, 5, 2, 2), GuardExceeded)
        assert pfq_residues(family, [5], 2, 2) == [reduce_mod(25 * pfq_truncated(spec), 5, 2)]

    def test_truncation_must_not_decrease(self):
        with pytest.raises(ValueError, match="decreases"):
            pfq_residues(SeriesFamily((F(1),), (), F(1), lambda p: 10 - p), [3, 5], 2)

    def test_bottom_pair_raises(self):
        # vp(Q) is counted for rational bottom parameters only; a top pair never enters Q
        pair = ConjugatePair(F(1), F(1, 2), TRACE_I)
        with pytest.raises(ValueError, match="rational bottom"):
            pfq_residues(SeriesFamily((F(1, 2),), (F(1), pair), F(1), lambda p: p), [3, 5], 2)
        family = SeriesFamily((F(1, 2), pair), (F(1),), F(1), lambda p: p - 1)
        assert pfq_residues(family, [5, 7], 2) == [pfq_residue(family.at(p), p, 2) for p in (5, 7)]


def counted_valuations(family, primes):
    """``_prefix_valuations`` of family at primes, with the steps ``pfq_residues`` builds."""
    ps, _ = _step_factors(family.at(primes[-1]))
    return _prefix_valuations(family, primes, [family.truncation(p) for p in primes], len(ps))


def summed_valuations(family, primes):
    """vp(Q) of each prefix by brute force: the sum of vp(qs[j]) over its steps."""
    _, qs = _step_factors(family.at(primes[-1]))
    return [sum(p_split(q, p)[0] for q in qs[:family.truncation(p)]) for p in primes]


class TestPrefixValuations:
    """The count of vp(Q) that sets each prefix's precision, against the step denominators.

    Counting too much still gives every residue right, so only this comparison sees it."""

    @pytest.mark.parametrize("family", BATCHED_FAMILIES)
    @pytest.mark.parametrize("window", [(3, 3000), (10000, 10100)])
    def test_declared_families(self, family, window):
        family, _, _, _, least = BATCHED_FAMILIES[family]
        primes = primes_between(max(least, window[0]), window[1])
        assert counted_valuations(family, primes) == summed_valuations(family, primes)

    @pytest.mark.parametrize("family, primes, expected", [
        # at p = 5, 1 + 2j holds 5 at j = 2, 7 and 25 at j = 12, and j + 1 holds 5 at j = 4, 9
        (SeriesFamily((F(1),), (F(1, 2),), F(1), lambda p: 13), [3, 5, 7], [10, 6, 3]),
        # a truncation past p: the step's own j + 1 is divisible by p
        (SeriesFamily((F(1, 2),), (), F(1), lambda p: 2 * p + 3), [3, 5, 7], [4, 2, 2]),
        # 5 divides the argument's denominator: each of the 3 steps holds it once, and 2 + 3j
        # holds it at j = 1
        (SeriesFamily((F(1, 2),), (F(2, 3),), F(1, 5), lambda p: 3), [3, 5, 7], [1, 4, 0]),
        # 3 divides a top denominator: each of the 2 steps at p = 3 holds it once; the top's
        # own factors 1 + 3j and 1 + 2j are no concern of Q
        (SeriesFamily((F(1, 3), F(1, 2)), (F(4),), F(2), lambda p: p - 1), [3, 5, 7], [2, 1, 1]),
        # the top factor -2 + j vanishes at j = 2 and cuts the steps before 1 + 2j holds 5
        (SeriesFamily((F(-2),), (F(1, 2),), F(1), lambda p: 13), [3, 5, 7], [1, 0, 0]),
    ])
    def test_edge_cases(self, family, primes, expected):
        assert counted_valuations(family, primes) == summed_valuations(family, primes) == expected

    @given(residue_families())
    @settings(max_examples=200, deadline=None)
    def test_against_the_step_denominators(self, case):
        family, primes, _, _ = case
        if primes:
            assert counted_valuations(family, primes) == summed_valuations(family, primes)


class TestWhippleC1:
    def test_n0_closed_form(self):
        # at n = 0 the closed form reduces symbolically to 3y^2/(1 - y^2)
        for y in (F(1, 3), F(-1, 5), F(2, 7), F(1, 2)):
            outcome = whipple_c1_check(0, y)
            assert outcome.equal
            assert outcome.rhs == 3 * y**2 / (1 - y**2)
        assert whipple_c1_check(0, F(1, 3)).lhs == F(3, 8)

    def test_y_zero_kills_both_sides(self):
        outcome = whipple_c1_check(0, 0)
        assert outcome.lhs == outcome.rhs == 0
        assert outcome.equal

    def test_n1_sample(self):
        assert whipple_c1_check(1, F(1, 5)).equal

    def test_pole_rejected(self):
        # y = 1 makes the bottom parameter 1 - y vanish at offset 0
        with pytest.raises(PoleParameter):
            whipple_c1_check(2, 1)
        with pytest.raises(PoleParameter):
            whipple_c1_check(2, -3)

    @pytest.mark.parametrize("n", range(5))
    def test_small_grid(self, n):
        for y in (F(1, 3), F(-2, 7), F(5, 3)):
            assert whipple_c1_check(n, y).equal


def b1_sides_by_pfq_pair(p):
    """Both sides of b1 from the general evaluator, as Fractions: the declared lhs 4F3 with its
    ``ConjugatePair`` parameters, and p times the Pochhammer prefactor times the rhs 4F3, which
    has the same top parameters over the Theorem 1 bottom 1, 3/4, 5/4."""
    m = (p - 1) // 2
    top = (F(1, 2), ConjugatePair(F(1, 2), F(-p, 2), TRACE_OMEGA), F(1 - p, 2))
    d_pair = ConjugatePair(F(1), F(p, 2), TRACE_OMEGA)
    lhs = F(*pfq_pair(SeriesSpec(top, (d_pair, 1 + F(p, 2)), F(1), m)))
    prefactor = F(*pochhammer_pair(F(1, 2), m)) * F(*pochhammer_pair(F(1 - p, 2), m))
    prefactor /= F(*pochhammer_pair(d_pair, m))
    return lhs, p * prefactor * F(*pfq_pair(SeriesSpec(top, THM1.bottom, F(1), m)))


class TestBaileyB1:
    def test_sides_match_the_general_evaluator(self):
        # the integer step factors of bailey_b1_check against the cleared progressions of
        # pfq_pair and pochhammer_pair, at every odd prime below 1000 and at 2003
        for p in [*primes_between(3, 1000), 2003]:
            outcome = bailey_b1_check(p)
            assert (outcome.lhs, outcome.rhs) == b1_sides_by_pfq_pair(p), p

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_corrected_reading_holds(self, p):
        outcome = bailey_b1_check(p)
        assert outcome.equal

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_printed_reading_fails(self, p):
        # the open-question comparison: the (1-w)/2 reading never balances
        lhs, rhs = qzeta.b1_sides(p, printed=True)
        assert lhs != rhs

    def test_difference_is_exactly_zero(self):
        outcome = bailey_b1_check(7)
        assert isinstance(outcome.lhs, F) and isinstance(outcome.rhs, F)
        assert outcome.lhs - outcome.rhs == 0

    @pytest.mark.parametrize("p", primes_between(3, 50))
    def test_sides_match_qzeta_oracle(self, p):
        lhs, rhs = qzeta.b1_sides(p)
        outcome = bailey_b1_check(p)
        assert (outcome.lhs, outcome.rhs) == (lhs.as_rational(), rhs.as_rational())

    @pytest.mark.parametrize("p", [1, 2, 9, 15, 21, 25])
    def test_rejects_non_odd_prime(self, p):
        with pytest.raises(ValueError, match="odd prime"):
            bailey_b1_check(p)
        with pytest.raises(ValueError, match="odd prime"):
            half_harmonic2_spec(p)


class TestC3:
    @pytest.mark.parametrize("p", [7, 11, 19, 23])
    def test_identity_holds(self, p):
        outcome = c3_check(p)
        assert outcome.equal
        assert isinstance(outcome.lhs, F)

    @pytest.mark.parametrize("p", [7, 11, 19, 23, 31])
    def test_closed_form_factorizations(self, p):
        # the two conjugate-collapse product forms of numerator and denominator
        i = qzeta.zeta(TRACE_I)
        q = (p + 1) // 4
        num = qzeta.rising(-i * p / 4, q) * qzeta.rising((3 - (i + 1) * p) / 4, q)
        num_collapsed = -F(p * p, 16) * math.prod(
            (-F(p * p, 16) - j * j for j in range(1, (p - 3) // 4 + 1)), start=F(1)
        )
        assert num.as_rational() == num_collapsed
        den = qzeta.rising((1 - (i + 1) * p) / 4, 2 * q)
        den_collapsed = math.prod(
            (-F(p * p, 16) - (F(2 * j - 1, 2)) ** 2 for j in range(1, q + 1)), start=F(1)
        )
        assert den.as_rational() == den_collapsed
        closed = -p * num_collapsed / den_collapsed
        assert c3_check(p).rhs == closed
        q, num, den = hypergeom._c3_closed_form(p)
        symbols = pochhammer_mod(num, q - 1, p, 4), pochhammer_mod(den, q, p, 4)
        assert c3_rhs_closed(p, symbols) == reduce_mod(closed, p, 4)

    @pytest.mark.parametrize("p", [p for p in primes_between(7, 50) if p % 4 == 3])
    def test_sides_match_qzeta_oracle(self, p):
        lhs, rhs = qzeta.c3_sides(p)
        outcome = c3_check(p)
        assert (outcome.lhs, outcome.rhs) == (lhs.as_rational(), rhs.as_rational())

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            c3_check(13)

    @pytest.mark.parametrize("p", [15, 27, 35, 39])
    def test_rejects_composite_p_3_mod_4(self, p):
        with pytest.raises(ValueError, match="prime"):
            c3_check(p)
        with pytest.raises(ValueError, match="prime"):
            hypergeom._c3_closed_form(p)


class TestIdentityOutcome:
    @given(small_rationals, small_rationals, st.integers(-9, 9).filter(bool),
           st.integers(-9, 9).filter(bool))
    def test_equal_is_equality_of_the_reduced_sides(self, x, y, g, h):
        # pairs scaled by g and h: unreduced, and with a negative denominator
        outcome = IdentityOutcome((x.numerator * g, x.denominator * g), (y.numerator * h, y.denominator * h))
        assert (outcome.lhs, outcome.rhs) == (x, y)
        assert outcome.equal == (x == y)
        assert IdentityOutcome((x.numerator * g, x.denominator * g), (x.numerator, x.denominator)).equal

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_equal_agrees_with_the_qzeta_sides(self, p):
        outcome = bailey_b1_check(p)
        lhs, rhs = qzeta.b1_sides(p)
        assert outcome.equal and lhs == rhs and outcome.lhs == outcome.rhs
        # the printed (1-w)/2 reading: its rhs has a nonzero omega part, so no
        # rational equals it; its rational part stands in as the rhs pair
        lhs, rhs = qzeta.b1_sides(p, printed=True)
        printed = IdentityOutcome(outcome.lhs_pair, (3 * rhs.re.numerator, 3 * rhs.re.denominator))
        assert not printed.equal and lhs != rhs and printed.lhs != printed.rhs


class TestRamanujanFloat:
    def test_single_term(self):
        assert ramanujan_float_check(1).partial == 1.0

    def test_target_value(self):
        outcome = ramanujan_float_check(10)
        assert outcome.target == pytest.approx(0.887, abs=5e-4)

    def test_converges(self):
        outcome = ramanujan_float_check(10**4)
        assert outcome.abs_err < 1e-6
