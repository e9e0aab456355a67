import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qzeta
from supercong.eta import a_p
from supercong.exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    pochhammer,
    reduce_mod,
    vp,
)
from supercong.hypergeom import (
    GuardExceeded,
    PoleParameter,
    SeriesSpec,
    ZeroDenominatorPochhammer,
    bailey_b1_check,
    c3_check,
    c3_rhs_closed,
    kilbourn_lhs,
    kilbourn_spec,
    pfq_residue,
    pfq_truncated,
    pfq_truncated_reference,
    ramanujan_float_check,
    thm1_rhs,
    thm1_spec,
    vanhamme_lhs,
    vanhamme_spec,
    whipple_c1_check,
)
from supercong.verifier import primes_between


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
        assert thm1_rhs(5, 3) == reduce_mod(a_p(5, 30), 5, 3)

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


def rational_params(min_size, max_size):
    return st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=12), min_size=min_size, max_size=max_size
    )


@st.composite
def residue_cases(draw):
    """A spec with rational and conjugate-pair parameters of both traces, and a prime."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    pairs = st.builds(
        ConjugatePair,
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.sampled_from([TRACE_I, TRACE_OMEGA]),
    )
    # bottom parameters n/d with p | n + jd for some j: factors divisible by p
    p_hits = st.builds(lambda j, d: F(p - j * d, d), st.integers(0, 4), st.integers(1, 4))
    top = draw(rational_params(0, 4)) + draw(st.lists(pairs, max_size=2))
    bottom = draw(rational_params(0, 2)) + draw(st.lists(pairs, max_size=1))
    bottom += draw(st.lists(p_hits, max_size=2))
    argument = draw(st.fractions(min_value=-3, max_value=3, max_denominator=p + 1))
    terms = draw(st.integers(0, 3 * p))
    spec = SeriesSpec(tuple(draw(st.permutations(top))), tuple(draw(st.permutations(bottom))),
                      argument, terms)
    return spec, p, draw(st.integers(1, 4)), draw(st.integers(0, 2))


class TestPfqResidue:
    @given(residue_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reduced_exact_sum(self, case):
        spec, p, k, e = case
        try:
            exact = p**e * pfq_truncated(spec)
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


class TestBaileyB1:
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
        assert c3_rhs_closed(p, 4) == reduce_mod(closed, p, 4)

    @pytest.mark.parametrize("p", [p for p in primes_between(7, 50) if p % 4 == 3])
    def test_sides_match_qzeta_oracle(self, p):
        lhs, rhs = qzeta.c3_sides(p)
        outcome = c3_check(p)
        assert (outcome.lhs, outcome.rhs) == (lhs.as_rational(), rhs.as_rational())

    def test_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            c3_check(13)


class TestRamanujanFloat:
    def test_single_term(self):
        assert ramanujan_float_check(1).partial == 1.0

    def test_target_value(self):
        outcome = ramanujan_float_check(10)
        assert outcome.target == pytest.approx(0.887, abs=5e-4)

    def test_converges(self):
        outcome = ramanujan_float_check(10**4)
        assert outcome.abs_err < 1e-6
