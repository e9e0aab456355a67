import math
import random
from fractions import Fraction as F

import pytest

import qzeta
from supercong.eta import a_p
from supercong.exact import TRACE_I, TRACE_OMEGA, ConjugatePair, pochhammer, reduce_mod, vp
from supercong.hypergeom import (
    PoleParameter,
    SeriesSpec,
    ZeroDenominatorPochhammer,
    bailey_b1_check,
    c3_check,
    c3_rhs_closed,
    kilbourn_lhs,
    pfq_truncated,
    pfq_truncated_reference,
    ramanujan_float_check,
    thm1_rhs,
    vanhamme_lhs,
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
        assert kilbourn_lhs(3) == F(17, 16)
        assert reduce_mod(kilbourn_lhs(3), 3, 3).value == 23

    def test_thm1_rhs_p5(self):
        value = thm1_rhs(5)
        assert vp(value, 5) >= 0
        # cross-module oracle: congruent to a(5) = -2 mod 5^3
        assert reduce_mod(value, 5, 3) == reduce_mod(a_p(5, 30), 5, 3)

    def test_thm1_rhs_zero_truncation_is_p(self):
        assert p_times_constant_term(5) == 5

    def test_vanhamme_values(self):
        assert vanhamme_lhs(3) == F(27, 32)
        assert vp(vanhamme_lhs(3), 3) == 3
        assert vanhamme_lhs(5) == F(29835, 32768)
        assert 29835 == 5 * 5967
        assert vp(vanhamme_lhs(5), 5) == 1

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
    def test_vanhamme_vanishes_for_three_mod_four(self, p):
        assert vp(vanhamme_lhs(p), p) >= 3


def p_times_constant_term(p):
    return p * pfq_truncated(SeriesSpec((F(1, 2),) * 4, (F(1), F(3, 4), F(5, 4)), F(1), 0))


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
        assert c3_rhs_closed(p) == -p * num_collapsed / den_collapsed

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
