import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qzeta import QZeta, rising, zeta
from supercong.exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    ResidueInt,
    congruent,
    cleared_factor,
    half_harmonic2,
    is_prime,
    pochhammer,
    pochhammer_mod,
    reduce_mod,
    vp,
)
from supercong.verifier import primes_between

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=9)
small_primes = st.sampled_from([3, 5, 7, 11, 13])


def brute_inverse(a, m):
    return next(x for x in range(m) if a * x % m == 1)


class TestIsPrime:
    def test_matches_sieve(self):
        assert [n for n in range(-3, 500) if is_prime(n)] == primes_between(0, 499)

    def test_rejects_non_int(self):
        assert not is_prime(7.0)


class TestVp:
    def test_examples(self):
        assert vp(F(50, 3), 5) == 2
        assert vp(F(17, 16), 3) == 0
        assert vp(F(27, 32), 3) == 3

    def test_negative_valuation(self):
        assert vp(F(1, 5), 5) == -1
        assert vp(F(3, 50), 5) == -2

    def test_zero_is_infinite(self):
        assert vp(0, 7) == math.inf
        assert congruent(F(2, 3), F(2, 3), 7, 10**6)


class TestReduceMod:
    def test_inverse_oracle(self):
        # 17/16 mod 27: brute-force inverse of 16 is 22, and 17*22 = 374 = 13*27 + 23
        assert brute_inverse(16, 27) == 22
        assert reduce_mod(F(17, 16), 3, 3) == ResidueInt(23, 3, 3)

    def test_zero_and_negative(self):
        assert reduce_mod(0, 7, 2).value == 0
        assert reduce_mod(-4, 3, 3).value == 23

    def test_rejects_negative_valuation(self):
        with pytest.raises(NegativeValuation):
            reduce_mod(F(1, 3), 3, 2)

    @given(small_fractions, small_fractions, small_primes)
    def test_ring_homomorphism(self, x, y, p):
        assume(x.denominator % p != 0 and y.denominator % p != 0)
        k = 3
        assert reduce_mod(x + y, p, k) == reduce_mod(x, p, k) + reduce_mod(y, p, k)
        assert reduce_mod(x * y, p, k) == reduce_mod(x, p, k) * reduce_mod(y, p, k)


class TestResidueInt:
    def test_normalization_and_ops(self):
        r = ResidueInt(30, 5, 2)
        assert r.value == 5 and r.modulus == 25
        assert (r + 21).value == 1
        assert (r * r).value == 0
        assert (-ResidueInt(1, 5, 2)).value == 24
        assert (ResidueInt(2, 5, 2) ** -1).value == 13

    def test_mismatched_moduli_refuse_to_combine(self):
        with pytest.raises(ValueError):
            ResidueInt(1, 5, 2) + ResidueInt(1, 5, 3)
        with pytest.raises(ValueError):
            ResidueInt(1, 5, 2) * ResidueInt(1, 7, 2)


class TestCycloRational:
    """The Q(zeta) test oracle itself."""

    def test_omega_relations(self):
        w = zeta(TRACE_OMEGA)
        assert w * w == QZeta(F(-1), F(-1), TRACE_OMEGA)  # w^2 = -1 - w
        assert w**3 == QZeta(F(1), F(0), TRACE_OMEGA)
        assert w * w + w + 1 == QZeta(F(0), F(0), TRACE_OMEGA)

    def test_i_relations(self):
        i = zeta(TRACE_I)
        assert i * i == QZeta(F(-1), F(0), TRACE_I)
        assert (1 / i) == -i

    def test_norm_is_rational(self):
        for trace in (TRACE_I, TRACE_OMEGA):
            x = QZeta(F(3, 2), F(-5, 7), trace)
            prod = x * x.conj()
            assert prod.im == 0
            assert prod.re == x.norm()

    def test_tags_never_mix(self):
        with pytest.raises(ValueError):
            zeta(TRACE_OMEGA) + zeta(TRACE_I)

    def test_as_rational(self):
        w = zeta(TRACE_OMEGA)
        assert (w + w.conj()).as_rational() == -1  # w + w^2 = -1
        with pytest.raises(ValueError):
            w.as_rational()


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)
        assert pochhammer(F(7, 3), 0) == 1
        assert pochhammer(-2, 2) == 2  # ((1-p)/2)_{(p-1)/2} at p = 5

    def test_cyclo_examples(self):
        # (1 + (5/2)w)(1 + (5/2)w^2) = 1 + (5/2)(w + w^2) + (25/4) w^3 = 19/4
        assert ConjugatePair(1, F(5, 2), TRACE_OMEGA).pochhammer(1) == F(19, 4)
        assert ConjugatePair(F(7, 3), F(5, 2), TRACE_I).pochhammer(0) == 1
        # (1 + 2i)(1 - 2i) (2 + 2i)(2 - 2i) = 5 * 8
        assert ConjugatePair(1, 2, TRACE_I).pochhammer(2) == 40
        with pytest.raises(ValueError):
            ConjugatePair(1, 2, TRACE_I).pochhammer(-1)

    @given(small_fractions, small_fractions, st.sampled_from([TRACE_I, TRACE_OMEGA]),
           st.integers(0, 8))
    @settings(max_examples=80)
    def test_pair_matches_qzeta_oracle(self, u, y, trace, k):
        z = zeta(trace)
        oracle = rising(u + y * z, k) * rising(u + y * z.conj(), k)
        assert oracle.as_rational() == ConjugatePair(u, y, trace).pochhammer(k)

    @given(small_fractions, st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=60)
    def test_composition(self, a, m, n):
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def cubic_collapse(u, v, p, k):
    """(u+vp)_k (u+vp*w)_k (u+vp*w^2)_k over the cube roots of unity."""
    return pochhammer(u + v * p, k) * ConjugatePair(u, v * p, TRACE_OMEGA).pochhammer(k)


def quartic_collapse(u, v, p, k):
    """(u+vp)_k (u-vp)_k (u+vp*i)_k (u-vp*i)_k over the fourth roots of unity."""
    return (
        pochhammer(u + v * p, k)
        * pochhammer(u - v * p, k)
        * ConjugatePair(u, v * p, TRACE_I).pochhammer(k)
    )


class TestCollapsedProducts:
    """Full conjugate orbits collapse to prod_j ((u+j)^3 + (vp)^3) and prod_j ((u+j)^4 - (vp)^4)."""

    def test_examples(self):
        assert cubic_collapse(1, F(1, 2), 3, 1) == F(35, 8)
        assert cubic_collapse(F(2, 7), F(1, 3), 11, 0) == 1
        assert quartic_collapse(1, F(1, 2), 3, 1) == F(-65, 16)
        assert quartic_collapse(F(2, 7), F(1, 3), 11, 0) == 1

    @given(small_fractions, small_fractions, small_primes, st.integers(0, 5))
    @settings(max_examples=60)
    def test_conjugate_collapse_omega(self, u, v, p, k):
        cubes = math.prod(((u + j) ** 3 + (v * p) ** 3 for j in range(k)), start=F(1))
        assert cubic_collapse(u, v, p, k) == cubes

    @given(small_fractions, small_fractions, small_primes, st.integers(0, 5))
    @settings(max_examples=60)
    def test_conjugate_collapse_i(self, u, v, p, k):
        fourths = math.prod(((u + j) ** 4 - (v * p) ** 4 for j in range(k)), start=F(1))
        assert quartic_collapse(u, v, p, k) == fourths

    def test_congruence_to_plain_powers(self):
        # the cubic collapse mod p^3, the quartic mod p^4
        assert reduce_mod(cubic_collapse(F(1, 2), F(1, 2), 5, 2), 5, 3) == reduce_mod(
            pochhammer(F(1, 2), 2) ** 3, 5, 3
        )
        assert reduce_mod(quartic_collapse(F(1, 2), F(1, 2), 5, 2), 5, 4) == reduce_mod(
            pochhammer(F(1, 2), 2) ** 4, 5, 4
        )

    @given(small_fractions, small_fractions, small_primes, st.integers(0, 5))
    @settings(max_examples=60)
    def test_congruence_collapse_random(self, u, v, p, k):
        assume(u.denominator % p != 0 and v.denominator % p != 0)
        assume(vp(pochhammer(u, k), p) == 0)
        assert reduce_mod(cubic_collapse(u, v, p, k), p, 3) == reduce_mod(
            pochhammer(u, k) ** 3, p, 3
        )
        assert reduce_mod(quartic_collapse(u, v, p, k), p, 4) == reduce_mod(
            pochhammer(u, k) ** 4, p, 4
        )


def half_harmonic2_exact(p):
    """sum_{j=1}^{(p-1)/2} 1/j^2 in Q: the oracle for half_harmonic2."""
    return sum((F(1, j * j) for j in range(1, (p - 1) // 2 + 1)), F(0))


class TestHalfHarmonic:
    def test_examples(self):
        assert half_harmonic2_exact(3) == 1
        assert half_harmonic2_exact(5) == F(5, 4)
        assert half_harmonic2(3, 2) == reduce_mod(1, 3, 2)
        assert half_harmonic2(5, 3) == reduce_mod(F(5, 4), 5, 3)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_divisible_by_p(self, p):
        assert vp(half_harmonic2_exact(p), p) >= 1
        assert half_harmonic2(p, 1).value == 0

    @pytest.mark.parametrize("p", primes_between(3, 400))
    def test_matches_exact_sum(self, p):
        exact = half_harmonic2_exact(p)
        for k in (1, 2, 4):
            assert half_harmonic2(p, k) == reduce_mod(exact, p, k)


pochhammer_params = st.one_of(
    small_fractions,
    st.builds(ConjugatePair, small_fractions, small_fractions, st.sampled_from([TRACE_I, TRACE_OMEGA])),
)


class TestPochhammerMod:
    @given(pochhammer_params, st.integers(0, 8))
    @settings(max_examples=100)
    def test_cleared_factor(self, param, j):
        (c0, c1, c2), den = cleared_factor(param)
        factor = param.factor(j) if isinstance(param, ConjugatePair) else param + j
        assert F(c0 + c1 * j + c2 * j * j, den) == factor

    @given(pochhammer_params, st.integers(0, 12), small_primes, st.integers(1, 4))
    @settings(max_examples=150)
    def test_matches_exact_symbol(self, param, n, p, k):
        _, den = cleared_factor(param)
        assume(den % p != 0)
        exact = param.pochhammer(n) if isinstance(param, ConjugatePair) else pochhammer(param, n)
        assert pochhammer_mod(param, n, p, k) == reduce_mod(exact, p, k)

    def test_denominator_divisible_by_p_is_rejected(self):
        with pytest.raises(NegativeValuation):
            pochhammer_mod(F(1, 3), 2, 3, 2)
