import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gamma_p_doubling, sp
from supercong.exact import NegativeValuation, ResidueInt, pochhammer, reduce_mod, vp
from supercong.padic_gamma import gamma_p
from supercong.verifier import primes_between


def definitional_product(m, p, modulus):
    acc = 1
    for j in range(1, m):
        if j % p:
            acc = acc * j % modulus
    return (-1) ** m * acc % modulus


class TestSp:
    def test_examples(self):
        assert sp(1, 7) == 1
        assert sp(F(1, 2), 5) == 3  # 2 * 3 = 6 = 1 (mod 5)
        assert sp(5, 5) == 5  # the representative set is {1..p}, never 0

    def test_rejects_negative_valuation(self):
        with pytest.raises(NegativeValuation):
            sp(F(1, 5), 5)


class TestGammaInt:
    """gamma_p at integer arguments below p^k: the definitional product itself."""

    def test_gamma_of_one_is_minus_one(self):
        for p, k in [(3, 1), (5, 2), (7, 3), (11, 4)]:
            assert gamma_p(1, p, k).value == p**k - 1

    def test_gamma_of_zero_is_one(self):
        assert gamma_p(0, 5, 2).value == 1

    def test_small_values_match_definitional_product(self):
        assert gamma_p(2, 5, 2).value == 1  # (-1)^2 * 1
        assert gamma_p(4, 3, 3).value == 2  # (-1)^4 * (1*2), j = 3 excluded
        for m in range(0, 30):
            assert gamma_p(m, 5, 2).value == definitional_product(m, 5, 25)
            assert gamma_p(m, 3, 3).value == definitional_product(m, 3, 27)


class TestGammaRational:
    def test_quarter_at_precision_one(self):
        # 1/4 = 4 (mod 5) and Gamma_5(4) = (-1)^4 (1*2*3) = 6 = 1
        assert gamma_p(F(1, 4), 5, 1).value == 1

    def test_half_squared_is_minus_one(self):
        # reflection with sp(1/2, 5) = 3; oracle: definitional product at the lift of 1/2
        lift = reduce_mod(F(1, 2), 5, 2).value
        assert lift == 13
        assert gamma_p(F(1, 2), 5, 2).value == definitional_product(13, 5, 25)
        assert (gamma_p(F(1, 2), 5, 2) ** 2).value == 24

    def test_rejects_negative_valuation(self):
        with pytest.raises(NegativeValuation):
            gamma_p(F(2, 5), 5, 2)


class TestProperties:
    def test_reflection(self):
        rng = random.Random(11)
        for _ in range(120):
            p = rng.choice([3, 5, 7, 11, 13])
            k = rng.choice([1, 2, 3])
            den = rng.choice([1, 2, 3, 4, 7, 8, 9, 16])
            if den % p == 0:
                continue
            x = F(rng.randrange(1, 60), den)
            lhs = gamma_p(x, p, k) * gamma_p(1 - x, p, k)
            assert lhs == reduce_mod(F((-1) ** sp(x, p)), p, k)

    def test_continuity_mod_p(self):
        for p in (3, 5, 7, 13):
            base = gamma_p(F(1, 4), p, 1)
            for t in range(1, 8):
                assert gamma_p(F(1, 4) + t * p, p, 1) == base

    def test_pochhammer_bridge(self):
        rng = random.Random(23)
        done = 0
        while done < 120:
            p = rng.choice([3, 5, 7, 11, 13])
            k = rng.choice([1, 2, 3, 4])
            den = rng.choice([1, 2, 3, 4, 7, 8, 9])
            if den % p == 0:
                continue
            a = F(rng.randrange(1, 50), den)
            n = rng.randrange(0, 12)
            if any(vp(a + j, p) > 0 for j in range(n)):
                continue
            lhs = reduce_mod(pochhammer(a, n), p, k)
            rhs = reduce_mod((-1) ** n, p, k) * gamma_p(a + n, p, k) * gamma_p(a, p, k).inverse()
            assert lhs == rhs
            done += 1


class TestAgainstOracle:
    @pytest.mark.parametrize("p, k", [(3, 7), (5, 4), (7, 3), (13, 2)])
    def test_every_argument_below_the_modulus(self, p, k):
        modulus = p**k
        values = [gamma_p(m, p, k).value for m in range(modulus)]
        assert values == [definitional_product(m, p, modulus) for m in range(modulus)]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_arguments(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
        k = data.draw(st.integers(1, 5).filter(lambda k: p**k <= 10**6))
        m = data.draw(st.integers(0, p**k - 1))
        assert gamma_p(m, p, k).value == definitional_product(m, p, p**k)


class TestAgainstDoubling:
    """The Newton block product against the Taylor-shift doubling, at any modulus."""

    def test_quarter_at_every_prime_of_the_sweeps(self):
        # Gamma_p is 1-Lipschitz: mod p^3 and p^4 it is the value mod p^5 reduced
        for p in primes_between(3, 3000) + primes_between(10000, 10100):
            expected = gamma_p_doubling(F(1, 4), p, 5).value
            for k in (3, 4, 5):
                assert gamma_p(F(1, 4), p, k) == ResidueInt(expected, p, k), (p, k)

    @pytest.mark.parametrize("x", [F(1, 3), F(2, 7), F(5, 4), F(-7, 9)])
    def test_other_arguments_and_precisions(self, x):
        # from k = 4 on at p = 2, the sum over c must reach 2k - 2 (x = 2/7)
        for p in primes_between(2, 300):
            if x.denominator % p:
                for k in range(1, 9):
                    assert gamma_p(x, p, k) == gamma_p_doubling(x, p, k), (p, k)


class TestLargeModulus:
    """Identities checked where the definitional product is out of reach."""

    @pytest.mark.parametrize("p, k", [(10007, 5), (100003, 6), (10007, 12), (101, 20)])
    def test_reflection(self, p, k):
        for x in (F(1, 4), F(2, 3)):
            lhs = gamma_p(x, p, k) * gamma_p(1 - x, p, k)
            assert lhs == reduce_mod(F((-1) ** sp(x, p)), p, k), x

    @pytest.mark.parametrize("p, k", [(10007, 5), (100003, 6)])
    def test_functional_equation(self, p, k):
        # Gamma_p(x + 1) = -x Gamma_p(x), or -Gamma_p(x) when p | x; the
        # arguments cross a block boundary (m = Qp - 1, Qp) and sit mid-tail
        q = 3 * p ** (k - 2) + 12345
        for m in (q * p - 1, q * p, q * p + p // 2, p**k - 2):
            factor = -m if m % p else -1
            assert gamma_p(m + 1, p, k) == gamma_p(m, p, k) * factor, m


class TestModulus:
    @pytest.mark.parametrize("p", [6, 9, 1, 0, -7])
    def test_rejects_non_prime_p(self, p):
        with pytest.raises(ValueError, match="prime p"):
            gamma_p(F(1, 5), p, 2)
        with pytest.raises(ValueError, match="prime p"):
            gamma_p(3, p, 2)

    @pytest.mark.parametrize("k", [0, -1, 2.0])
    def test_rejects_bad_precision(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            gamma_p(F(1, 5), 7, k)
        with pytest.raises(ValueError, match="k >= 1"):
            gamma_p(3, 7, k)
