import functools
import math
import random
from decimal import Decimal
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import pair_factor, pair_pochhammer, pochhammer_mod
from qzeta import QZeta, rising, zeta
from supercong import exact
from supercong.exact import (
    TRACE_I,
    TRACE_OMEGA,
    ConjugatePair,
    NegativeValuation,
    ResidueInt,
    cleared_factor,
    cleared_progression,
    cut_product,
    fraction_str,
    LEAF_STEPS,
    is_prime,
    p_split,
    pochhammer,
    pochhammer_pair,
    poly_value,
    product_tree,
    reduce_mod,
    remainder_tree,
    rising_coefficients,
    split_product,
    vp,
)
from supercong.hypergeom import half_harmonic2
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


class TestFractionStr:
    @given(st.fractions())
    def test_same_text_as_str(self, x):
        assert fraction_str(x) == str(x)

    def test_beyond_the_int_string_limit(self):
        x = F(-(7**6000), 11**5000)
        num, den = fraction_str(x).split("/")
        assert num.startswith("-") and len(num) > 4300
        assert F(int(Decimal(num)), int(Decimal(den))) == x


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
        assert pair_pochhammer(ConjugatePair(1, F(5, 2), TRACE_OMEGA), 1) == F(19, 4)
        assert pair_pochhammer(ConjugatePair(F(7, 3), F(5, 2), TRACE_I), 0) == 1
        # (1 + 2i)(1 - 2i) (2 + 2i)(2 - 2i) = 5 * 8
        assert pair_pochhammer(ConjugatePair(1, 2, TRACE_I), 2) == 40
        with pytest.raises(ValueError):
            pair_pochhammer(ConjugatePair(1, 2, TRACE_I), -1)

    @given(small_fractions, small_fractions, st.sampled_from([TRACE_I, TRACE_OMEGA]),
           st.integers(0, 8))
    @settings(max_examples=80)
    def test_pair_matches_qzeta_oracle(self, u, y, trace, k):
        z = zeta(trace)
        oracle = rising(u + y * z, k) * rising(u + y * z.conj(), k)
        assert oracle.as_rational() == pair_pochhammer(ConjugatePair(u, y, trace), k)

    @given(small_fractions, st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=60)
    def test_composition(self, a, m, n):
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)

    PARAMS = (F(1, 2), F(-3, 2), F(7, 3), F(-4), F(0), F(1 - 10007, 2),
              ConjugatePair(F(1), F(10007, 2), TRACE_OMEGA), ConjugatePair(F(1, 2), F(3, 4), TRACE_I))

    @pytest.mark.parametrize("param", PARAMS)
    def test_pair_is_the_left_to_right_product(self, param):
        (c0, c1, c2), den = cleared_factor(param)
        for n in (*range(40), 63, 64, 65, 100, 1000, 5003):
            expected = math.prod(c0 + j * (c1 + j * c2) for j in range(n)), den**n
            assert pochhammer_pair(param, n) == expected, n

    @pytest.mark.parametrize("param", PARAMS)
    def test_progression_is_the_factor_at_each_offset(self, param):
        (c0, c1, c2), den = cleared_factor(param)
        for n in (0, 1, 2, 7, 100):
            factors, d = cleared_progression(param, n)
            assert list(factors) == [c0 + j * (c1 + j * c2) for j in range(n)] and d == den

    def test_product_tree(self):
        assert product_tree([]) == 1
        assert product_tree([-7]) == -7
        for n in range(1, 70):
            factors = [3 * j - 50 for j in range(n)]
            assert product_tree(factors) == math.prod(factors)
            assert product_tree(range(-50, 3 * n - 50, 3)) == math.prod(factors)


def cubic_collapse(u, v, p, k):
    """(u+vp)_k (u+vp*w)_k (u+vp*w^2)_k over the cube roots of unity."""
    return pochhammer(u + v * p, k) * pair_pochhammer(ConjugatePair(u, v * p, TRACE_OMEGA), k)


def quartic_collapse(u, v, p, k):
    """(u+vp)_k (u-vp)_k (u+vp*i)_k (u-vp*i)_k over the fourth roots of unity."""
    return (
        pochhammer(u + v * p, k)
        * pochhammer(u - v * p, k)
        * pair_pochhammer(ConjugatePair(u, v * p, TRACE_I), k)
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
        factor = pair_factor(param, j) if isinstance(param, ConjugatePair) else param + j
        assert F(c0 + c1 * j + c2 * j * j, den) == factor

    @given(pochhammer_params, st.integers(0, 12), small_primes, st.integers(1, 4))
    @settings(max_examples=150)
    def test_matches_exact_symbol(self, param, n, p, k):
        _, den = cleared_factor(param)
        assume(den % p != 0)
        exact = pair_pochhammer(param, n) if isinstance(param, ConjugatePair) else pochhammer(param, n)
        assert pochhammer_mod(param, n, p, k) == reduce_mod(exact, p, k)

    def test_denominator_divisible_by_p_is_rejected(self):
        with pytest.raises(NegativeValuation):
            pochhammer_mod(F(1, 3), 2, 3, 2)


@functools.cache
def rising_polys():
    """prod_{s=1}^{n} (y + s) multiplied out in full, for n = 0..1000."""
    polys = [[1]]
    for s in range(1, 1001):
        f = polys[-1]
        polys.append([a * s + b for a, b in zip(f + [0], [0] + f)])
    return polys


def rising_poly(n, k):
    """The k lowest coefficients of (1+y)_n, from the full product: the oracle."""
    return (rising_polys()[n] + [0] * k)[:k]


class TestRisingCoefficients:
    def test_every_position_to_300(self):
        rng = random.Random(10)
        for k in (1, 3, 4, 6):
            leaves = [(n, rng.randrange(2, 10**12)) for n in range(301)]
            for (n, modulus), f in zip(leaves, rising_coefficients(leaves, k)):
                assert f == [c % modulus for c in rising_poly(n, k)], (n, k)

    def test_sorted_random_leaves_with_repeats(self):
        rng = random.Random(11)
        for _ in range(40):
            ns = sorted(rng.choices(range(0, 300), k=rng.randint(2, 60)))
            leaves = [(n, rng.choice([7**4, 2**61 - 1, rng.randrange(2, 10**30)])) for n in ns]
            for (n, modulus), f in zip(leaves, rising_coefficients(leaves, 4)):
                assert f == [c % modulus for c in rising_poly(n, 4)], n

    def test_repeated_positions_give_the_same_product(self):
        leaves = [(50, 11**4), (50, 13**4), (50, 11**4), (80, 11**4), (80, 11**4)]
        out = rising_coefficients(leaves, 4)
        assert out[0] == out[2] == [c % 11**4 for c in rising_poly(50, 4)]
        assert out[1] == [c % 13**4 for c in rising_poly(50, 4)]
        assert out[3] == out[4] == [c % 11**4 for c in rising_poly(80, 4)]

    def test_one_leaf_and_none(self):
        assert rising_coefficients([], 4) == []
        assert rising_coefficients([(0, 5**3)], 3) == [[1, 0, 0]]
        assert rising_coefficients([(1000, 10**40)], 5) == [[c % 10**40 for c in rising_poly(1000, 5)]]

    def test_rejects_unsorted_or_negative_positions(self):
        with pytest.raises(ValueError):
            rising_coefficients([(5, 7), (4, 7)], 3)
        with pytest.raises(ValueError):
            rising_coefficients([(-1, 7)], 3)


def int_steps(n, seed, positive=False):
    """n nonzero int steps, and the run of ``split_product`` over them: their product."""
    rng = random.Random(seed)
    xs = [rng.randrange(1, 10**9) * (1 if positive else rng.choice((-1, 1))) for _ in range(n)]
    return xs, lambda a, c: math.prod(xs[a:c])


def int_reduce(a, modulus):
    return a % modulus


WALK_LENGTHS = (0, 1, 15, 16, 17, 33, 100)


def rising_run(k):
    """The run of ``split_product`` over the factors y + s of (1+y)_n: one cut product each."""

    def run(a, c):
        f = [1] + [0] * (k - 1)
        for s in range(a + 1, c + 1):
            f = cut_product(f, [s, 1] + [0] * (k - 2))
        return f

    return run


def rising_prefixes(ends, k):
    """(1+y)_n cut to k coefficients at each n of the sorted ends, from the full product."""
    out, f, n = [], [1] + [0] * (k - 1), 0
    for end in ends:
        for s in range(n + 1, end + 1):
            f = cut_product(f, [s, 1] + [0] * (k - 2))
        out.append(f)
        n = end
    return out


class TestSplitProduct:
    """``split_product`` with int nodes: compose is mul, and a run is the product of its steps."""

    @pytest.mark.parametrize("n", WALK_LENGTHS)
    def test_is_the_product(self, n):
        xs, run = int_steps(n, n)
        assert split_product(run, mul, int_reduce, 0, n) == math.prod(xs)
        for modulus in (7**4, 2**61 - 1, 10**30 + 1):
            assert split_product(run, mul, int_reduce, 0, n, modulus) % modulus == math.prod(xs) % modulus
        for a in range(0, n + 1, 5):
            for c in range(a, n + 1, 3):
                assert split_product(run, mul, int_reduce, a, c) == math.prod(xs[a:c]), (a, c)

    @pytest.mark.parametrize("n", WALK_LENGTHS)
    def test_runs_tile_the_steps_in_order(self, n):
        runs = []
        split_product(lambda a, c: runs.append((a, c)) or 1, mul, int_reduce, 0, n)
        assert [a for a, _ in runs] == [0] + [c for _, c in runs[:-1]] and runs[-1][1] == n
        assert all(0 <= c - a <= LEAF_STEPS for a, c in runs)
        assert len(runs) == 1 if n <= LEAF_STEPS else all(c - a >= LEAF_STEPS // 2 for a, c in runs)

    def test_nodes_above_the_runs_are_reduced(self):
        xs, run = int_steps(100, 7, positive=True)
        node = split_product(run, mul, int_reduce, 0, 100, 10**9 + 7)
        assert node == math.prod(xs) % (10**9 + 7)


class TestRemainderTree:
    """``remainder_tree`` with int nodes against ``math.prod`` of each prefix mod its modulus."""

    @pytest.mark.parametrize("n", WALK_LENGTHS)
    def test_every_prefix_mod_its_modulus(self, n):
        xs, run = int_steps(n, 100 + n)
        rng = random.Random(200 + n)
        for count in (1, 2, 3, 4, 5, 8, 9, 16, 17):  # one leaf, odd and even leaf counts
            ends = sorted(rng.choices(range(n + 1), k=count))
            moduli = [rng.randrange(2, 10**15) for _ in ends]
            out = remainder_tree(run, ends, moduli, mul, int_reduce)
            assert out == [math.prod(xs[:e]) % m for e, m in zip(ends, moduli)], (count, ends)

    @pytest.mark.parametrize("n", WALK_LENGTHS)
    def test_moduli_above_every_prefix_give_the_exact_prefixes(self, n):
        xs, run = int_steps(n, 300 + n, positive=True)
        ends = sorted({0, n // 3, n // 2, n})
        moduli = [10 ** (9 * n + 1) + i for i in range(len(ends))]
        out = remainder_tree(run, ends, moduli, mul, int_reduce)
        assert out == [math.prod(xs[:e]) for e in ends]

    @pytest.mark.parametrize("ends", [
        [0], [0, 0], [0, 0, 0, 17], [5, 5, 5], [0, 16, 16, 33, 33, 100], [17, 17, 100, 100, 100],
        [0, 1, 2, 3, 4, 5, 6], [100] * 8,
    ])
    def test_repeated_ends_are_empty_segments(self, ends):
        xs, run = int_steps(100, 17)
        moduli = [7**4, 11**4, 13**4, 7**4, 2**61 - 1, 10**20 + 39, 17**4, 19**4][: len(ends)]
        out = remainder_tree(run, ends, moduli, mul, int_reduce)
        assert out == [math.prod(xs[:e]) % m for e, m in zip(ends, moduli)]

    def test_first_segment_is_reduced_mod_every_modulus(self):
        # the root's product (here of all three moduli) reduces only the first segment
        xs, run = int_steps(100, 3, positive=True)
        ends, moduli = [40, 60, 100], [101**3, 103**3, 107**3]
        seen = []
        out = remainder_tree(run, ends, moduli, mul, lambda a, m: seen.append(m) or a % m)
        assert math.prod(moduli) in seen
        assert out == [math.prod(xs[:e]) % m for e, m in zip(ends, moduli)]

    def test_window_ends_with_long_segments_and_few_moduli(self):
        # the b4/b6 positions of 2100..2200: segments of about 1000 steps up to the first
        # p // 2 and from the last p // 2 to the first p - 1, short ones between, and
        # 42 moduli p^4 against prefixes of up to 2198 factors
        k = 4
        leaves = sorted({(n, p**k) for p in primes_between(2100, 2200) for n in (p // 2, p - 1)})
        ends, moduli = [n for n, _ in leaves], [m for _, m in leaves]
        seen = []
        out = remainder_tree(rising_run(k), ends, moduli, cut_product,
                             lambda f, m: seen.append(m) or [c % m for c in f])
        assert out == [[c % m for c in f] for f, m in zip(rising_prefixes(ends, k), moduli)]
        long_segments = [i for i, (a, b) in enumerate(zip([0, *ends], ends)) if b - a > 500]
        assert len(long_segments) == 2 and all(math.prod(moduli[i:]) in seen for i in long_segments)

    def test_one_prime_with_two_leaves(self):
        # Gamma_p's leaves r - 1 and p - 1 at one prime: the first segment is read by both
        p, k = 2003, 5
        for r in (1, 2, 17, 600, p - 1):
            ends = [r - 1, p - 1]
            out = remainder_tree(rising_run(k), ends, [p**k] * 2, cut_product,
                                 lambda f, m: [c % m for c in f])
            assert out == [[c % p**k for c in f] for f in rising_prefixes(ends, k)], r

    def test_only_segments_that_outgrow_their_readers_moduli_are_reduced(self):
        # segment i is read by leaves i..4, whose moduli have 104, 84, 63, 42 and 21 bits in
        # all, and its steps times the bit length of its end are 240, 12, 406, 7 and 7; the
        # product of moduli 2..4 is no node of the moduli's own tree
        xs, run = int_steps(102, 5, positive=True)
        ends, moduli = [40, 42, 100, 101, 102], [101**3, 103**3, 107**3, 109**3, 113**3]
        seen = []
        out = remainder_tree(run, ends, moduli, mul, lambda a, m: seen.append(m) or a % m)
        assert out == [math.prod(xs[:e]) % m for e, m in zip(ends, moduli)]
        assert math.prod(moduli) in seen and math.prod(moduli[2:]) in seen
        assert math.prod(moduli[1:]) not in seen and math.prod(moduli[3:]) not in seen

    def test_a_first_segment_left_off_the_leftmost_path_is_caught(self, monkeypatch):
        # mutation check: with no empty node on the leftmost path, segment 0 alone carries the
        # first steps into every prefix, so a segment 0 that comes back empty must change them all
        xs, run = int_steps(100, 11, positive=True)
        ends, moduli = [30, 31, 60, 100], [101**3, 103**3, 107**3, 109**3]
        split = exact.split_product
        monkeypatch.setattr(exact, "split_product", lambda run, compose, reduce, a, c, modulus=0:
                            1 if a == 0 else split(run, compose, reduce, a, c, modulus))
        out = remainder_tree(run, ends, moduli, mul, int_reduce)
        assert all(o != math.prod(xs[:e]) % m for o, e, m in zip(out, ends, moduli))

    def test_no_ends(self):
        assert remainder_tree(lambda a, c: 1 / 0, [], [], mul, int_reduce) == []

    @pytest.mark.parametrize("ends", [[5, 4], [0, 3, 2, 9], [-1], [-1, 4]])
    def test_decreasing_or_negative_ends_are_rejected(self, ends):
        _, run = int_steps(10, 0)
        with pytest.raises(ValueError, match="decreases"):
            remainder_tree(run, ends, [7] * len(ends), mul, int_reduce)


class TestPolynomialHelpers:
    def test_poly_value_is_the_sum(self):
        rng = random.Random(5)
        for _ in range(50):
            f = [rng.randrange(-10**9, 10**9) for _ in range(rng.randrange(0, 7))]
            y, modulus = rng.randrange(-10**6, 10**6), rng.randrange(2, 10**20)
            assert poly_value(f, y, modulus) == sum(c * y**d for d, c in enumerate(f)) % modulus

    @pytest.mark.parametrize("x, p", [(1, 3), (-45, 3), (7**5 * 12, 7), (2**70, 2), (10**9 + 7, 5)])
    def test_p_split(self, x, p):
        v, u = p_split(x, p)
        assert p**v * u == x and u % p != 0 and v == vp(x, p)

    @pytest.mark.parametrize("x, p", [(0, 3), (9, 1), (9, 0)])
    def test_p_split_without_a_valuation_raises(self, x, p):
        with pytest.raises(ValueError):
            p_split(x, p)
