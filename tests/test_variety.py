import numpy as np
import pytest

from oracles import legendre
from supercong.variety import NARROW_SLOT_MAX_P, TooLarge, _fibers, brute_force_N, count_N
from supercong.verifier import primes_between

SMALL_PRIMES = [3, 5, 7, 11, 13]


def fiber_counts(p):
    """c(t) = #{x in F_p^*: x + 1/x = t} for t = 0..p-1, as ``count_N`` reads them."""
    return tuple(_fibers(p).tolist())


def convolved_N(p):
    """N(p) by the int64 ``np.convolve`` of fiber sizes from Euler's criterion: the oracle."""
    c = np.array([1 + legendre(t * t - 4, p) for t in range(p)], dtype=np.int64)
    full = np.convolve(c, c)
    folded = full[:p].copy()
    folded[: len(full) - p] += full[p:]
    a = folded.tolist()
    return a[0] * a[0] + sum(a[s] * a[p - s] for s in range(1, p))


class TestLegendre:
    def test_examples(self):
        assert legendre(0, 7) == 0
        assert legendre(1, 5) == 1
        squares_mod_5 = {x * x % 5 for x in range(1, 5)}
        assert 2 not in squares_mod_5
        assert legendre(2, 5) == -1

    @pytest.mark.parametrize("p", SMALL_PRIMES + [17, 19, 23])
    def test_against_square_enumeration(self, p):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expected


class TestFiberCounts:
    def test_p3_by_enumeration(self):
        assert fiber_counts(3) == (0, 1, 1)

    @pytest.mark.parametrize("p", SMALL_PRIMES + [17, 19, 101])
    def test_against_direct_fibering(self, p):
        fibers = [0] * p
        for x in range(1, p):
            fibers[(x + pow(x, -1, p)) % p] += 1
        assert fiber_counts(p) == tuple(fibers)

    def test_invariants_up_to_500(self):
        from supercong.verifier import primes_between

        for p in primes_between(3, 500):
            counts = fiber_counts(p)
            assert sum(counts) == p - 1
            assert all(counts[t] == counts[(p - t) % p] for t in range(p))
            assert all(c in (0, 1, 2) for c in counts)


class TestCountN:
    def test_small_values(self):
        assert count_N(3) == 6
        assert count_N(5) == 70
        assert count_N(7) == 214

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_matches_brute_force(self, p):
        assert count_N(p) == brute_force_N(p) == convolved_N(p)

    def test_matches_the_convolution_below_3000(self):
        for p in primes_between(3, 3000):
            assert count_N(p) == convolved_N(p), p

    def test_matches_the_convolution_at_10007(self):
        assert count_N(10007) == convolved_N(10007)

    # 16381 is the last prime with 2-byte slots and 16411 the first with 4-byte slots
    @pytest.mark.parametrize("p", [16381, 16411])
    def test_matches_the_convolution_on_both_sides_of_the_slot_width(self, p):
        assert count_N(p) == convolved_N(p)

    def test_slot_width_changes_between_16381_and_16411(self):
        assert NARROW_SLOT_MAX_P == 16383 and 4 * NARROW_SLOT_MAX_P < 2**16
        assert primes_between(16382, 16410) == []

    @pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 9, 15, 25, 49, 121, 10001])
    def test_rejects_non_odd_prime(self, p):
        with pytest.raises(ValueError):
            count_N(p)

    def test_brute_force_capped(self):
        with pytest.raises(TooLarge):
            brute_force_N(17)

