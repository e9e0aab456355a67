import pytest

from dense_eta import IntSeries, dense_f_coefficients, eta_factor_series
from supercong import cli
from supercong.eta import TABLE_MAX_BOUND, OutOfRange, a_p, f_coefficients
from supercong.exact import TooLarge


def naive_poly_mul(a, b, bound):
    out = [0] * (bound + 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j <= bound:
                out[i + j] += ca * cb
    return out


def naive_binomial_product(m, e, bound):
    """Hand expansion of prod (1 - q^{mn})^e, factor by naive polynomial multiplication."""
    acc = [1]
    n = 1
    while m * n <= bound:
        base = [1] + [0] * (m * n - 1) + [-1]
        factor = base
        for _ in range(e - 1):
            factor = naive_poly_mul(factor, base, bound)
        acc = naive_poly_mul(acc, factor, bound)
        n += 1
    return acc + [0] * (bound + 1 - len(acc))


class TestEtaFactorSeries:
    def test_hand_expansion(self):
        # (1-q^2)^4 (1-q^4)^4 (1-q^6)^4 mod q^7 = 1 - 4q^2 + 2q^4 + 8q^6
        assert eta_factor_series(2, 4, 6).coeffs == (1, 0, -4, 0, 2, 0, 8)

    def test_matches_naive_oracle(self):
        for m, e, bound in [(2, 4, 25), (4, 4, 25), (1, 2, 15), (3, 5, 20)]:
            assert list(eta_factor_series(m, e, bound).coeffs) == naive_binomial_product(m, e, bound)

    def test_scale_beyond_bound_is_constant_one(self):
        s = eta_factor_series(9, 4, 8)
        assert s.coeffs == (1,) + (0,) * 8

    def test_no_linear_term_for_scale_two_up(self):
        for m in (2, 3, 4, 5):
            assert eta_factor_series(m, 4, 10)[1] == 0


class TestIntSeries:
    def test_truncated_multiplication_is_associative(self):
        a = IntSeries((1, -2, 3, 0, 5))
        b = IntSeries((2, 1, -1, 4, 0))
        c = IntSeries((0, 3, 1, -2, 2))
        assert (a * b) * c == a * (b * c)

    def test_bound_is_minimum(self):
        a = IntSeries((1, 1, 1))
        b = IntSeries((1, -1))
        assert (a * b).coeffs == (1, 0)


class TestCoefficients:
    def test_small_values(self):
        coeffs = f_coefficients(30)
        assert coeffs[1] == 1
        assert coeffs[3] == -4
        assert coeffs[5] == -2
        assert coeffs[7] == 24

    def test_even_coefficients_vanish(self):
        coeffs = f_coefficients(200)
        assert all(coeffs[n] == 0 for n in range(2, 201, 2))

    def test_prefix_stability(self):
        small = f_coefficients(60)
        large = f_coefficients(240)
        assert large[: len(small)] == small

    def test_multiplicative_spot_checks(self):
        coeffs = f_coefficients(25)
        assert coeffs[15] == coeffs[3] * coeffs[5]
        assert coeffs[21] == coeffs[3] * coeffs[7]

    def test_lookup(self):
        assert a_p(3, 50) == -4
        assert a_p(5, 50) == -2
        assert a_p(7, 50) == 24
        with pytest.raises(OutOfRange):
            a_p(101, 50)


class TestAgainstDenseOracle:
    # a fixed sample of bounds <= 2000, both parities, plus the smallest ones
    SAMPLE = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17, 63, 64, 97, 128, 255, 256,
              499, 500, 777, 1000, 1023, 1024, 1499, 1500, 1999, 2000)

    @pytest.fixture(scope="class")
    def oracle(self):
        return dense_f_coefficients(max(self.SAMPLE))

    def test_small_bounds_directly(self):
        for bound in (1, 2, 3):
            assert f_coefficients(bound) == dense_f_coefficients(bound)
        assert f_coefficients(1) == (0, 1)

    def test_sampled_bounds(self, oracle):
        # the dense product truncated at B is the prefix of the one truncated at 2000
        for bound in self.SAMPLE:
            assert f_coefficients(bound) == oracle[: bound + 1], bound


class TestTableCap:
    def test_over_the_int64_bound_raises(self):
        with pytest.raises(TooLarge):
            f_coefficients(TABLE_MAX_BOUND + 1)

    def test_cli_limit_over_the_bound_is_usage_error(self, capsys):
        code = cli.main(["eta", "--limit", str(TABLE_MAX_BOUND + 1)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
