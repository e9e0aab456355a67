"""Exact q-expansion of the weight-4 eta product q * prod(1-q^{2n})^4 * prod(1-q^{4n})^4.

The two fractional eta powers combine to exactly q^1, so the coefficients a(n)
are plain integers with a(1) = 1 and a(n) = 0 for even n.

E(x) = prod(1-x^n)^4 is built as the product of two sparse series with
O(sqrt(B)) terms each: Euler's pentagonal series for prod(1-x^n) and
Jacobi's series for prod(1-x^n)^3.  With x = q^2 the body of the eta product
is E(x) * E(x^2), one int64 convolution.  The dense factor-by-factor product
in pure Python, O(B^2), is kept in the tests as the oracle for this table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exact import TooLarge

DEFAULT_LIMIT = 1000

# largest table bound B whose int64 convolution provably cannot overflow (see f_coefficients)
TABLE_MAX_BOUND = 1 << 19


class OutOfRange(ValueError):
    """A coefficient beyond the computed table bound was requested."""


def _pentagonal(n: int) -> list[tuple[int, int]]:
    """Euler: prod(1-x^m) = sum_{k in Z} (-1)^k x^{k(3k-1)/2}, the (exponent, sign) pairs <= n."""
    out = [(0, 1)]
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = -1 if k % 2 else 1
        out.append((k * (3 * k - 1) // 2, sign))
        if k * (3 * k + 1) // 2 <= n:
            out.append((k * (3 * k + 1) // 2, sign))
        k += 1
    return out


def _fourth_power(n: int) -> np.ndarray:
    """Coefficients 0..n of prod(1-x^m)^4 = Euler's series * sum_{j>=0} (-1)^j (2j+1) x^{j(j+1)/2}."""
    j = np.arange(int((2 * n) ** 0.5) + 2, dtype=np.int64)
    j = j[j * (j + 1) // 2 <= n]
    cube_exps = j * (j + 1) // 2
    cube_coeffs = np.where(j % 2 == 0, 1, -1) * (2 * j + 1)
    out = np.zeros(n + 1, dtype=np.int64)
    for exp, sign in _pentagonal(n):
        # the cube exponents are distinct, so each fancy-indexed += hits every slot once
        count = np.searchsorted(cube_exps, n - exp, side="right")
        out[exp + cube_exps[:count]] += sign * cube_coeffs[:count]
    return out


@lru_cache(maxsize=8)
def f_coefficients(bound: int) -> tuple[int, ...]:
    """Coefficients a(0..bound) of the eta product, a(0) = 0 and a(1) = 1.

    a(2i+1) is the x^i coefficient of E(x) * E(x^2), E = prod(1-x^m)^4, for
    i <= h = (bound-1) // 2.  That product is one int64 ``np.convolve``, and
    it cannot overflow for bound <= TABLE_MAX_BOUND = 2^19:

    - The x^m coefficient e_m of E is a sum over the pentagonal exponents
      g <= m, each paired with at most one triangular exponent m - g, of a
      term +-(2j+1) with j(j+1)/2 <= m.  There are at most sqrt(24m+1)/3 + 1
      such g, and 2j+1 <= sqrt(8m+1), so for m >= 1
      |e_m| <= (5 sqrt(m)/3 + 1) * 3 sqrt(m) <= 8m, and e_0 = 1.
    - The x^i coefficient of E(x) * E(x^2) is sum_{l <= i/2} e_{i-2l} e_l:
      at most i/2 + 1 products, each at most 8i * 4i in absolute value
      (|e_{i-2l}| <= 8i and |e_l| <= 8 * i/2 for i >= 2), so every partial sum is at
      most 32 i^2 (i/2 + 1) <= 32 i^3 for i >= 2 (and 8 for i < 2).
    - With i <= h < bound/2 <= 2^18 this is at most 32 * 2^54 = 2^59 < 2^63.

    Above the bound TooLarge is raised; there is no arbitrary-precision fallback.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > TABLE_MAX_BOUND:
        raise TooLarge(f"eta table bound {bound} exceeds the int64 bound {TABLE_MAX_BOUND}")
    half = (bound - 1) // 2
    e = _fourth_power(half)
    e_squared = np.zeros(half + 1, dtype=np.int64)  # E(x^2)
    e_squared[::2] = e[: half // 2 + 1]
    body = np.convolve(e, e_squared)[: half + 1].tolist()
    out = [0] * (bound + 1)
    out[1::2] = body
    return tuple(out)


def a_p(p: int, limit: int = DEFAULT_LIMIT) -> int:
    """a(p) looked up from the coefficient table of the given bound."""
    if p > limit:
        raise OutOfRange(f"a({p}) requested but table bound is {limit}")
    return f_coefficients(limit)[p]
