"""Morita p-adic Gamma function evaluated to precision p^k.

For a nonnegative integer m the value is the definitional product
(-1)^m * prod_{0 < j < m, p not | j} j.  A p-integral rational argument x is
handled by lifting it to the unique integer m = x (mod p^k) in [0, p^k); the
function is 1-Lipschitz in the p-adic metric, so the lift changes nothing
below precision p^k.  This is validated empirically by the Pochhammer-bridge
tests rather than assumed silently.

The product is never formed term by term.  Write m = Q*p + r with 0 <= r < p;
the factors prime to p fall into Q full blocks and a tail:

    prod_{0<j<m, p not | j} j = prod_{i<Q} H(i) * prod_{0<s<r} (Q*p + s),
    H(y) = prod_{s=1}^{p-1} (p*y + s).

The y^d coefficient of H is p^d times that of (1+y)_{p-1}, with
(1+y)_n = prod_{s=1}^{n} (y + s), and the tail is (1+y)_{r-1} at y = Q*p,
so k coefficients of each suffice mod p^k: one ``exact.rising_coefficients``
call, the tree of the checks' Pochhammer symbols, with leaves r-1 and p-1.

The blocks come from Newton interpolation (Mahler).  H(0) = (p-1)! is a
unit, and g(n) = prod_{i<n} H(i) / H(0)^n satisfies

    prod_{i<Q} H(i) = H(0)^Q * sum_{c=0}^{2k-2} D^c g(0) * C(Q, c)  (mod p^k),

with D the forward difference, so only H(0), ..., H(2k-3) are needed.  Why
the sum may stop at 2k-2: writing y^d in the binomial basis turns
H(i)/H(0) into 1 + sum_{e>=1} b_e * C(i, e) with vp(b_e) >= e.  Expanding
g(n) = prod_{i<n} (1 + u(i)) over the sets i_1 < ... < i_j < n of indices
gives terms b_{e_1}...b_{e_j} times nested sums of C(i_t, e_t); since
sum_{i<n} C(i, c) = C(n, c+1), by induction each nested sum is an
integer-valued polynomial in n of degree at most E + j, E = e_1 + ... + e_j,
so its Newton coefficients are integers and vanish beyond E + j <= 2E.  The
coefficient of C(n, c) thus gathers terms of valuation >= E >= c/2:
vp(D^c g(0)) >= ceil(c/2) >= k once c >= 2k-1.  Newton's series of g at an
integer Q is the exact finite sum over c <= Q, and for Q <= 2k-2 the formula
is exact.

Cost: a tree over p - 1 steps, O(p*k) in its runs and O(k^2) in each of
its p/16 nodes, and O(k^2) for the Newton sum.  The definitional product
and the Taylor-shift doubling survive only as test oracles.
"""

from __future__ import annotations

import math

from .exact import RationalLike, ResidueInt, is_prime, poly_value, reduce_mod, rising_coefficients


def _blocks_product(q: int, h: list[int], modulus: int) -> int:
    """prod_{i<q} H(i) mod p^k, by Newton interpolation from H(0), ..., H(2k-3), k = len(h)."""
    scale = pow(h[0], -1, modulus)
    g = [1]  # g(n) = prod_{i<n} H(i) / H(0)^n for n = 0..min(q, 2k-2)
    for i in range(min(q, 2 * len(h) - 2)):
        g.append(g[-1] * poly_value(h, i, modulus) * scale % modulus)
    total = 0
    for c in range(len(g)):  # g[0] is now D^c g(0)
        total += g[0] * math.comb(q, c)
        g = [b - a for a, b in zip(g, g[1:])]
    return pow(h[0], q, modulus) * total % modulus


def gamma_p(x: RationalLike, p: int, k: int) -> ResidueInt:
    """Gamma_p(x) mod p^k for p-integral rational x, via the integer lift of x mod p^k.

    For an integer 0 <= m < p^k, gamma_p(m, ...) is the definitional product
    (-1)^m prod_{0<j<m, (j,p)=1} j reduced mod p^k: 1 at m = 0, -1 at m = 1.
    Raises ValueError unless p is prime and k is an int >= 1, and
    NegativeValuation when x is not p-integral.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"Gamma_p needs a precision exponent k >= 1, got {k!r}")
    if not is_prime(p):
        raise ValueError(f"Gamma_p needs a prime p, got {p!r}")
    modulus = p**k
    m = reduce_mod(x, p, k).value
    q, r = divmod(m, p)
    tail, block = rising_coefficients([(max(r - 1, 0), modulus), (p - 1, modulus)], k)
    h = [c * p**d % modulus for d, c in enumerate(block)]
    acc = _blocks_product(q, h, modulus) * poly_value(tail, q * p, modulus) % modulus
    return ResidueInt(-acc % modulus if m % 2 else acc, p, k)
