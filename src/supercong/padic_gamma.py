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

Why cutting is exact: the y^d coefficient of H is divisible by p^d.  That
property survives products and integer Taylor shifts f(y) -> f(y + a), whose
y^d coefficient gathers f_e * C(e, d) * a^(e-d) over e >= d.  Among such
polynomials every term of degree >= k has a coefficient divisible by p^k, so
it vanishes at any integer y mod p^k, and it stays a multiple of p^k through
later products and shifts.  Every polynomial can therefore be cut to degree
< k and reduced mod p^k.  With G_n(y) = prod_{i<n} H(y + i), the rule
G_{a+b}(y) = G_a(y) * G_b(y + a) doubles n, or adds one block, in one shift
and one cut product; walking the bits of Q yields G_Q(0) = prod_{i<Q} H(i).

Cost: O(p*k) to build H, O(k^2) per bit of Q < p^(k-1), so O(k^3 log p) for
the blocks, and O(p) for the tail -- all exact integer arithmetic mod p^k.
The definitional product survives only as the test oracle.
"""

from __future__ import annotations

from .exact import RationalLike, ResidueInt, cut_product, is_prime, reduce_mod


def sp(x: RationalLike, p: int) -> int:
    """The representative of x mod p lying in {1, ..., p}."""
    r = reduce_mod(x, p, 1).value
    return r if r != 0 else p


def _check_modulus(p: int, k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"Gamma_p needs a precision exponent k >= 1, got {k!r}")
    if not is_prime(p):
        raise ValueError(f"Gamma_p needs a prime p, got {p!r}")


def _shift(f: list[int], a: int, modulus: int) -> list[int]:
    """Coefficients of f(y + a), by repeated synthetic division."""
    c = list(f)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return [x % modulus for x in c]


def _block_polynomial(p: int, k: int, modulus: int) -> list[int]:
    """H(y) = prod_{s=1}^{p-1} (p*y + s) cut to degree < k, mod p^k."""
    h = [1] + [0] * (k - 1)
    for s in range(1, p):
        for d in range(k - 1, 0, -1):
            h[d] = (s * h[d] + p * h[d - 1]) % modulus
        h[0] = h[0] * s % modulus
    return h


def _blocks_product(q: int, p: int, k: int, modulus: int) -> int:
    """prod_{i<q} H(i) mod p^k, by binary splitting over the bits of q."""
    if q == 0:
        return 1
    h = _block_polynomial(p, k, modulus)
    g, n = h, 1  # g = G_n
    for bit in bin(q)[3:]:
        g = cut_product(g, _shift(g, n, modulus), modulus)
        n *= 2
        if bit == "1":
            g = cut_product(g, _shift(h, n, modulus), modulus)
            n += 1
    return g[0]


def _gamma_int_value(m: int, p: int, k: int) -> int:
    modulus = p**k
    q, r = divmod(m, p)
    acc = _blocks_product(q, p, k, modulus)
    base = q * p
    for s in range(1, r):
        acc = acc * (base + s) % modulus
    return -acc % modulus if m % 2 else acc


def gamma_p_int(m: int, p: int, k: int) -> ResidueInt:
    """The definitional product (-1)^m prod_{0<j<m, (j,p)=1} j reduced mod p^k.

    gamma_p_int(0, ...) is 1 (empty product, positive sign) and
    gamma_p_int(1, ...) is -1.  Raises ValueError unless p is prime and k is
    an int >= 1.
    """
    _check_modulus(p, k)
    if m < 0:
        raise ValueError("argument must be a nonnegative integer")
    return ResidueInt(_gamma_int_value(m, p, k), p, k)


def gamma_p(x: RationalLike, p: int, k: int) -> ResidueInt:
    """Gamma_p(x) mod p^k for p-integral rational x, via the integer lift of x mod p^k.

    Raises ValueError unless p is prime and k is an int >= 1, and
    NegativeValuation when x is not p-integral.
    """
    _check_modulus(p, k)
    m = reduce_mod(x, p, k).value
    return ResidueInt(_gamma_int_value(m, p, k), p, k)
