"""Point counts N(p) of the threefold x+1/x+y+1/y+z+1/z+w+1/w = 0 over F_p.

Solutions range over x, y, z, w in the multiplicative group (the equation needs
invertibility).  Each variable contributes t = x + 1/x with fiber size
c(t) = 1 + legendre(t^2 - 4), so N(p) is a fourfold additive convolution of c,
computed as two O(p^2) self-convolutions.  A direct enumeration over
(F_p^*)^4 serves as the oracle for small p.
"""

from __future__ import annotations

import numpy as np

from .exact import TooLarge, is_prime

BRUTE_FORCE_MAX = 13

# intermediate bound for the int64 convolution: entries <= 2, pair sums <= 4p,
# products <= 16 p^2, final sums <= 16 p^3: safe with headroom below this cap
CONV_MAX_P = 1 << 19


def legendre(a: int, p: int) -> int:
    """Quadratic-residue character of a mod p (odd prime p): -1, 0 or 1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def fiber_counts(p: int) -> tuple[int, ...]:
    """c(t) = #{x in F_p^*: x + 1/x = t} for t = 0..p-1.

    Each is 1 + legendre(t^2 - 4), which is 1 at t = +-2.
    """
    return tuple(1 + legendre(t * t - 4, p) for t in range(p))


def count_N(p: int) -> int:
    """N(p) via self-convolution: A(s) = sum_{t1+t2=s} c(t1)c(t2), N = sum_s A(s)A(-s).

    p must be an odd prime: the fiber sizes use Euler's criterion.
    """
    if p > CONV_MAX_P:
        raise TooLarge(f"convolution word-width bound exceeded for p = {p}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"N(p) needs an odd prime p, got {p}")
    c = np.array(fiber_counts(p), dtype=np.int64)
    full = np.convolve(c, c)
    folded = full[:p].copy()
    folded[: len(full) - p] += full[p:]
    a = folded.tolist()
    return a[0] * a[0] + sum(a[s] * a[p - s] for s in range(1, p))


def brute_force_N(p: int) -> int:
    """Direct enumeration over (F_p^*)^4; the oracle for count_N at small p."""
    if p > BRUTE_FORCE_MAX:
        raise TooLarge(f"brute force capped at p <= {BRUTE_FORCE_MAX}, got {p}")
    t = [(x + pow(x, -1, p)) % p for x in range(1, p)]
    count = 0
    for t1 in t:
        for t2 in t:
            for t3 in t:
                r = (t1 + t2 + t3) % p
                count += sum(1 for t4 in t if (r + t4) % p == 0)
    return count


def check_trace_relation(p: int, a_p: int) -> bool:
    """Whether a(p) = p^3 - 2p^2 - 7 - N(p)."""
    return a_p == p**3 - 2 * p**2 - 7 - count_N(p)
