"""Point counts N(p) of the threefold x+1/x+y+1/y+z+1/z+w+1/w = 0 over F_p.

Solutions range over x, y, z, w in the multiplicative group (the equation needs
invertibility).  Each variable contributes t = x + 1/x with fiber size
c(t) = 1 + legendre(t^2 - 4), read from a table of the squares mod p, so
N(p) is a fourfold additive convolution of c.  The pair sums A = c * c come
from one big-integer square (Kronecker substitution): c is packed into
2-byte slots of a Python int (4-byte slots from p = 16411 on), whose square
holds every pair sum in its own slot, and N(p) = sum_s A(s) A(-s).  A direct enumeration over (F_p^*)^4
serves as the oracle for small p; the int64 ``np.convolve`` this replaced is
kept in the tests as the oracle at larger p.
"""

from __future__ import annotations

import numpy as np

from .exact import TooLarge, is_prime

BRUTE_FORCE_MAX = 13

# entries <= 2 and pair sums <= 4p < 2^32 fit a 4-byte slot; the products
# A(s) A(-s) <= 16 p^2 sum to at most 16 p^3 < 2^63 in int64 below this cap
CONV_MAX_P = 1 << 19

# up to here pair sums <= 4p < 2^16 fit a 2-byte slot, and the square is half as long
NARROW_SLOT_MAX_P = (1 << 16) // 4 - 1


def _fibers(p: int) -> np.ndarray:
    """c(t) for t = 0..p-1 as int64: 1 + legendre(t^2 - 4), from a table of the squares mod p."""
    t_squared = np.arange(p, dtype=np.int64) ** 2
    is_square = np.zeros(p, dtype=bool)
    is_square[t_squared[1:] % p] = True
    a = (t_squared - 4) % p
    return np.where(a == 0, 1, np.where(is_square[a], 2, 0))


def count_N(p: int) -> int:
    """N(p) = sum_s A(s)A(-s), with A(s) = sum_{t1+t2=s mod p} c(t1)c(t2).

    The unfolded sums over t1 + t2 = s, s = 0..2p-2, are the slots of the
    square of the int whose slots hold c; each is at most 4p, so a 2-byte
    slot (4p < 2^16) or else a 4-byte slot never carries into the next.
    p must be an odd prime.
    """
    if p > CONV_MAX_P:
        raise TooLarge(f"convolution word-width bound exceeded for p = {p}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"N(p) needs an odd prime p, got {p}")
    slot = np.dtype("<u2" if p <= NARROW_SLOT_MAX_P else "<u4")
    packed = int.from_bytes(_fibers(p).astype(slot).tobytes(), "little")
    full = np.frombuffer((packed * packed).to_bytes(2 * p * slot.itemsize, "little"), dtype=slot)
    a = full[:p].astype(np.int64)
    a[: p - 1] += full[p : 2 * p - 1]
    return int(a[0] * a[0] + a[1:] @ a[:0:-1])


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
