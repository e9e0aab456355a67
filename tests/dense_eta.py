"""Dense exact-integer power series: the slow oracle for the sparse eta table.

Each factor (1 - q^s)^e of prod(1 - q^{mn})^e is applied in place over the
whole truncated series, and two series multiply in O(B^2) pure-Python steps.
`dense_f_coefficients` builds the eta-product table this way, independently
of the Euler/Jacobi series that `supercong.eta` uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class IntSeries:
    """Dense exact-integer power series truncated at a fixed degree bound."""

    coeffs: tuple[int, ...]

    @property
    def bound(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        bound = min(self.bound, other.bound)
        out = [0] * (bound + 1)
        for i, ci in enumerate(self.coeffs[: bound + 1]):
            if ci:
                for j, cj in enumerate(other.coeffs[: bound - i + 1]):
                    out[i + j] += ci * cj
        return IntSeries(tuple(out))


def eta_factor_series(m: int, e: int, bound: int) -> IntSeries:
    """prod_{n>=1} (1 - q^{mn})^e truncated at the given degree (the constant 1 if m > bound)."""
    coeffs = [0] * (bound + 1)
    coeffs[0] = 1
    # (1 - q^s)^e is sparse: apply each factor in place, descending so reads see old values
    binom = [comb(e, j) * (-1) ** j for j in range(e + 1)]
    n = 1
    while m * n <= bound:
        s = m * n
        for d in range(bound, s - 1, -1):
            acc = coeffs[d]
            for j in range(1, min(e, d // s) + 1):
                acc += binom[j] * coeffs[d - j * s]
            coeffs[d] = acc
        n += 1
    return IntSeries(tuple(coeffs))


def dense_f_coefficients(bound: int) -> tuple[int, ...]:
    """a(0..bound) of q * prod(1-q^{2n})^4 * prod(1-q^{4n})^4 by the dense product."""
    body = eta_factor_series(2, 4, bound - 1) * eta_factor_series(4, 4, bound - 1)
    return (0,) + body.coeffs
