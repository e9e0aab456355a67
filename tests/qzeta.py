"""Q(i) and Q(omega) arithmetic: the slow oracle for the rational conjugate-pair evaluation.

An element re + im*zeta records its field by the trace t = zeta + zeta' of its
root: t = 0 for i and t = -1 for omega.  Both roots satisfy zeta^2 = t*zeta - 1
and zeta*zeta' = 1.  The b1 and c3 sides below are evaluated with each complex
parameter on its own, the way the identities are printed, so they check the
pairing in ``supercong`` rather than repeat it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F

from supercong.exact import TRACE_I, TRACE_OMEGA


@dataclass(frozen=True)
class QZeta:
    re: F
    im: F
    trace: int

    def __post_init__(self):
        object.__setattr__(self, "re", F(self.re))
        object.__setattr__(self, "im", F(self.im))

    def _coerce(self, other) -> QZeta:
        if isinstance(other, QZeta):
            if other.trace != self.trace:
                raise ValueError("cannot mix Q(i) and Q(omega)")
            return other
        return QZeta(other, 0, self.trace)

    def __add__(self, other):
        other = self._coerce(other)
        return QZeta(self.re + other.re, self.im + other.im, self.trace)

    __radd__ = __add__

    def __neg__(self):
        return QZeta(-self.re, -self.im, self.trace)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return QZeta(a * c - b * d, a * d + b * c + self.trace * b * d, self.trace)

    __rmul__ = __mul__

    def conj(self) -> QZeta:
        """zeta -> zeta' = t - zeta."""
        return QZeta(self.re + self.trace * self.im, -self.im, self.trace)

    def norm(self) -> F:
        return (self * self.conj()).as_rational()

    def __truediv__(self, other):
        other = self._coerce(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        quotient = self * other.conj()
        return QZeta(quotient.re / n, quotient.im / n, self.trace)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        out = QZeta(1, 0, self.trace)
        for _ in range(n):
            out = out * self
        return out

    def as_rational(self) -> F:
        if self.im:
            raise ValueError(f"{self} has nonzero im-part")
        return self.re


def zeta(trace: int) -> QZeta:
    return QZeta(0, 1, trace)


def rising(a, n: int):
    out = a * 0 + 1  # in a's own field, also when n = 0
    for j in range(n):
        out = (a + j) * out
    return out


def pfq(top, bottom, z, n: int):
    """Truncated pFq over Q(zeta), one term-ratio factor per parameter."""
    total = term = 1
    for k in range(n):
        for a in top:
            term = (a + k) * term
        for b in bottom:
            term = term / (b + k)
        term = term * z / (k + 1)
        total = term + total
    return total


def b1_sides(p: int, printed: bool = False):
    """Both sides of the specialized Bailey transformation in Q(omega).

    ``printed=True`` reads the rhs second top parameter as (1-w)/2 instead of
    (1-wp)/2; that reading has no conjugate partner and does not balance.
    """
    w = zeta(TRACE_OMEGA)
    m = (p - 1) // 2
    b, c = (1 - w * p) / 2, (1 - w * w * p) / 2
    d, e = 1 + w * p / 2, 1 + w * w * p / 2
    lhs = pfq((F(1, 2), b, c, F(1 - p, 2)), (d, e, 1 + F(p, 2)), 1, m)
    prefactor = p * rising(F(1, 2), m) * rising(F(1 - p, 2), m) / (rising(d, m) * rising(e, m))
    second = (1 - w) / 2 if printed else b
    rhs = prefactor * pfq((F(1, 2), second, c, F(1 - p, 2)), (1, F(3, 4), F(5, 4)), 1, m)
    return lhs, rhs


def c3_sides(p: int):
    """Both sides of the fourth-root Whipple specialization in Q(i)."""
    i = zeta(TRACE_I)
    top = (F(5, 4), F(1, 2), F(1 - p, 2), F(1 + p, 2), (1 - i * p) / 2, (1 + i * p) / 2)
    bottom = (F(1, 4), 1 - F(p, 2), 1 + F(p, 2), 1 - i * p / 2, 1 + i * p / 2)
    lhs = pfq(top, bottom, -1, (p - 1) // 2)
    q = (p + 1) // 4
    num = rising(-i * p / 4, q) * rising((3 - (i + 1) * p) / 4, q)
    rhs = -p * num / rising((1 - (i + 1) * p) / 4, 2 * q)
    return lhs, rhs
