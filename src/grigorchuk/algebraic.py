"""Exact arithmetic in Q(alpha), where 2*alpha^3 = alpha^2 + alpha + 1.

alpha is the unique real root of p(x) = 2x^3 - x^2 - x - 1 and lies in
(1.233751, 1.233752).  Values are stored as c0 + c1*alpha + c2*alpha^2
with rational coefficients, so equality and order comparisons are exact:
equality is coefficient-wise (p is irreducible over Q, checked once at
import), and sign questions are settled by interval bisection.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


def _p(t: Fraction) -> Fraction:
    return 2 * t * t * t - t * t - t - 1


def _check_irreducible() -> None:
    # A cubic over Q is reducible iff it has a rational root; candidates
    # p/q must have p | 1 and q | 2.
    for cand in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)):
        if _p(cand) == 0:
            raise RuntimeError("defining cubic has a rational root")


_check_irreducible()

# Bracketing interval for alpha; p is increasing on it.
_ALPHA_LO = Fraction(1233751, 1000000)
_ALPHA_HI = Fraction(1233752, 1000000)
assert _p(_ALPHA_LO) < 0 < _p(_ALPHA_HI)


@total_ordering
class AlgebraicValue:
    """An element c0 + c1*alpha + c2*alpha^2 of Q(alpha)."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0=0, c1=0, c2=0):
        self.c0 = Fraction(c0)
        self.c1 = Fraction(c1)
        self.c2 = Fraction(c2)

    @classmethod
    def from_int(cls, n: int) -> "AlgebraicValue":
        return cls(n, 0, 0)

    def coefficients(self):
        return (self.c0, self.c1, self.c2)

    def __repr__(self):
        return f"AlgebraicValue({self.c0!r}, {self.c1!r}, {self.c2!r})"

    def __str__(self):
        return f"{self.c0} + {self.c1}α + {self.c2}α²"

    def __hash__(self):
        # a rational value equals its Fraction or int, so it hashes alike
        if self.c1 == 0 and self.c2 == 0:
            return hash(self.c0)
        return hash((self.c0, self.c1, self.c2))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return AlgebraicValue(self.c0 + other.c0, self.c1 + other.c1,
                              self.c2 + other.c2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return AlgebraicValue(self.c0 - other.c0, self.c1 - other.c1,
                              self.c2 - other.c2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return AlgebraicValue(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a0, a1, a2 = self.c0, self.c1, self.c2
        b0, b1, b2 = other.c0, other.c1, other.c2
        # Convolution, then rewrite alpha^3 = (1 + alpha + alpha^2)/2 and
        # alpha^4 = alpha * alpha^3.
        d0, d1, d2 = a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0
        d3, d4 = a1 * b2 + a2 * b1, a2 * b2
        half = Fraction(1, 2)
        # alpha^4 = (alpha + alpha^2 + alpha^3)/2 = (1/4) + (3/4)alpha + (3/4)alpha^2
        d0 += d3 * half + d4 * Fraction(1, 4)
        d1 += d3 * half + d4 * Fraction(3, 4)
        d2 += d3 * half + d4 * Fraction(3, 4)
        return AlgebraicValue(d0, d1, d2)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self.c0 == other.c0 and self.c1 == other.c1
                and self.c2 == other.c2)

    def __lt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def sign(self) -> int:
        """Exact sign of the real number this value denotes."""
        if self.c0 == 0 and self.c1 == 0 and self.c2 == 0:
            return 0
        lo, hi = _ALPHA_LO, _ALPHA_HI
        while True:
            vlo, vhi = self._interval(lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            mid = (lo + hi) / 2
            # p is increasing here, so p(mid) < 0 puts alpha above mid.
            if _p(mid) < 0:
                lo = mid
            else:
                hi = mid

    def _interval(self, lo: Fraction, hi: Fraction):
        # Interval extension of c0 + c1*t + c2*t^2 for t in [lo, hi],
        # 0 < lo <= hi, term by term.
        vlo = vhi = self.c0
        for c, tlo, thi in ((self.c1, lo, hi), (self.c2, lo * lo, hi * hi)):
            if c >= 0:
                vlo += c * tlo
                vhi += c * thi
            else:
                vlo += c * thi
                vhi += c * tlo
        return vlo, vhi

    def __float__(self):
        a = _ALPHA_FLOAT
        return float(self.c0) + float(self.c1) * a + float(self.c2) * a * a


def _coerce(value):
    if isinstance(value, AlgebraicValue):
        return value
    if isinstance(value, (int, Fraction)):
        return AlgebraicValue(value, 0, 0)
    return None


def _alpha_float() -> float:
    lo, hi = float(_ALPHA_LO), float(_ALPHA_HI)
    for _ in range(60):
        mid = (lo + hi) / 2
        if 2 * mid**3 - mid**2 - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


_ALPHA_FLOAT = _alpha_float()

ALPHA = AlgebraicValue(0, 1, 0)

# Letter weights: gamma_b = 2 and the others are forced by
#   gamma_a + gamma_b = alpha*(gamma_a + gamma_c)
#   gamma_a + gamma_c = alpha*(gamma_a + gamma_d)
#   gamma_a + gamma_d = alpha*gamma_b
GAMMA_A = AlgebraicValue(-1, 1, 1)
GAMMA_B = AlgebraicValue(2, 0, 0)
GAMMA_C = AlgebraicValue(1, -1, 1)
GAMMA_D = AlgebraicValue(1, 1, -1)
