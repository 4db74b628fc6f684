"""Exact arithmetic in Q(alpha), where 2*alpha^3 = alpha^2 + alpha + 1.

alpha is the unique real root of p(x) = 2x^3 - x^2 - x - 1, about
1.2337519.  A value c0 + c1*alpha + c2*alpha^2 is stored as integers
(n0, n1, n2) over one integer den > 0, all four coprime, so equal values
are stored alike.  Arithmetic uses the defining relation only in _shift,
which maps x to 2*alpha*x.  The product is built on it, and so is the sign:
det[x | 2*alpha*x | 4*alpha^2*x] is a positive multiple of the field
norm N(x) = x(alpha) * |x(beta)|^2, beta a complex root of p.  As p is
irreducible with one real root (both checked at import), x(beta) != 0
for x != 0, so sign(x) = sign(N(x)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering, wraps
from math import gcd, lcm


def _p(t):
    return 2 * t * t * t - t * t - t - 1


def _check_irreducible() -> None:
    # A cubic over Q is reducible iff it has a rational root; candidates
    # p/q must have p | 1 and q | 2.
    for cand in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)):
        if _p(cand) == 0:
            raise RuntimeError("defining cubic has a rational root")
    # sign() needs the other two roots non-real: a negative discriminant
    a, b, c, d = 2, -1, -1, -1
    if 18*a*b*c*d - 4*b**3*d + (b*c)**2 - 4*a*c**3 - 27*(a*d)**2 >= 0:
        raise RuntimeError("defining cubic has three real roots")


_check_irreducible()


def _shift(n0, n1, n2):
    """The integers of 2*alpha*x from those of x, by the defining
    relation 2*alpha^3 = 1 + alpha + alpha^2."""
    return n2, 2 * n0 + n2, 2 * n1 + n2


def _value(n0, n1, n2, den):
    """The value (n0 + n1*alpha + n2*alpha^2) / den, for den > 0."""
    g = gcd(n0, n1, n2, den)
    x = object.__new__(AlgebraicValue)
    x._ints = (n0 // g, n1 // g, n2 // g, den // g)
    return x


def _coerced(op):
    """The method op(self, other) with an int or Fraction other made an
    AlgebraicValue first, and NotImplemented for other types."""
    @wraps(op)
    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraicValue(other)
        elif not isinstance(other, AlgebraicValue):
            return NotImplemented
        return op(self, other)
    return method


@total_ordering
class AlgebraicValue:
    """An element c0 + c1*alpha + c2*alpha^2 of Q(alpha)."""

    __slots__ = ("_ints",)

    def __init__(self, c0=0, c1=0, c2=0):
        for c in (c0, c1, c2):
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or Fraction")
        # each c is in lowest terms, so the four integers are coprime
        den = lcm(c0.denominator, c1.denominator, c2.denominator)
        self._ints = tuple(c.numerator * (den // c.denominator)
                           for c in (c0, c1, c2)) + (den,)

    @classmethod
    def from_int(cls, n: int) -> "AlgebraicValue":
        return cls(n, 0, 0)

    def coefficients(self):
        n0, n1, n2, den = self._ints
        return Fraction(n0, den), Fraction(n1, den), Fraction(n2, den)

    c0 = property(lambda self: self.coefficients()[0])
    c1 = property(lambda self: self.coefficients()[1])
    c2 = property(lambda self: self.coefficients()[2])

    def __repr__(self):
        return "AlgebraicValue({!r}, {!r}, {!r})".format(*self.coefficients())

    def __str__(self):
        return "{} + {}α + {}α²".format(*self.coefficients())

    def __hash__(self):
        n0, n1, n2, den = self._ints
        # a rational value equals its Fraction or int, so it hashes alike
        return hash(self._ints if n1 or n2 else Fraction(n0, den))

    @_coerced
    def __add__(self, other):
        a0, a1, a2, da = self._ints
        b0, b1, b2, db = other._ints
        return _value(a0 * db + b0 * da, a1 * db + b1 * da,
                      a2 * db + b2 * da, da * db)

    __radd__ = __add__

    @_coerced
    def __sub__(self, other):
        return self + -other

    @_coerced
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        n0, n1, n2, den = self._ints
        return _value(-n0, -n1, -n2, den)

    @_coerced
    def __mul__(self, other):
        a0, a1, a2, da = self._ints
        b0, b1, b2, db = other._ints
        s0, s1, s2 = _shift(b0, b1, b2)
        t0, t1, t2 = _shift(s0, s1, s2)
        # 4ab = 4*a0*b + 2*a1*(2*alpha*b) + a2*(4*alpha^2*b)
        return _value(4 * a0 * b0 + 2 * a1 * s0 + a2 * t0,
                      4 * a0 * b1 + 2 * a1 * s1 + a2 * t1,
                      4 * a0 * b2 + 2 * a1 * s2 + a2 * t2, 4 * da * db)

    __rmul__ = __mul__

    @_coerced
    def __eq__(self, other):
        return self._ints == other._ints

    @_coerced
    def __lt__(self, other):
        return (self - other).sign() < 0

    def sign(self) -> int:
        """Exact sign of the real number this value denotes: the sign of
        det[x | 2*alpha*x | 4*alpha^2*x], a positive multiple of the
        field norm (see the module docstring)."""
        x0, x1, x2, _ = self._ints
        y0, y1, y2 = _shift(x0, x1, x2)
        z0, z1, z2 = _shift(y0, y1, y2)
        det = (x0 * (y1 * z2 - y2 * z1) - y0 * (x1 * z2 - x2 * z1)
               + z0 * (x1 * y2 - x2 * y1))
        return (det > 0) - (det < 0)

    def __float__(self):
        # coefficient by coefficient: the integers alone can overflow a float
        c0, c1, c2 = self.coefficients()
        a = _ALPHA_FLOAT
        return float(c0) + float(c1) * a + float(c2) * a * a


def _alpha_float() -> float:
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if _p(mid) < 0:
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
