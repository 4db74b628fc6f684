"""Exact field arithmetic and ordering.

The hypothesis tests hold the integer representation and the field-norm
sign against the plain methods they replaced: interval bisection on the
defining cubic for the sign, and the Fraction convolution with alpha^3
and alpha^4 written out for the product.
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grigorchuk.algebraic import (ALPHA, GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D,
                                  AlgebraicValue, _p)

_DENOMINATORS = (1, 2, 3, 4, 7, 1000, 2**20)


def _alpha_brackets():
    """Brackets [lo, hi] of alpha, halved at each step by bisection on
    [1, 2], where p is increasing."""
    lo, hi = Fraction(1), Fraction(2)
    while True:
        yield lo, hi
        mid = (lo + hi) / 2
        if _p(mid) < 0:
            lo = mid
        else:
            hi = mid


_ALPHA_NEAR = next(islice(_alpha_brackets(), 100, None))[0]

coefficients = st.builds(Fraction, st.integers(-10**12, 10**12),
                         st.sampled_from(_DENOMINATORS))


@st.composite
def near_zero(draw):
    """c0 + c1*alpha + c2*alpha^2 with c0 the nearest multiple of 10^-9
    to -(c1*alpha + c2*alpha^2), so the value is within 10^-9 of 0."""
    c1, c2 = draw(coefficients), draw(coefficients)
    c0 = Fraction(round(-(c1 + c2 * _ALPHA_NEAR) * _ALPHA_NEAR * 10**9),
                  10**9)
    return c0, c1, c2


triples = st.tuples(coefficients, coefficients, coefficients) | near_zero()


def _reference_sign(c0, c1, c2):
    """Bisect a bracket of alpha until the interval of values of
    c0 + c1*t + c2*t^2 over it excludes 0 (t > 0, term by term)."""
    if c0 == c1 == c2 == 0:
        return 0
    for lo, hi in _alpha_brackets():
        ends = [(c0, c0), sorted((c1 * lo, c1 * hi)),
                sorted((c2 * lo * lo, c2 * hi * hi))]
        if sum(low for low, _ in ends) > 0:
            return 1
        if sum(high for _, high in ends) < 0:
            return -1


def _reference_product(a, b):
    """Fraction convolution, then alpha^3 = (1 + alpha + alpha^2)/2 and
    alpha^4 = 1/4 + (3/4)alpha + (3/4)alpha^2."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    d0, d1, d2 = a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0
    d3, d4 = a1 * b2 + a2 * b1, a2 * b2
    return (d0 + d3 / 2 + d4 / 4, d1 + d3 / 2 + 3 * d4 / 4,
            d2 + d3 / 2 + 3 * d4 / 4)


def test_defining_cubic_has_no_rational_root():
    for cand in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)):
        assert _p(cand) != 0


def test_alpha_satisfies_the_cubic():
    assert 2 * ALPHA * ALPHA * ALPHA == ALPHA * ALPHA + ALPHA + 1


def test_arithmetic():
    x = AlgebraicValue(1, 1, 0)
    assert x * x == AlgebraicValue(1, 2, 1)
    assert x - x == AlgebraicValue(0, 0, 0)
    assert -x + x == 0
    assert 2 * x == AlgebraicValue(2, 2, 0)
    assert x * Fraction(1, 2) == AlgebraicValue(Fraction(1, 2),
                                                Fraction(1, 2), 0)
    # alpha^2 * alpha^2 exercises the alpha^4 reduction
    sq = ALPHA * ALPHA
    assert sq * sq == ALPHA * (ALPHA * sq)


def test_ordering_is_exact():
    assert ALPHA > 1
    assert ALPHA < 2
    assert AlgebraicValue(Fraction(1233751, 1000000)) < ALPHA
    assert ALPHA < AlgebraicValue(Fraction(1233752, 1000000))
    assert GAMMA_D < GAMMA_C < GAMMA_A < GAMMA_B
    assert sorted([GAMMA_B, GAMMA_D, GAMMA_A, GAMMA_C]) == [
        GAMMA_D, GAMMA_C, GAMMA_A, GAMMA_B]


def test_sign():
    assert AlgebraicValue(0, 0, 0).sign() == 0
    assert (GAMMA_A - GAMMA_C).sign() == 1
    assert (GAMMA_D - GAMMA_C).sign() == -1
    # a value with mixed-sign coefficients close to zero
    assert (ALPHA * ALPHA - ALPHA - Fraction(288, 1000)).sign() == 1
    assert (ALPHA * ALPHA - ALPHA - Fraction(289, 1000)).sign() == -1


def test_weight_identities_exact():
    assert GAMMA_A + GAMMA_B == ALPHA * (GAMMA_A + GAMMA_C)
    assert GAMMA_A + GAMMA_C == ALPHA * (GAMMA_A + GAMMA_D)
    assert GAMMA_A + GAMMA_D == ALPHA * GAMMA_B
    assert GAMMA_C + GAMMA_D == GAMMA_B


def test_weight_numeric_windows():
    assert 1.2337 < float(ALPHA) < 1.2338
    assert 1.7558 < float(GAMMA_A) < 1.7560
    assert float(GAMMA_B) == 2.0
    assert 1.2883 < float(GAMMA_C) < 1.2885
    assert 0.7115 < float(GAMMA_D) < 0.7117
    assert all(float(g) > 0 for g in (GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D))


def test_hash_consistent_with_eq():
    assert hash(AlgebraicValue(1, 2, 3)) == hash(AlgebraicValue(1, 2, 3))
    assert AlgebraicValue(2, 0, 0) == 2
    assert {AlgebraicValue(1, 0, 0), AlgebraicValue(1, 0, 0)} == {
        AlgebraicValue(1, 0, 0)}
    assert hash(AlgebraicValue(2)) == hash(2)
    assert 2 in {AlgebraicValue(2)}
    assert Fraction(1, 2) in {AlgebraicValue(Fraction(1, 2))}


def test_str_format():
    assert str(GAMMA_B) == "2 + 0α + 0α²"
    assert str(GAMMA_A) == "-1 + 1α + 1α²"


@settings(max_examples=300, deadline=None)
@given(triples)
def test_sign_matches_bisection(c):
    assert AlgebraicValue(*c).sign() == _reference_sign(*c)


@settings(max_examples=200, deadline=None)
@given(triples, triples)
def test_product_matches_fraction_convolution(a, b):
    assert (AlgebraicValue(*a) * AlgebraicValue(*b)).coefficients() == \
        _reference_product(a, b)


@settings(max_examples=200, deadline=None)
@given(triples)
def test_equal_values_are_stored_alike(c):
    x = AlgebraicValue(*c)
    halved = AlgebraicValue(*(2 * ci for ci in c)) * Fraction(1, 2)
    assert halved == x
    assert hash(halved) == hash(x)
    assert halved.coefficients() == x.coefficients() == c
    assert x - x == 0
    assert hash(x - x) == hash(0)


def test_float_of_huge_coefficients():
    x = AlgebraicValue(Fraction(10**400 + 1, 3 * 10**399), 1)
    assert 4.567 < float(x) < 4.568


@pytest.mark.parametrize("coefficients", [
    (0.1,), ("1/3",), (1, 0.5), (1, 0, None)])
def test_constructor_takes_only_ints_and_fractions(coefficients):
    with pytest.raises(TypeError):
        AlgebraicValue(*coefficients)
