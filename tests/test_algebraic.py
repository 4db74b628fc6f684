"""Exact field arithmetic and ordering."""

from fractions import Fraction

from grigorchuk.algebraic import (ALPHA, GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D,
                                  AlgebraicValue, _p)


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
