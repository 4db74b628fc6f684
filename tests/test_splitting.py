"""Sections, factor decomposition and the norm contraction bounds."""

import random

import pytest

from grigorchuk.algebraic import ALPHA, GAMMA_A
from grigorchuk.splitting import split, split_shifted
from grigorchuk.word_problem import equal
from grigorchuk.words import (a_parity, enumerate_reduced, is_reduced, norm,
                              random_reduced_word, reduce_word)


def factor_decomposition(word):
    """Factors of an even reduced word, each "u" or "aua" with u in
    {b, c, d}; their concatenation is the word itself.  The walk the
    section substitution stands for, kept as a reference."""
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    if a_parity(word) != 0:
        raise ValueError("word must have even a-parity")
    factors = []
    i = 0
    while i < len(word):
        # alternation plus even parity guarantee the full triple
        step = 3 if word[i] == "a" else 1
        factors.append(word[i:i + step])
        i += step
    return factors


def test_factor_decomposition():
    assert factor_decomposition("") == []
    assert factor_decomposition("b") == ["b"]
    assert factor_decomposition("aba") == ["aba"]
    assert factor_decomposition("badabada") == ["b", "ada", "b", "ada"]
    assert factor_decomposition("abacada") == ["aba", "c", "ada"]
    rng = random.Random(0)
    for _ in range(500):
        w = random_reduced_word(rng, 2 * rng.randrange(0, 12))
        if a_parity(w) != 0:
            continue
        factors = factor_decomposition(w)
        assert "".join(factors) == w
        for f in factors:
            assert (len(f) == 1 and f in "bcd") or (
                len(f) == 3 and f[0] == f[2] == "a" and f[1] in "bcd")


def test_factor_decomposition_errors():
    with pytest.raises(ValueError):
        factor_decomposition("ab")    # odd parity
    with pytest.raises(ValueError):
        factor_decomposition("bb")    # not reduced


def test_split_generator_table():
    assert split("b") == ("a", "c")
    assert split("c") == ("a", "d")
    assert split("d") == ("", "b")
    assert split("aba") == ("c", "a")
    assert split("aca") == ("d", "a")
    assert split("ada") == ("b", "")
    assert split("") == ("", "")
    assert split("badabada") == ("abab", "")


def test_split_parity_errors():
    with pytest.raises(ValueError):
        split("a")
    with pytest.raises(ValueError):
        split_shifted("b")
    assert split_shifted("a") == ("", "")
    assert split_shifted("ab") == ("c", "a")


def test_split_shifted_examples():
    # sections of w*a
    assert split_shifted("a") == split("")
    assert split_shifted("ab") == split("aba")
    assert split_shifted("bad") == split(reduce_word("bada"))
    assert split_shifted("bad") == ("ab", "c")


def test_split_is_a_homomorphism_on_sections():
    rng = random.Random(1)
    for _ in range(400):
        u = random_reduced_word(rng, rng.randrange(0, 16))
        v = random_reduced_word(rng, rng.randrange(0, 16))
        if a_parity(u) != 0 or a_parity(v) != 0:
            continue
        u0, u1 = split(u)
        v0, v1 = split(v)
        w0, w1 = split(reduce_word(u + v))
        assert equal(w0, u0 + v0)
        assert equal(w1, u1 + v1)


def test_conjugation_by_a_swaps_sections():
    rng = random.Random(2)
    for _ in range(400):
        w = random_reduced_word(rng, 2 * rng.randrange(0, 10))
        if a_parity(w) != 0:
            continue
        w0, w1 = split(w)
        s0, s1 = split(reduce_word("a" + w + "a"))
        assert (s0, s1) == (w1, w0)


def test_section_length_bounds():
    # exhaustive short words plus random longer ones
    rng = random.Random(3)
    cases = [w for w in enumerate_reduced(12)]
    cases += [random_reduced_word(rng, rng.randrange(13, 200))
              for _ in range(2000)]
    for w in cases:
        if a_parity(w) == 0:
            w0, w1 = split(w)
            assert 2 * len(w0) <= len(w) + 1
            assert 2 * len(w1) <= len(w) + 1
            if w.startswith("a"):
                assert 2 * len(w0) <= len(w)
                assert 2 * len(w1) <= len(w)
        else:
            shifted = reduce_word(w + "a")
            w0, w1 = split_shifted(w)
            assert 2 * len(w0) <= len(shifted) + 1
            assert 2 * len(w1) <= len(shifted) + 1


def _shape_case(w):
    """Dispatch the contraction case by the first and last letter."""
    first_a = w[0] == "a"
    last_a = w[-1] == "a"
    if first_a and last_a:
        return "aa"
    if first_a or last_a:
        return "edge-a"
    return "stars"


def test_norm_contraction_shapes_exact():
    # for even nonempty reduced words: with s = norm(w0) + norm(w1),
    #   one end 'a':    alpha*s <= norm(w)
    #   neither end:    alpha*s <= norm(w) + norm(a)
    #   both ends 'a':  alpha*s <= norm(w) - norm(a)
    rng = random.Random(4)
    cases = [w for w in enumerate_reduced(12, min_len=1)]
    for _ in range(3000):
        w = random_reduced_word(rng, rng.randrange(2, 120))
        cases.append(w)
    checked = {"aa": 0, "edge-a": 0, "stars": 0}
    for w in cases:
        if not w or a_parity(w) != 0:
            continue
        w0, w1 = split(w)
        s = norm(w0) + norm(w1)
        case = _shape_case(w)
        checked[case] += 1
        if case == "edge-a":
            assert (ALPHA * s - norm(w)).sign() <= 0
        elif case == "stars":
            assert (ALPHA * s - norm(w) - GAMMA_A).sign() <= 0
        else:
            assert (ALPHA * s - norm(w) + GAMMA_A).sign() <= 0
    assert all(v > 50 for v in checked.values())


def test_norm_contraction_corollary_all_words():
    # any parity, via the parity-dispatched sections
    rng = random.Random(5)
    cases = [w for w in enumerate_reduced(12, min_len=1)]
    cases += [random_reduced_word(rng, rng.randrange(1, 200))
              for _ in range(2000)]
    for w in cases:
        w0, w1 = split(w) if a_parity(w) == 0 else split_shifted(w)
        s = norm(w0) + norm(w1)
        assert (ALPHA * s - norm(w) - GAMMA_A).sign() <= 0


def test_contraction_ratios():
    # norm >= 9 forces 100*norm(w) >= 103*s; norm >= 200 forces >= 122*s
    rng = random.Random(6)
    cases = [w for w in enumerate_reduced(12, min_len=1)]
    cases += [random_reduced_word(rng, rng.randrange(1, 300))
              for _ in range(2000)]
    seen_big = 0
    for w in cases:
        w0, w1 = split(w) if a_parity(w) == 0 else split_shifted(w)
        s = norm(w0) + norm(w1)
        nw = norm(w)
        if (nw - 9).sign() >= 0:
            assert (100 * nw - 103 * s).sign() >= 0
        if (nw - 200).sign() >= 0:
            seen_big += 1
            assert (100 * nw - 122 * s).sign() >= 0
    assert seen_big > 100


def test_splitting_identities_of_k_generators():
    # three even words whose sections are the normal generators of K
    w1 = reduce_word("badabada")
    assert split(w1) == ("abab", "")

    w2 = reduce_word("badab" + "aca" + "badab" + "aca")
    s0, s1 = split(w2)
    assert equal(s0, "abadabad") and equal(s1, "")

    w3 = reduce_word("c" + "badab" + "aca" + "badab" + "aca" + "c")
    s0, s1 = split(w3)
    assert equal(s0, "badabada") and equal(s1, "")
