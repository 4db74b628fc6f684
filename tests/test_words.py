"""Reduction, parity, norms and cyclic normalization."""

import random

import pytest

from grigorchuk.algebraic import GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D
from grigorchuk.words import (WordError, a_parity, compare_norm,
                              cyclic_normalize, display, enumerate_reduced,
                              inverse, is_reduced, letter_counts, norm,
                              parse_word, random_reduced_word, reduce_word)


def test_parse_and_display():
    assert parse_word("1") == ""
    assert parse_word("") == ""
    assert parse_word("abdc") == "abdc"
    assert display("") == "1"
    assert display("ab") == "ab"
    with pytest.raises(WordError):
        parse_word("abe")
    with pytest.raises(WordError):
        parse_word("A")


def test_reduce_examples():
    assert reduce_word("") == ""
    assert reduce_word("aa") == ""
    assert reduce_word("bc") == "d"
    assert reduce_word("cb") == "d"
    assert reduce_word("bd") == "c"
    assert reduce_word("cd") == "b"
    assert reduce_word("bcd") == ""
    assert reduce_word("abba") == ""
    assert reduce_word("abcd") == "a"
    assert reduce_word("badabada") == "badabada"
    # cascade: merging can enable further cancellation
    assert reduce_word("bdc") == ""    # bd -> c, then cc cancels
    assert reduce_word("dbdc") == "d"  # db -> c, cd -> b, bc -> d
    assert reduce_word("adbdca") == "ada"
    assert reduce_word("abdca") == ""   # bd -> c, cc cancels, aa cancels


def test_is_reduced_rejects_foreign_letters():
    # "1" is the identity only to parse_word, not a letter
    for word in ("1", "x", "ax", "abxa", "bbx", "aax"):
        with pytest.raises(WordError):
            is_reduced(word)
        with pytest.raises(WordError, match="invalid letter"):
            reduce_word(word)


def test_reduced_words_alternate():
    rng = random.Random(0)
    for _ in range(500):
        raw = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 40)))
        w = reduce_word(raw)
        assert is_reduced(w)
        assert reduce_word(w) == w
        for x, y in zip(w, w[1:]):
            assert (x == "a") != (y == "a")


def test_reduction_confluence_random_rewrites():
    # applying any valid single rewrite first never changes the normal
    # form
    rng = random.Random(1)
    merge = {frozenset("bc"): "d", frozenset("bd"): "c", frozenset("cd"): "b"}
    trials = 100000
    for _ in range(trials):
        s = [rng.choice("abcd") for _ in range(rng.randrange(2, 14))]
        target = reduce_word("".join(s))
        for _ in range(rng.randrange(1, 4)):
            sites = [i for i in range(len(s) - 1)
                     if s[i] == s[i + 1]
                     or (s[i] in "bcd" and s[i + 1] in "bcd")]
            if not sites:
                break
            i = rng.choice(sites)
            if s[i] == s[i + 1]:
                del s[i:i + 2]
            else:
                s[i:i + 2] = [merge[frozenset((s[i], s[i + 1]))]]
        assert reduce_word("".join(s)) == target


def test_inverse():
    rng = random.Random(2)
    for _ in range(500):
        w = random_reduced_word(rng, rng.randrange(0, 30))
        assert reduce_word(w + inverse(w)) == ""
        assert reduce_word(inverse(w) + w) == ""
        assert inverse(inverse(w)) == w


def test_parity_and_counts():
    assert a_parity("") == 0
    assert a_parity("a") == 1
    assert a_parity("aba") == 0
    assert letter_counts("abcdba") == (2, 2, 1, 1)
    # parity is a homomorphism
    rng = random.Random(3)
    for _ in range(300):
        u = random_reduced_word(rng, rng.randrange(0, 20))
        v = random_reduced_word(rng, rng.randrange(0, 20))
        assert a_parity(reduce_word(u + v)) == (a_parity(u) + a_parity(v)) % 2


def test_norm_exact():
    assert norm("") == 0
    assert norm("a") == GAMMA_A
    assert norm("abcd") == GAMMA_A + GAMMA_B + GAMMA_C + GAMMA_D
    assert norm("abab") == 2 * GAMMA_A + 2 * GAMMA_B
    assert compare_norm("d", "c") == -1
    assert compare_norm("c", "a") == -1
    assert compare_norm("a", "b") == -1
    assert compare_norm("b", "cd") == 0


def test_counts_and_norms_reject_foreign_letters():
    for word in ("abx", "1", "x" * 4):
        with pytest.raises(WordError):
            letter_counts(word)
        with pytest.raises(WordError):
            norm(word)
        with pytest.raises(WordError):
            compare_norm("ab", word)


def test_reduction_never_increases_norm():
    rng = random.Random(4)
    for _ in range(2000):
        raw = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 24)))
        assert (norm(reduce_word(raw)) - norm(raw)).sign() <= 0


def test_cyclic_normalize_postcondition():
    for w in enumerate_reduced(10, min_len=1):
        if a_parity(w) != 0:
            continue
        nw, g = cyclic_normalize(w)
        assert len(nw) <= len(w)
        assert reduce_word(inverse(g) + w + g) == nw
        assert len(nw) <= 1 or (nw[0] == "a" and nw[-1] != "a")


def test_cyclic_normalize_errors():
    with pytest.raises(ValueError):
        cyclic_normalize("ab")     # odd parity
    with pytest.raises(ValueError):
        cyclic_normalize("")       # empty
    with pytest.raises(ValueError):
        cyclic_normalize("bb")     # not reduced


def test_enumerate_reduced_counts():
    words = enumerate_reduced(7)
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert is_reduced(w)
    assert by_len == {0: 1, 1: 4, 2: 6, 3: 12, 4: 18, 5: 36, 6: 54, 7: 108}
    assert len(set(words)) == len(words)
    assert enumerate_reduced(3, min_len=2) == sorted(
        enumerate_reduced(3, min_len=2), key=lambda w: (len(w), w))


def test_random_reduced_word():
    rng = random.Random(5)
    for n in (0, 1, 2, 7, 40, 101):
        for _ in range(20):
            w = random_reduced_word(rng, n)
            assert len(w) == n
            assert is_reduced(w)
