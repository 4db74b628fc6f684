"""Tree action semantics and the triviality oracle."""

import random
from itertools import product

import pytest

from grigorchuk.splitting import split
from grigorchuk.tree_action import (apply_letter, apply_word,
                                    is_trivial_at_depth, oracle_depth)
from grigorchuk.words import a_parity, random_reduced_word, reduce_word


def _vertices(depth):
    return [format(v, f"0{depth}b") for v in range(1 << depth)]


def test_generator_actions():
    assert apply_word("a", "000") == "100"
    assert apply_word("a", "1") == "0"
    assert apply_word("b", "00") == "01"     # section a under 0 flips
    assert apply_word("b", "10") == "10"     # section c under 1 fixes level 2
    assert apply_word("b", "100") == "101"   # ...but flips at level 3
    assert apply_word("c", "00") == "01"
    assert apply_word("c", "10") == "10"     # section d under 1 fixes level 2
    assert apply_word("d", "01") == "01"     # section under 0 is the identity
    assert apply_word("d", "100") == "101"   # d under 1 acts as b
    assert apply_word("", "0110") == "0110"
    assert apply_word("b", "") == ""
    assert apply_word("b", "0") == "0"       # too shallow to see the flip


def test_long_vertices_are_walked_without_recursion():
    # along 1s the sections of b run b, c, d, b, ...; 4998 of them bring
    # b back to b, whose section a under the next 0 flips the last bit
    ones = "1" * 4998
    assert apply_word("b", ones + "00") == ones + "01"
    assert apply_word("d", ones + "00") == ones + "00"
    assert apply_word("ab", ones + "00") == "0" + ones[1:] + "01"
    assert apply_word("bcd", "1" * 5000) == "1" * 5000
    assert apply_word("b", "1" * 600) == "1" * 600


def test_letters_are_involutions():
    for depth in (1, 2, 3, 4, 5):
        for v in _vertices(depth):
            for x in "abcd":
                assert apply_letter(x, apply_letter(x, v)) == v


def test_bcd_relations_pointwise():
    for v in _vertices(6):
        assert apply_word("bc", v) == apply_word("d", v)
        assert apply_word("cd", v) == apply_word("b", v)
        assert apply_word("bd", v) == apply_word("c", v)


def test_action_is_a_homomorphism():
    rng = random.Random(0)
    for _ in range(10000):
        u = random_reduced_word(rng, rng.randrange(0, 10))
        v = random_reduced_word(rng, rng.randrange(0, 10))
        x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 8)))
        assert apply_word(u + v, x) == apply_word(u, apply_word(v, x))


def test_action_preserves_prefixes_and_length():
    rng = random.Random(1)
    for _ in range(2000):
        w = random_reduced_word(rng, rng.randrange(0, 14))
        v = "".join(rng.choice("01") for _ in range(8))
        img = apply_word(w, v)
        assert len(img) == len(v)
        assert apply_word(w, v[:4]) == img[:4]


def test_splitting_law_at_depth_8():
    rng = random.Random(2)
    for _ in range(10000):
        w = random_reduced_word(rng, 2 * rng.randrange(0, 13))
        if a_parity(w) != 0:
            continue
        w0, w1 = split(w)
        s = "".join(rng.choice("01") for _ in range(7))
        assert apply_word(w, "0" + s) == "0" + apply_word(w0, s)
        assert apply_word(w, "1" + s) == "1" + apply_word(w1, s)


def test_reduction_preserves_the_action():
    rng = random.Random(3)
    for _ in range(2000):
        raw = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 16)))
        v = "".join(rng.choice("01") for _ in range(7))
        assert apply_word(raw, v) == apply_word(reduce_word(raw), v)


def test_is_trivial_at_depth_matches_pointwise_check():
    rng = random.Random(4)
    for _ in range(300):
        w = random_reduced_word(rng, rng.randrange(0, 9))
        for depth in (1, 2, 3, 4):
            expected = all(apply_word(w, v) == v for v in _vertices(depth))
            assert is_trivial_at_depth(w, depth) == expected


def test_is_trivial_at_depth_known_words():
    assert is_trivial_at_depth("", 5)
    assert is_trivial_at_depth("adadadad", 10)
    assert is_trivial_at_depth("bcd", 8)
    assert not is_trivial_at_depth("abab", 10)
    assert not is_trivial_at_depth("d", 3)
    assert is_trivial_at_depth("d", 2)   # d is invisible above depth 3
    with pytest.raises(ValueError):
        is_trivial_at_depth("b", 0)


def test_is_trivial_at_depth_matches_level_permutations(level_perm_trivial):
    # all 5,461 words of up to 6 letters, against the numpy reference
    answers = set()
    for n in range(7):
        for letters in product("abcd", repeat=n):
            w = "".join(letters)
            for depth in (1, 2, 3, 5, 8):
                answer = is_trivial_at_depth(w, depth)
                assert answer == level_perm_trivial(w, depth), (w, depth)
                answers.add(answer)
    assert answers == {True, False}


def test_is_trivial_at_depth_matches_level_permutations_on_longer_words(
        level_perm_trivial):
    # the shortest nontrivial relators have 8 letters, (ac)^4 among them:
    # products of conjugated relators, and random words
    rng = random.Random(5)
    relators = ("aa", "bcd", "ad" * 4, "ac" * 4, "adacac" * 4)
    answers = set()
    for i in range(300):
        if i % 2:
            w = "".join(rng.choices("abcd", k=rng.randrange(60)))
        else:
            w = ""
            for _ in range(rng.randrange(1, 4)):
                x = "".join(rng.choices("abcd", k=rng.randrange(12)))
                w += x[::-1] + rng.choice(relators) + x
        for depth in (4, 8, 11):
            answer = is_trivial_at_depth(w, depth)
            assert answer == level_perm_trivial(w, depth), (w, depth)
            answers.add(answer)
    assert answers == {True, False}


def test_is_trivial_at_depth_far_below_any_level_permutation():
    # 2^64 vertices: the sections die out after a few levels
    assert is_trivial_at_depth("adadadad", 64)
    assert is_trivial_at_depth("abab" * 8, 64)
    assert not is_trivial_at_depth("abab" * 4, 64)
    assert not is_trivial_at_depth("d" + "bcd" * 1000, 64)


def test_oracle_depth():
    assert oracle_depth(1) == 5
    assert oracle_depth(2) == 5
    assert oracle_depth(8) == 7
    assert oracle_depth(1000) == 14
    for n in range(1, 300):
        assert oracle_depth(n + 1) >= oracle_depth(n)
