"""Independent validation oracles: abelianization, witness search, sweep."""

import random

import pytest

from grigorchuk.conjugacy import are_conjugate
from grigorchuk.oracle import (abelian_image, conjugate_closure,
                               find_conjugator, validate_small_instances)
from grigorchuk.word_problem import equal
from grigorchuk.words import (WordError, inverse, random_reduced_word,
                              reduce_word)


def test_abelian_image_of_generators():
    assert abelian_image("") == (0, 0, 0)
    assert abelian_image("a") == (1, 0, 0)
    assert abelian_image("b") == (0, 1, 0)
    assert abelian_image("c") == (0, 0, 1)
    assert abelian_image("d") == (0, 1, 1)   # d = bc in the abelianization
    assert abelian_image("bc") == abelian_image("d")


def test_abelian_image_rejects_foreign_letters():
    for word in ("abx", "1"):
        with pytest.raises(WordError):
            abelian_image(word)


def test_abelian_image_is_a_homomorphism():
    rng = random.Random(0)
    for _ in range(500):
        u = random_reduced_word(rng, rng.randrange(0, 12))
        v = random_reduced_word(rng, rng.randrange(0, 12))
        pu, pv = abelian_image(u), abelian_image(v)
        prod = tuple((x + y) % 2 for x, y in zip(pu, pv))
        assert abelian_image(reduce_word(u + v)) == prod
        assert abelian_image(inverse(u)) == pu


def test_abelian_image_is_a_conjugacy_invariant():
    rng = random.Random(1)
    for _ in range(300):
        u = random_reduced_word(rng, rng.randrange(0, 10))
        x = random_reduced_word(rng, rng.randrange(0, 6))
        v = reduce_word(x + u + inverse(x))
        assert abelian_image(u) == abelian_image(v)


def test_find_conjugator_basics():
    assert find_conjugator("b", "b") == ""
    assert find_conjugator("b", "c", max_len=6) is None
    x = find_conjugator("ab", "ba", max_len=6)
    assert x is not None
    assert equal(reduce_word(inverse(x) + "ba" + x), "ab")


def test_find_conjugator_witnesses_are_valid():
    rng = random.Random(2)
    found = 0
    for _ in range(40):
        u = random_reduced_word(rng, rng.randrange(0, 5))
        g = random_reduced_word(rng, rng.randrange(0, 4))
        v = reduce_word(g + u + inverse(g))
        x = find_conjugator(u, v, max_len=5)
        if x is not None:
            found += 1
            assert equal(reduce_word(inverse(x) + v + x), u)
    assert found > 20


def test_conjugate_closure_contains_the_word():
    closure = conjugate_closure("b", 3)
    assert reduce_word("b") in closure
    assert all(are_conjugate("b", w) for w in closure)


def test_small_sweep_has_no_violations():
    report = validate_small_instances(max_word_len=3, witness_budget=12)
    assert report["violations"] == []
    assert report["pairs_checked"] > 100
    assert report["conjugate_pairs"] > 10
    assert report["max_word_len"] == 3
    assert report["witness_budget"] == 12
