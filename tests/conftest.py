"""Shared fixtures."""

import sys

import pytest

from grigorchuk.conjugacy import ConjContext
from grigorchuk.tree_action import apply_letter
from grigorchuk.words import (LETTERS, a_parity, cyclic_core, is_reduced,
                              reduce_word)


def cyclic_normalize(word: str):
    """cyclic_core of a reduced word of even a-parity, after checking
    that the word is reduced, even and nonempty: the rotated normal form
    the word problem was first written on, kept as a reference.

    Returns (normalized, g) with normalized == reduce(inverse(g) + word + g)
    and g a prefix of word.  The result either has length <= 1 or begins
    with 'a' and does not end with 'a'; rotation can shorten the word,
    never lengthen it.
    """
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    if a_parity(word) != 0:
        raise ValueError("word must have even a-parity")
    if not word:
        raise ValueError("word must be nonempty")
    return cyclic_core(word)


@pytest.fixture
def reduced_letters(monkeypatch):
    """A one-element list counting the letters passed to reduce_word at
    every binding of it in the package."""
    letters = [0]

    def counting(word):
        letters[0] += len(word)
        return reduce_word(word)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "grigorchuk":
            if getattr(module, "reduce_word", None) is reduce_word:
                monkeypatch.setattr(module, "reduce_word", counting)
    return letters


@pytest.fixture(scope="session")
def raw_q_mask():
    """Q(u, v) as a mask by the S- and N-rules on raw pairs, with no
    cyclic core anywhere: a reference for the decision, which reads
    every pair below the root as the pair of its cores.  It runs
    ConjContext's _branch and _node_mask in one fresh context with a
    memo of its own, and hands _node_mask the child pairs as they are."""
    ctx = ConjContext()
    memo: dict[tuple[int, int], int] = {}

    def rec(key: tuple[int, int], onstack: set) -> int:
        if key not in memo:
            kind, pairs = ctx._branch(*key)
            if kind == "leaf-base":
                memo[key] = ctx.base_table[(ctx._words[key[0]],
                                            ctx._words[key[1]])]
            else:
                assert key not in onstack, "cyclic raw pair"
                onstack.add(key)
                memo[key] = ctx._node_mask(
                    *key, kind, pairs, lambda pair: rec(pair, onstack))
                onstack.discard(key)
        return memo[key]

    def q_mask(u: str, v: str) -> int:
        return rec((ctx.intern(reduce_word(u)), ctx.intern(reduce_word(v))),
                   set())

    return q_mask


@pytest.fixture(scope="session")
def level_perm_trivial():
    """is_trivial_at_depth by whole-level permutations: each letter's
    action on the 2^depth vertices of one level as a numpy array, built
    from apply_letter, and composed one letter at a time.  A reference
    for small depths only: it costs O(|word| 2^depth) and keeps every
    level it has built."""
    import numpy as np

    # depth -> {letter, or "" for the identity: its level permutation}
    perm_cache: dict[int, dict] = {}

    def _level_perms(depth: int) -> dict:
        perms = perm_cache.get(depth)
        if perms is None:
            count = 1 << depth
            perms = {"": np.arange(count, dtype=np.int64)}
            for letter in LETTERS:
                images = [
                    int(apply_letter(letter, format(v, f"0{depth}b")), 2)
                    for v in range(count)
                ]
                perms[letter] = np.array(images, dtype=np.int64)
            perm_cache[depth] = perms
        return perms

    def _identity_at_level(word: str, depth: int) -> bool:
        # an automorphism that fixes a level fixes every shallower one
        perms = _level_perms(depth)
        current = identity = perms[""]
        for letter in reversed(word):
            current = perms[letter][current]
        return bool((current == identity).all())

    return _identity_at_level
