"""Shared fixtures."""

import sys

import pytest

from grigorchuk.conjugacy import ConjContext
from grigorchuk.words import reduce_word


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
