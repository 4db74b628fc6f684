"""Shared fixtures."""

import sys

import pytest

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
