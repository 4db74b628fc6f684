"""Level-one sections of even words, computed by letter substitution.

A reduced word of even a-parity fixes both level-one subtrees, so it
factors through the pair of its sections (w0, w1).  Scanning left to
right, an even reduced word decomposes uniquely into factors that are
either a single letter from {b, c, d} or a conjugated triple "a?a"; the
sections are obtained by substituting each factor's pair of section
letters and reducing.

Substitution table (single letter -> (w0 part, w1 part)):
    b -> (a, c)      aba -> (c, a)
    c -> (a, d)      aca -> (d, a)
    d -> (1, b)      ada -> (b, 1)

Odd words do not fix the subtrees; split_shifted first multiplies by
'a' on the right to land in the even case.
"""

from __future__ import annotations

from .words import a_parity, is_reduced, join_reduced, reduce_word

# Section letters of each factor as translation tables: a lower-case
# star stands for a single-letter factor u, an upper-case one for a
# conjugated triple "a u a", which swaps the two entries.
_SUB0 = str.maketrans({"b": "a", "c": "a", "d": None,
                       "B": "c", "C": "d", "D": "b"})
_SUB1 = str.maketrans({"b": "c", "c": "d", "d": "b",
                       "B": "a", "C": "a", "D": None})


def _check(word: str, parity: int) -> None:
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    if a_parity(word) != parity:
        raise ValueError(
            f"word must have {'odd' if parity else 'even'} a-parity")


def split(word: str) -> tuple[str, str]:
    """Sections (w0, w1) of a reduced word of even a-parity."""
    _check(word, 0)
    return tuple(map(reduce_word, _sections(word)))


def _sections(word: str) -> tuple[str, str]:
    """The section strings of an even reduced word before reduction,
    which keeps their a-parities."""
    # The stars alternate between single-letter factors and the middles
    # of "a?a" factors, starting with a middle when the word begins
    # with 'a'.  Middles are marked upper case, so one translation per
    # section substitutes every factor in place.
    lead = 1 if word.startswith("a") else 0
    stars = word[lead::2]
    marked = bytearray(stars.upper(), "ascii")
    marked[lead::2] = stars[lead::2].encode("ascii")
    factors = marked.decode("ascii")
    return factors.translate(_SUB0), factors.translate(_SUB1)


def split_shifted(word: str) -> tuple[str, str]:
    """Sections of word*a for a reduced word of odd a-parity."""
    _check(word, 1)
    return tuple(map(reduce_word, _sections(join_reduced(word, "a"))))
