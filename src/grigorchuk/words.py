"""Words over {a, b, c, d} and their canonical reduced forms.

The four letters are involutions and b, c, d commute with each other,
with the product of any two distinct ones equal to the third.  Rewriting
with xx -> empty and rs -> t (r, s, t distinct among b, c, d) is
confluent, and a reduced word strictly alternates 'a' with the stars
b, c, d.  is_reduced tests that alternation on the two interleaved
letter slices, and reduce_word returns a word that passes it as it is.
In a product of two reduced words only the seam can rewrite:
join_reduced cancels equal letters across it and merges at most one
pair of stars.  The empty word is displayed as "1".
"""

from __future__ import annotations

import random
from itertools import permutations

from .algebraic import GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D, AlgebraicValue

LETTERS = "abcd"
STARS = "bcd"

# rs -> t for distinct r, s, t in {b, c, d}
_MERGE = {(r, s): t for r, s, t in permutations(STARS)}
_DROP_LETTERS = str.maketrans("", "", LETTERS)


class WordError(ValueError):
    """Raised when text cannot be parsed as a word."""


def parse_word(text: str) -> str:
    """Parse user input: "1" or "" denote the identity, otherwise the
    text must use only the letters a, b, c, d."""
    if text == "1" or text == "":
        return ""
    check_letters(text)
    return text


def check_letters(word: str) -> None:
    """Raise WordError if the word has a letter outside a-d."""
    foreign = word.translate(_DROP_LETTERS)
    if foreign:
        raise WordError(f"invalid letter {foreign[0]!r} in word {word!r}")


def display(word: str) -> str:
    return word if word else "1"


def reduce_word(word: str) -> str:
    """Canonical reduced form.  A reduced word is returned as it is;
    any other word takes a single left-to-right stack pass."""
    if is_reduced(word):
        return word
    out: list[str] = []
    for ch in word:
        while True:
            if not out:
                out.append(ch)
                break
            top = out[-1]
            if top == ch:
                out.pop()
                break
            merged = _MERGE.get((top, ch))
            if merged is None:
                out.append(ch)
                break
            # The merged letter may interact with the new top, so loop.
            out.pop()
            ch = merged
    return "".join(out)


def is_reduced(word: str) -> bool:
    """Whether the word alternates 'a' with stars; raises WordError on
    a letter outside a-d."""
    even, odd = word[0::2], word[1::2]
    if not (even.strip("a") or odd.strip(STARS)):
        return True
    if not (odd.strip("a") or even.strip(STARS)):
        return True
    check_letters(word)
    return False


def join_reduced(u: str, v: str) -> str:
    """Reduced form of u + v for reduced words u and v.  Only the seam
    can rewrite: equal letters cancel across it, then two different
    stars that meet there merge into the third, which sits between two
    'a' (or at an end) and stops the rewriting."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == v[k]:
        k += 1
    u, v = u[:len(u) - k], v[k:]
    merged = _MERGE.get((u[-1:], v[:1]))
    return u + v if merged is None else u[:-1] + merged + v[1:]


def inverse(word: str) -> str:
    """Inverse word: all generators are involutions, so just reverse."""
    return word[::-1]


def a_parity(word: str) -> int:
    """Number of 'a' letters mod 2.  Zero means the element fixes the
    two level-one subtrees setwise."""
    return word.count("a") % 2


def letter_counts(word: str):
    """Counts (n_a, n_b, n_c, n_d) of each letter; raises WordError on
    a letter outside a-d."""
    counts = (word.count("a"), word.count("b"), word.count("c"),
              word.count("d"))
    if sum(counts) != len(word):
        check_letters(word)
    return counts


def norm(word: str) -> AlgebraicValue:
    """Weighted length: each letter contributes its fixed positive
    weight.  Exact value in Q(alpha)."""
    na, nb, nc, nd = letter_counts(word)
    return na * GAMMA_A + nb * GAMMA_B + nc * GAMMA_C + nd * GAMMA_D


def compare_norm(u: str, v: str) -> int:
    """-1, 0 or 1 as the norm of u is below, equal to or above v's."""
    return (norm(u) - norm(v)).sign()


def cyclic_normalize(word: str):
    """Conjugate a reduced word of even a-parity into rotated normal
    form.

    Returns (normalized, g) with normalized == reduce(inverse(g) + word + g)
    and g a prefix of word.  The result either has length <= 1 or begins
    with 'a' and does not end with 'a'; rotation can shorten the word,
    never lengthen it.

    The word is g m inverse(g) for the longest g that leaves m a letter
    or a word with different end letters.  If m begins with a star s,
    one rotation by s more gives join_reduced(m[1:], s), which begins
    with 'a' and ends with a star.
    """
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    if a_parity(word) != 0:
        raise ValueError("word must have even a-parity")
    if not word:
        raise ValueError("word must be nonempty")
    k, n = 0, len(word)
    while n - 2 * k > 1 and word[k] == word[n - 1 - k]:
        k += 1
    m = word[k:n - k]
    if len(m) > 1 and m[0] != "a":
        return join_reduced(m[1:], m[0]), word[:k + 1]
    return m, word[:k]


def enumerate_reduced(max_len: int, min_len: int = 0):
    """All reduced words with min_len <= length <= max_len, in order of
    increasing length and lexicographically within a length."""
    result = []
    level = [""]
    if min_len == 0:
        result.append("")
    for _ in range(max_len):
        nxt = []
        for w in level:
            if not w or w[-1] in STARS:
                nxt.append(w + "a")
            if not w or w[-1] == "a":
                nxt.extend(w + s for s in STARS)
        nxt.sort()
        result.extend(w for w in nxt if len(w) >= min_len)
        level = nxt
    return result


def random_reduced_word(rng: random.Random, length: int) -> str:
    """Uniform reduced word of exactly the given length: pick one of the
    alternating shapes, then the {b, c, d} letters independently."""
    if length == 0:
        return ""
    starts_a = rng.random() < 0.5
    out = []
    for i in range(length):
        if (i % 2 == 0) == starts_a:
            out.append("a")
        else:
            out.append(rng.choice(STARS))
    word = "".join(out)
    assert is_reduced(word)
    return word
