"""Words over {a, b, c, d} and their canonical reduced forms.

The four letters are involutions and b, c, d commute with each other,
with the product of any two distinct ones equal to the third.  Rewriting
with xx -> empty and rs -> t (r, s, t distinct among b, c, d) is
confluent, and a reduced word strictly alternates 'a' with letters from
{b, c, d}.  That alternation is how is_reduced tests a word: one of its
two interleaved letter slices must be all 'a' and the other all stars,
so no rewriting runs on words that are already reduced.  The empty word
is displayed as "1".
"""

from __future__ import annotations

import random

from .algebraic import GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D, AlgebraicValue

LETTERS = "abcd"
STARS = "bcd"

# rs -> t for distinct r, s in {b, c, d}
_MERGE = {
    ("b", "c"): "d", ("c", "b"): "d",
    ("b", "d"): "c", ("d", "b"): "c",
    ("c", "d"): "b", ("d", "c"): "b",
}


class WordError(ValueError):
    """Raised when text cannot be parsed as a word."""


def parse_word(text: str) -> str:
    """Parse user input: "1" or "" denote the identity, otherwise the
    text must use only the letters a, b, c, d."""
    if text == "1" or text == "":
        return ""
    for ch in text:
        if ch not in LETTERS:
            raise WordError(f"invalid letter {ch!r} in word {text!r}")
    return text


def display(word: str) -> str:
    return word if word else "1"


def reduce_word(word: str) -> str:
    """Canonical reduced form, via a single left-to-right stack pass."""
    out: list[str] = []
    for ch in word:
        if ch not in LETTERS:
            raise WordError(f"invalid letter {ch!r}")
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
    even, odd = word[0::2], word[1::2]
    if not (even.strip("a") or odd.strip(STARS)):
        return True
    if not (odd.strip("a") or even.strip(STARS)):
        return True
    # not alternating: reduce, which also rejects foreign letters
    return reduce_word(word) == word


def inverse(word: str) -> str:
    """Inverse word: all generators are involutions, so just reverse."""
    return word[::-1]


def a_parity(word: str) -> int:
    """Number of 'a' letters mod 2.  Zero means the element fixes the
    two level-one subtrees setwise."""
    return word.count("a") % 2


def letter_counts(word: str):
    """Counts (n_a, n_b, n_c, n_d) of each letter."""
    return (word.count("a"), word.count("b"), word.count("c"),
            word.count("d"))


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

    A rotation step moves the leading star, or the leading "a" and the
    star after it when the word both begins and ends with 'a', to the
    end.  In a reduced word that star meets the last star: equal stars
    cancel and the scan goes on between two indices; different stars
    merge into the third and the scan stops.  So the work is linear in
    the length of the word.
    """
    if not is_reduced(word):
        raise ValueError("word must be reduced")
    if a_parity(word) != 0:
        raise ValueError("word must have even a-parity")
    if not word:
        raise ValueError("word must be nonempty")
    # the current word is word[i:j]; what has been rotated is word[:i]
    i, j = 0, len(word)
    while j - i > 1:
        s = word[i]
        if s == "a":
            if word[j - 1] != "a":
                break
            # a s ... t a: the two 'a' cancel and s meets t
            s = word[i + 1]
            if j - i == 3:
                return s, word[:i + 2]
            i += 2
            j -= 1
        elif word[j - 1] == "a":
            return word[i + 1:j] + s, word[:i + 1]
        else:
            i += 1
        # the current word is word[i:j] + s and word[j - 1] is a star
        if s != word[j - 1]:
            return word[i:j - 1] + _MERGE[(word[j - 1], s)], word[:i]
        j -= 1
    return word[i:j], word[:i]


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
