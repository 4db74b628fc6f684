"""Words over {a, b, c, d} and their canonical reduced forms.

The four letters are involutions and b, c, d commute with each other,
with the product of any two distinct ones equal to the third.  Rewriting
with xx -> empty and rs -> t (r, s, t distinct among b, c, d) is
confluent, and a reduced word strictly alternates 'a' with the stars
b, c, d.  is_reduced tests that alternation on the two interleaved
letter slices, and reduce_word returns a word that passes it as it is.
Any other word is cut at 'a' into runs of stars; each run is one element
of the Klein group {1, b, c, d}, coded as two bits so that a product is
an xor, and one stack step per run cancels the pair of 'a' around every
run that multiplies out to 1.  In a product of two reduced words only
the seam can rewrite: join_reduced cancels equal letters across it and
merges at most one pair of stars.  The empty word is displayed as "1".
"""

from __future__ import annotations

import random
from itertools import product

from .algebraic import GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D, AlgebraicValue

LETTERS = "abcd"
STARS = "bcd"


def _run_code(run: str) -> int:
    """A run of stars as an element of {1, b, c, d}, coded as two bits
    so that the product of two elements is their xor: bit 0 is the
    parity of the b and d letters, bit 1 that of the c and d letters."""
    d = run.count("d")
    return (run.count("b") + d) % 2 + (run.count("c") + d) % 2 * 2


_STAR_OF_CODE = ("", "b", "c", "d")
# the code of every run of up to 4 stars, 121 runs
_RUN_CODE = {run: _run_code(run) for n in range(5)
             for run in map("".join, product(STARS, repeat=n))}
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
    any other word is cut at 'a' into runs of stars and takes one stack
    step per run: a run that multiplies out to 1 between two 'a' lets
    them cancel, so the runs on either side merge (t a 1 a r -> t.r)."""
    if is_reduced(word):
        return word
    # stack[i] is the code of a run, with one 'a' between neighbours;
    # only the first and the top entry can be 1
    stack: list[int] = []
    for run in word.split("a"):
        code = _RUN_CODE.get(run)
        if code is None:
            code = _run_code(run)
        if len(stack) > 1 and not stack[-1]:
            stack.pop()
            stack[-1] ^= code
        else:
            stack.append(code)
    return "a".join([_STAR_OF_CODE[code] for code in stack])


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
    left, right = _RUN_CODE.get(u[-1:]), _RUN_CODE.get(v[:1])
    if left and right:
        return u[:-1] + _STAR_OF_CODE[left ^ right] + v[1:]
    return u + v


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
