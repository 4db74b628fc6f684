"""Words over {a, b, c, d} and their canonical reduced forms.

The four letters are involutions and b, c, d commute with each other,
with the product of any two distinct ones equal to the third.  Rewriting
with xx -> empty and rs -> t (r, s, t distinct among b, c, d) is
confluent, and a reduced word strictly alternates 'a' with the stars
b, c, d.  is_reduced tests that alternation on the two interleaved
letter slices, and reduce_word returns a word that passes it as it is.
Any other word is cut at 'a' into runs of stars; each run is one element
of the Klein group {1, b, c, d}, coded as two bits so that a product is
an xor, and a stack of run codes cancels the pair of 'a' around every
run that multiplies out to 1.

reduce_word takes one of two paths by the length of the word.  Below
_LONG letters it cuts the word with str.split and takes one Python
stack step per run.  From _LONG letters on it computes every run's code
with whole-word operations in C: the letters become code bytes, one
integer holds them, and ceil(log2 n) shift-and-xor steps give every
prefix xor, so the codes cost O(n log n) bit operations and no Python
step per letter or run.  The codes are then cut at the identity runs,
and the runs between two identity runs go onto the stack whole: Python
steps are spent only per identity run, and per run that cancels in the
cascade one can start.  Each path has a cost the other lacks, Python
steps over every run against a dozen whole-word passes.  On the
unreduced sections of random reduced words (medians of 41 alternating
timings on a 2-vCPU virtual machine) the per-run loop took 8.3 µs at
53 letters against 9.6 µs, 9.9 µs at 67 letters against 10.3 µs, then
lost: 11.4 µs at 80 letters against 10.4 µs, 14.4 µs against 11.5 µs
at 107 letters and 0.98 ms against 0.37 ms at 13,651 letters.  _LONG
is 72, at that crossover.  The per-run loop is also the reference that
tests hold the long path to.

In a product of two reduced words only the seam can rewrite:
join_reduced cancels equal letters across it and merges at most one
pair of stars.  The empty word is displayed as "1".
"""

from __future__ import annotations

import random
from itertools import islice, product
from math import lcm

from .algebraic import (GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D, AlgebraicValue,
                        _value)

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
# words of at least this many letters take the whole-word path of
# reduce_word (the crossover measured in the module docstring)
_LONG = 72
# the letters as code bytes, and 'a' as bit 2 to mark its position
_CODE_BYTE = bytes.maketrans(b"abcd", b"\0\1\2\3")
_A_MARK = bytes.maketrans(b"abcd", b"\4\0\0\0")
_UNMARKED = bytes(range(4))
# a code byte back to its star; bit 2 marks the first run, and an
# identity run ("-") is never written out
_STAR_BYTE = bytes.maketrans(bytes(range(8)), b"-bcd-bcd")
_DROP_LETTERS = str.maketrans("", "", LETTERS)
# _WEIGHTS[i]: the c_i of GAMMA_A..GAMMA_D, over the denominator _WEIGHT_DEN
_COEFFS = [g.coefficients() for g in (GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D)]
_WEIGHT_DEN = lcm(*(c.denominator for cs in _COEFFS for c in cs))
_WEIGHTS = [[(c * _WEIGHT_DEN).numerator for c in cs] for cs in zip(*_COEFFS)]


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
    any other word is cut at 'a' into runs of stars, and a run that
    multiplies out to 1 between two 'a' lets them cancel, so the runs on
    either side merge (t a 1 a r -> t.r).  Below _LONG letters that
    takes one stack step per run; longer words get their run codes from
    whole-word operations in C and take a stack step only per identity
    run (_reduce_long)."""
    if is_reduced(word):
        return word
    if len(word) >= _LONG:
        return _reduce_long(word)
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


def _run_codes(word: str) -> bytes:
    """The code of each run of stars that 'a' cuts a word over a-d
    into, one byte per run in order, from whole-word operations in C."""
    raw = word.encode()
    n = len(raw)
    # Big-endian, so a right shift by s bytes moves the byte of letter i
    # to letter i + s.  After j steps, shifting by 1, 2, 4, ... bytes,
    # byte i is the xor of the codes of the 2^j letters up to i, and in
    # the end of letters 0..i; an xor never carries into the next byte.
    prefix = int.from_bytes(raw.translate(_CODE_BYTE), "big")
    shift = 8
    while shift < 8 * n:
        prefix ^= prefix >> shift
        shift *= 2
    # the prefixes at the 'a's, in order, with bit 2 set: the others
    # have no bit 2 and are deleted
    marked = prefix | int.from_bytes(raw.translate(_A_MARK), "big")
    at_a = marked.to_bytes(n, "big").translate(None, _UNMARKED)
    # a run's code is the xor of the prefixes at its two ends: 0 before
    # the first run, and the whole word's after the last
    before = int.from_bytes(b"\4" + at_a, "big")
    after = int.from_bytes(at_a + bytes((prefix & 3 | 4,)), "big")
    return (before ^ after).to_bytes(len(at_a) + 1, "big")


def _reduce_long(word: str) -> str:
    """The reduced form of a nonempty word over a-d, with Python steps
    only where an identity run meets the stack."""
    # stack[i] is the code of a run, with one 'a' between neighbours.
    # The first entry carries bit 2, so it is never 0 and only the top
    # can be an identity run: one that is interior, so its two 'a'
    # cancel when the next run arrives.
    segments = _run_codes(word).split(b"\0")
    stack = bytearray(segments[0] or b"\0" + segments[1])
    stack[0] |= 4
    # each later segment is the runs after one identity run
    for segment in islice(segments, 1 if segments[0] else 2, None):
        if not stack[-1]:
            # t a 1 a 1: the top's two 'a' cancel and t.1 is t again
            stack.pop()
            stack += segment
        elif segment:
            # t a 1 a r: the 'a' cancel and t.r is the new top; while
            # that is 1 it cancels with the next run in turn
            stack[-1] ^= segment[0]
            i = 1
            while not stack[-1] and i < len(segment):
                stack.pop()
                stack[-1] ^= segment[i]
                i += 1
            stack += segment[i:]
        else:
            stack.append(0)
    # stars at the even places, 'a' between; an identity run can be
    # left only at either end, where it is empty
    out = bytearray(b"a") * (2 * len(stack) - 1)
    out[::2] = stack.translate(_STAR_BYTE)
    start = 1 if stack[0] == 4 else 0
    stop = len(out) if stack[-1] & 3 else len(out) - 1
    return out[start:stop].decode()


def is_reduced(word: str) -> bool:
    """Whether the word alternates 'a' with stars; raises WordError on
    a letter outside a-d."""
    # tested whole in C: one slice all 'a', the other ASCII stars only
    even, odd = word[0::2], word[1::2]
    if (even == "a" * len(even) and odd.isascii()
            and not odd.encode().translate(None, b"bcd")):
        return True
    if (odd == "a" * len(odd) and even.isascii()
            and not even.encode().translate(None, b"bcd")):
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
    weight.  Exact value in Q(alpha), built once from the counts."""
    na, nb, nc, nd = letter_counts(word)
    return _value(*[na * wa + nb * wb + nc * wc + nd * wd
                    for wa, wb, wc, wd in _WEIGHTS], _WEIGHT_DEN)


def compare_norm(u: str, v: str) -> int:
    """-1, 0 or 1 as the norm of u is below, equal to or above v's."""
    return (norm(u) - norm(v)).sign()


def cyclic_core(word: str):
    """Strip the frame of a reduced word: returns (m, g) with word equal
    to g m inverse(g) and g a prefix of word.  m has length <= 1 or
    begins with 'a' and does not end with 'a'; it is never longer than
    the word.

    The word is g m inverse(g) for the longest g that leaves m a letter
    or a word with different end letters.  If m begins with a star s,
    one rotation by s more gives join_reduced(m[1:], s), which begins
    with 'a' and ends with a star.  The frame length is the longest k
    up to len(word) // 2 with word[:k] == word[::-1][:k]; that test
    holds for every shorter k too, so k is found by doubling and then
    bisection.  Each step compares only the letters it adds to the
    prefix already known to pass, so a frame of k letters costs O(k)
    letters of slicing, and a word whose end letters differ costs one
    comparison.
    """
    n = len(word)
    k = 0
    if n > 1 and word[0] == word[-1]:
        top, k = n // 2, 1
        while k < top:
            # the letters k..span-1 against their mirror images
            span = min(2 * k, top)
            tail = word[-1 - k:-1 - span:-1]
            if word[k:span] == tail:
                k = span
                continue
            # k passes and span fails: bisect, comparing only the
            # letters between them
            base = k
            while span - k > 1:
                mid = (k + span) // 2
                if word[k:mid] == tail[k - base:mid - base]:
                    k = mid
                else:
                    span = mid
            break
    m = word[k:n - k]
    if len(m) > 1 and m[0] != "a":
        return join_reduced(m[1:], m[0]), word[:k + 1]
    return m, word[:k]


def cyclic_normalize(word: str):
    """Conjugate a reduced word of even a-parity into rotated normal
    form: its cyclic_core, after checking that the word is reduced,
    even and nonempty.

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
