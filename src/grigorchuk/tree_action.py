"""Action of words on the rooted binary tree.

Vertices are finite 0/1 strings.  The generators act by the standard
recursions: 'a' flips the first bit, and

    b = (a, c)    c = (a, d)    d = (1, b)

meaning e.g. that b flips the second bit under a 0 and acts as c on the
remainder under a 1.  A word acts with its rightmost letter applied
first, so apply(u + v, x) == apply(u, apply(v, x)).

This module never rewrites words; it only evaluates them, which makes
it an independent check on the algebraic machinery.  Triviality testing
uses the parity rule: a word fixes level D exactly when every section
of it on the levels above D has an even number of a's.  The sections
are taken letter by letter with no reduction, a whole level at a time
on one byte string.
"""

from __future__ import annotations

from .words import check_letters

# section pairs of the level-one stabilizing generators
_SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}


def apply_letter(letter: str, vertex: str) -> str:
    """Walk down the vertex while the section is a star; stop at an
    identity section, or flip one bit at an 'a'."""
    for i, bit in enumerate(vertex):
        if letter == "a":
            return vertex[:i] + ("1" if bit == "0" else "0") + vertex[i + 1:]
        if not letter:
            break
        letter = _SECTIONS[letter][bit == "1"]
    return vertex


def apply_word(word: str, vertex: str) -> str:
    for ch in vertex:
        if ch not in "01":
            raise ValueError(f"invalid vertex bit {ch!r}")
    check_letters(word)
    for letter in reversed(word):
        vertex = apply_letter(letter, vertex)
    return vertex


# A level of sections is one byte string, each section followed by a
# space.  The a-indicator, and the separators' marks:
_A_BIT = bytes.maketrans(b"abcd ", b"\1\0\0\0\0")
_SEP_BIT = bytes.maketrans(b"abcd ", b"\0\0\0\0\1")
# The letter each star leaves in the left and in the right child, the
# star in upper case when it acts below the other bit: then its sections
# swap.  'a' and identity sections are deleted.
_LEFT = (bytes.maketrans(b"bcBCD", b"aacdb"), b"aAd")
_RIGHT = (bytes.maketrans(b"bcdBC", b"cdbaa"), b"aAD")


def is_trivial_at_depth(word: str, depth: int) -> bool:
    """True iff the word fixes every vertex of the given depth (hence
    every shallower vertex too): iff every section of the word on the
    levels 0 .. depth - 1 has an even number of a's.  The sections are
    the literal ones, a = swap, b = (a, c), c = (a, d), d = (1, b), with
    no reduction; a level holds at most two letters per star of the
    word, so memory is O(|word|) at any depth."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    check_letters(word)
    level = word.encode() + b" "
    for _ in range(depth):
        n = len(level)
        # Prefix xor of the a-indicator.  Big-endian, so a right shift
        # by s bytes moves the byte of letter i to letter i + s; after
        # the shifts by 1, 2, 4, ... bytes, byte i is the parity of the
        # a's in letters 0..i, and at the first odd section's separator
        # it is 1.
        parity = int.from_bytes(level.translate(_A_BIT), "big")
        shift = 8
        while shift < 8 * n:
            parity ^= parity >> shift
            shift *= 2
        if parity & int.from_bytes(level.translate(_SEP_BIT), "big"):
            return False
        # Every section is even, so at a star this is the parity of the
        # a's before it in its own section, and so of those after it,
        # which act first: when it is odd the star acts below the other
        # bit.  Odd parity sets bit 5, the upper case.
        flipped = (int.from_bytes(level, "big") ^ parity << 5).to_bytes(
            n, "big")
        # the children's sections, with the empty ones dropped
        sections = (flipped.translate(*_LEFT)
                    + flipped.translate(*_RIGHT)).split()
        if not sections:
            return True
        level = b" ".join(sections) + b" "
    return True


def oracle_depth(n: int) -> int:
    """Depth sufficient to decide triviality of any word of length <= n.

    A YES of is_trivial_at_depth at this depth means the word is trivial
    by one lemma, and only by it.  Section length contraction: a reduced
    word of length m >= 2 has sections of length at most (m + 1) / 2, so
    after (n - 1).bit_length() + 1 levels every section of the word
    reduces to a single letter or to the empty word.  And each of a, b,
    c, d moves a vertex within level 3, so a word that fixes this level
    has only trivial sections on the level where they are letters, and
    is trivial."""
    m = max(n, 2)
    return (m - 1).bit_length() + 4
