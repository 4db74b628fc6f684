"""Action of words on the rooted binary tree.

Vertices are finite 0/1 strings.  The generators act by the standard
recursions: 'a' flips the first bit, and

    b = (a, c)    c = (a, d)    d = (1, b)

meaning e.g. that b flips the second bit under a 0 and acts as c on the
remainder under a 1.  A word acts with its rightmost letter applied
first, so apply(u + v, x) == apply(u, apply(v, x)).

This module never rewrites words; it only evaluates them, which makes
it an independent check on the algebraic machinery.  Triviality testing
composes whole-level permutations (one per letter, cached per depth)
and deepens one level at a time: an automorphism moving a vertex moves
all its descendants, so early exits are exact.  The permutations are
numpy arrays; numpy is imported when the first of them is built.
"""

from __future__ import annotations

from .words import LETTERS, check_letters

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


# depth -> {letter, or "" for the identity: its level permutation}
_perm_cache: dict[int, dict] = {}


def _level_perms(depth: int) -> dict:
    perms = _perm_cache.get(depth)
    if perms is None:
        import numpy as np
        count = 1 << depth
        perms = {"": np.arange(count, dtype=np.int64)}
        for letter in LETTERS:
            images = [
                int(apply_letter(letter, format(v, f"0{depth}b")), 2)
                for v in range(count)
            ]
            perms[letter] = np.array(images, dtype=np.int64)
        _perm_cache[depth] = perms
    return perms


def _identity_at_level(word: str, depth: int) -> bool:
    perms = _level_perms(depth)
    current = identity = perms[""]
    for letter in reversed(word):
        current = perms[letter][current]
    return bool((current == identity).all())


def is_trivial_at_depth(word: str, depth: int) -> bool:
    """True iff the word fixes every vertex of the given depth (hence
    every shallower vertex too)."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    check_letters(word)
    for level in range(1, depth + 1):
        if not _identity_at_level(word, level):
            return False
    return True


def oracle_depth(n: int) -> int:
    """Depth sufficient to decide triviality of any word of length <= n."""
    m = max(n, 2)
    return (m - 1).bit_length() + 4
