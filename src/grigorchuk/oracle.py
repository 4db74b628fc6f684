"""Independent cross-checks for the conjugacy machinery.

find_conjugator searches reduced words in length order for an actual
conjugating element, using only the word-problem decision; it knows
nothing about Q-sets.  validate_small_instances sweeps all small word
pairs and reports every disagreement between the branching decision
and the witness search, in both directions.  abelian_image is the cheap
conjugacy invariant: exponents mod 2 of a and of b, c counting d as
b followed by c.
"""

from __future__ import annotations

from .conjugacy import are_conjugate
from .word_problem import equal
from .words import (LETTERS, enumerate_reduced, inverse, join_reduced,
                    letter_counts, reduce_word)


def abelian_image(word: str) -> tuple[int, int, int]:
    """Exponent triple (e_a, e_b, e_c) mod 2 in the abelianization."""
    na, nb, nc, nd = letter_counts(word)
    return (na % 2, (nb + nd) % 2, (nc + nd) % 2)


def find_conjugator(u: str, v: str, max_len: int = 16):
    """Shortest reduced x with u = x^-1 v x, or None if none exists with
    length <= max_len.  Pure search; decided by the word problem only."""
    for x in enumerate_reduced(max_len):
        if equal(inverse(x) + v + x, u):
            return x
    return None


def conjugate_closure(v: str, max_len: int):
    """All reduced forms of x^-1 v x over reduced x with |x| <= max_len,
    breadth first: the conjugate by x' l is l (x'^-1 v x') l."""
    seen = level = {reduce_word(v)}
    for _ in range(max_len):
        level = {join_reduced(join_reduced(l, w), l)
                 for w in level for l in LETTERS} - seen
        seen |= level
    return seen


def validate_small_instances(max_word_len: int = 4,
                             witness_budget: int = 16) -> dict:
    """Exhaustive consistency report over all reduced pairs up to
    max_word_len.

    For each pair: if the branching decision says conjugate, a witness
    of length <= witness_budget must exist; if it says not conjugate,
    no such witness may exist, and the abelian images must already
    differ or the deeper machinery is credited with the separation.
    """
    words = enumerate_reduced(max_word_len)
    closures = {v: conjugate_closure(v, witness_budget) for v in words}
    violations = []
    checked = 0
    yes_count = 0
    for u in words:
        for v in words:
            checked += 1
            decided = are_conjugate(u, v)
            witnessed = u in closures[v]
            if decided:
                yes_count += 1
            if decided != witnessed:
                violations.append({
                    "u": u or "1",
                    "v": v or "1",
                    "decision": decided,
                    "witness_found": witnessed,
                })
            if not decided and abelian_image(u) == abelian_image(v):
                # not separable by the abelianization alone; fine, but
                # double-check the words are not equal as elements
                if equal(u, v):
                    violations.append({
                        "u": u or "1",
                        "v": v or "1",
                        "decision": decided,
                        "witness_found": witnessed,
                        "note": "equal elements declared non-conjugate",
                    })
    return {
        "max_word_len": max_word_len,
        "witness_budget": witness_budget,
        "pairs_checked": checked,
        "conjugate_pairs": yes_count,
        "violations": violations,
    }
