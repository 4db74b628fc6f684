"""The order-16 quotient that controls coset bookkeeping.

The subgroup K, the normal closure of abab, has index 16, and the
quotient is the finite group presented by

    a^2, b^2, c^2, d^2, bcd, (ab)^2, (ad)^4.

Coset enumeration over the trivial subgroup yields its regular
representation; cosets are then renumbered canonically by breadth-first
search from the identity with generator order a, b, c, d, so the
numbering is deterministic but has no external meaning.  Consumers must
only rely on numbering-invariant facts (counts, parities, products).

The lift table records which pairs of cosets of the two sections of an
even word can occur and what coset the word itself then lies in.  It
is built by walking products of the six factors b, c, d, aba, aca, ada
of even words from the empty word, extending a word by every factor
only when its section pair is new.  The walk is complete: w -> (cos w0,
cos w1, cos w) is a homomorphism on the level-one stabilizer, which the
factors generate, so the recorded pairs, closed under the factors, are
all the pairs, and checking each product of a recorded word with a
factor finds any pair with two values.  Any conflict is fatal.
"""

from __future__ import annotations

import io
from functools import lru_cache

from .splitting import split
from .words import LETTERS, WordError, join_reduced

_BASE_RELATORS = ("aa", "bb", "cc", "dd", "bcd", "abab", "adadadad")

K_GENERATORS = ("abab", "badabada", "abadabad")


def _coset_enumeration(relators):
    """Coset table for the trivial subgroup; all generators are their
    own inverses, which keeps scans symmetric.  Returns the table rows
    of the live cosets (with stale entries) plus the find function."""
    table = [[None] * 4]
    parent = [0]

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(a, x):
        b = len(table)
        table.append([None] * 4)
        parent.append(b)
        table[a][x] = b
        table[b][x] = a
        return b

    def coincidence(a, b):
        queue = []

        def merge(u, v):
            u, v = find(u), find(v)
            if u == v:
                return
            if v < u:
                u, v = v, u
            parent[v] = u
            queue.append(v)

        merge(a, b)
        while queue:
            e = queue.pop()
            for x in range(4):
                f = table[e][x]
                if f is None:
                    continue
                table[e][x] = None
                if table[f][x] == e:
                    table[f][x] = None
                u, v = find(e), find(f)
                if table[u][x] is not None:
                    merge(v, table[u][x])
                elif table[v][x] is not None:
                    merge(u, table[v][x])
                else:
                    table[u][x] = v
                    table[v][x] = u

    def scan_and_fill(a, word):
        idxs = [LETTERS.index(ch) for ch in word]
        f, i = a, 0
        b, j = a, len(idxs) - 1
        while True:
            while i <= j and table[f][idxs[i]] is not None:
                f = table[f][idxs[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][idxs[j]] is not None:
                b = table[b][idxs[j]]
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                table[f][idxs[i]] = b
                table[b][idxs[i]] = f
                return
            define(f, idxs[i])

    current = 0
    while current < len(table):
        if find(current) == current:
            for rel in relators:
                if find(current) != current:
                    break
                scan_and_fill(current, rel)
        current += 1

    live = [c for c in range(len(table)) if find(c) == c]
    return table, live, find


class Quotient:
    """The 16-element quotient group with canonical coset numbering.

    Cosets are integers 0..15 with 0 the identity.  rep_word[i] is the
    breadth-first representative word of coset i; parity[i] is its
    a-parity, well defined because every relator has an even number of
    a letters.
    """

    def __init__(self, table, rep_words, parity):
        self.table = table
        self.rep_words = rep_words
        self.parity = parity
        self.size = len(table)
        # per coset, the coset each letter leads to
        self._rows = tuple(dict(zip(LETTERS, row)) for row in table)
        self._inv = [next(j for j in range(self.size)
                          if self.mult(i, j) == 0)
                     for i in range(self.size)]

    def coset_of(self, word: str) -> int:
        rows = self._rows
        c = 0
        try:
            for ch in word:
                c = rows[c][ch]
        except KeyError:
            raise WordError(
                f"invalid letter {ch!r} in word {word!r}") from None
        return c

    def mult(self, i: int, j: int) -> int:
        c = i
        for ch in self.rep_words[j]:
            c = self._rows[c][ch]
        return c

    def inv(self, i: int) -> int:
        return self._inv[i]

    def even_cosets(self) -> frozenset:
        return frozenset(i for i in range(self.size) if self.parity[i] == 0)

    def conjugate_in_quotient(self, i: int, j: int) -> bool:
        """Whether cosets i and j are conjugate as quotient elements."""
        return any(self.mult(self.mult(self.inv(g), i), g) == j
                   for g in range(self.size))


def build_quotient() -> Quotient:
    """Run the enumeration and renumber canonically.  Requires exactly
    16 cosets and the normal generators of K to map to the identity."""
    table, live, find = _coset_enumeration(_BASE_RELATORS)
    if len(live) != 16:
        raise RuntimeError(f"coset enumeration found {len(live)} cosets, "
                           "expected 16")

    # canonical breadth-first renumbering from the identity coset
    start = find(0)
    number = {start: 0}
    order = [start]
    rep_words = [""]
    head = 0
    while head < len(order):
        c = order[head]
        head += 1
        for x in range(4):
            nxt = find(table[c][x])
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
                rep_words.append(rep_words[head - 1] + LETTERS[x])
    if len(order) != 16:
        raise RuntimeError("coset table is not connected")

    new_table = tuple(
        tuple(number[find(table[c][x])] for x in range(4)) for c in order)
    parity = tuple(w.count("a") % 2 for w in rep_words)
    # parity must be consistent along every edge of the table
    for i in range(16):
        for x in range(4):
            flip = 1 if LETTERS[x] == "a" else 0
            if parity[new_table[i][x]] != parity[i] ^ flip:
                raise RuntimeError("parity is not well defined")

    q = Quotient(new_table, tuple(rep_words), parity)
    for gen in K_GENERATORS:
        if q.coset_of(gen) != 0:
            raise RuntimeError(f"normal generator {gen} is nontrivial "
                               "in the quotient")
    return q


class LiftTable:
    """Partial map (i, j) -> k of section coset pairs to word cosets."""

    def __init__(self, pairs):
        self.pairs = dict(pairs)

    def lift(self, i: int, j: int):
        return self.pairs.get((i, j))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("i,j,lifted\n")
        for (i, j) in sorted(self.pairs):
            buf.write(f"{i},{j},{self.pairs[(i, j)]}\n")
        return buf.getvalue()


def build_lift_table(quotient: Quotient, rng=None) -> LiftTable:
    """Walk products of the six factors of even reduced words from the
    empty word, recording the coset triple of each word and its two
    sections.  A word is extended by every factor only when its section
    pair is new.  Any conflict between two words is fatal; the result
    must contain exactly 32 pairs whose values are even cosets, each hit
    by exactly four pairs.

    rng, if given, shuffles the factors; the table must not depend on
    it.
    """
    # the factors splitting.factor_decomposition cuts even words into
    factors = ["b", "c", "d", "aba", "aca", "ada"]
    if rng is not None:
        rng.shuffle(factors)
    pairs = {}
    todo = [""]
    while todo:
        w = todo.pop()
        w0, w1 = split(w)
        key = (quotient.coset_of(w0), quotient.coset_of(w1))
        val = quotient.coset_of(w)
        old = pairs.get(key)
        if old is None:
            pairs[key] = val
            todo.extend(join_reduced(w, f) for f in factors)
        elif old != val:
            raise RuntimeError(f"conflicting lift at {key}: {old} vs {val}")
    if len(pairs) != 32:
        raise RuntimeError(f"lift table has {len(pairs)} pairs, expected 32")
    even = quotient.even_cosets()
    values = sorted(pairs.values())
    if not set(values) <= even:
        raise RuntimeError("lift values must be even cosets")
    for v in set(values):
        if values.count(v) != 4:
            raise RuntimeError(f"lift value {v} occurs {values.count(v)} "
                               "times, expected 4")
    return LiftTable(pairs)


@lru_cache(maxsize=1)
def standard_quotient() -> Quotient:
    return build_quotient()


@lru_cache(maxsize=1)
def standard_lift_table() -> LiftTable:
    return build_lift_table(standard_quotient())
