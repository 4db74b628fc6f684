"""The order-16 quotient that controls coset bookkeeping.

The subgroup K, the normal closure of abab, has index 16, and the
quotient is the finite group presented by

    a^2, b^2, c^2, d^2, bcd, (ab)^2, (ad)^4.

It is built from a model of the presented group:

- (ab)^2 = 1 makes b commute with a, and b commutes with c and d = bc,
  so b is central.
- a and d generate a dihedral group of order at most 8, since
  (ad)^4 = 1, and c = bd.  So the presented group has at most 16
  elements.
- The model acts on the 8 points (x, s), x mod 4 and s mod 2: a sends
  (x, s) to (-x, s), d to (1-x, s), b to (x, 1-s) and c = bd to
  (1-x, 1-s).  It realises 16 elements, and every relator is trivial
  in it, so it is that group.

Its elements are numbered breadth first from the identity with
generator order a, b, c, d, so the numbering is deterministic but has
no external meaning.  Consumers must only rely on numbering-invariant
facts (counts, parities, products).

The coset of a word is read off its letter counts rather than walked
letter by letter.  Every element of the model is x -> e*x + t,
s -> s + f with e = +-1, t mod 4 and f mod 2, and 2 * 4 * 2 = 16, so
the triple (e, t, f) is the element.  b moves only s, and c moves x as
d does, so after deleting b and mapping c to d the x-part is a product
of k reflections x -> -x (a) and x -> 1 - x (d): e is the parity of k,
and t is, up to a sign fixed by the order of composition, the number
of d at even positions less the number at odd positions.  f is the
parity of #b + #c.  So (k mod 2, (2 * even - total) mod 4,
(#b + #c) mod 2) takes 16 values, one per element.  The triple of a
word with one more letter depends only on the word's triple and that
letter, so checking the map on the 16 x 4 edges of the product table
checks it on every word.

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
from .words import LETTERS, check_letters, join_reduced

_BASE_RELATORS = ("aa", "bb", "cc", "dd", "bcd", "abab", "adadadad")

K_GENERATORS = ("abab", "badabada", "abadabad")

# the model: each letter as the images of the points (x, s), with
# (x, s) numbered 2x + s
_POINTS = tuple((x, s) for x in range(4) for s in range(2))
_MODEL = {
    letter: tuple(2 * (x % 4) + s for x, s in (move(*p) for p in _POINTS))
    for letter, move in (("a", lambda x, s: (-x, s)),
                         ("b", lambda x, s: (x, 1 - s)),
                         ("c", lambda x, s: (1 - x, 1 - s)),
                         ("d", lambda x, s: (1 - x, s)))
}
# the x-part of the model: b acts as 1 and c as d
_X_PART = bytes.maketrans(b"c", b"d")


def _model_element(word: str) -> tuple:
    """The model element of a word, as the images of the points."""
    g = tuple(range(len(_POINTS)))
    for x in word:
        g = tuple(g[p] for p in _MODEL[x])
    return g


def _count_key(word: str) -> int:
    """The triple (k mod 2, (2 * even - total) mod 4, (#b + #c) mod 2)
    of a word over a-d, packed into 0..15 (see the module docstring)."""
    x_part = word.encode().translate(_X_PART, b"b")
    total = x_part.count(b"d")
    twist = (2 * x_part[::2].count(b"d") - total) % 4
    flip = (len(word) - len(x_part) + word.count("c")) % 2
    return len(x_part) % 2 + 2 * twist + 8 * flip


class Quotient:
    """The 16-element quotient group with canonical coset numbering.

    Cosets are integers 0..15 with 0 the identity.  rep_word[i] is the
    breadth-first representative word of coset i; parity[i] is its
    a-parity, well defined because every relator has an even number of
    a letters.  mult_table[i][j] is the product of cosets i and j and
    inv_table[i] the inverse of coset i.
    """

    def __init__(self, table, rep_words, parity, by_key):
        self.table = table
        self.rep_words = rep_words
        self.parity = parity
        self.size = len(table)
        # by_key[_count_key(w)] is the coset of w
        self._by_key = by_key
        self.mult_table = tuple(
            tuple(self.coset_of(u + v) for v in rep_words) for u in rep_words)
        self.inv_table = tuple(row.index(0) for row in self.mult_table)

    def coset_of(self, word: str) -> int:
        # letters first: encode() would fail on a lone surrogate
        check_letters(word)
        return self._by_key[_count_key(word)]

    def mult(self, i: int, j: int) -> int:
        return self.mult_table[i][j]

    def inv(self, i: int) -> int:
        return self.inv_table[i]

    def even_cosets(self) -> frozenset:
        return frozenset(i for i in range(self.size) if self.parity[i] == 0)


def build_quotient() -> Quotient:
    """Number the elements of the model breadth first from the identity,
    trying the letters in the order a, b, c, d.  Requires exactly 16
    elements, a-parity well defined along every edge, every relator and
    normal generator of K to be trivial in the model, and the letter
    counts to give each word its element along every edge."""
    identity = _model_element("")
    number = {identity: 0}
    order = [identity]
    rep_words = [""]
    table = []
    for head, g in enumerate(order):
        row = []
        for x in LETTERS:
            h = tuple(g[p] for p in _MODEL[x])
            if h not in number:
                number[h] = len(order)
                order.append(h)
                rep_words.append(rep_words[head] + x)
            row.append(number[h])
        table.append(tuple(row))
    if len(order) != 16:
        raise RuntimeError(f"the model has {len(order)} elements, "
                           "expected 16")

    parity = tuple(w.count("a") % 2 for w in rep_words)
    # parity must be consistent along every edge of the table
    for row, par in zip(table, parity):
        for x, nxt in zip(LETTERS, row):
            if parity[nxt] != par ^ (x == "a"):
                raise RuntimeError("parity is not well defined")

    for rel in _BASE_RELATORS:
        if _model_element(rel) != identity:
            raise RuntimeError(f"relator {rel} is nontrivial in the model")
    for gen in K_GENERATORS:
        if _model_element(gen) != identity:
            raise RuntimeError(f"normal generator {gen} is nontrivial "
                               "in the quotient")

    by_key = [None] * 16
    for i, w in enumerate(rep_words):
        by_key[_count_key(w)] = i
    for w, row in zip(rep_words, table):
        for x, nxt in zip(LETTERS, row):
            if by_key[_count_key(w + x)] != nxt:
                raise RuntimeError(f"the letter counts of {w + x} do not "
                                   "give its element")
    return Quotient(tuple(table), tuple(rep_words), parity, tuple(by_key))


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
    # every even reduced word is a product of these: a star or a u a
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
