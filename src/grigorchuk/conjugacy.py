"""Conjugacy decision by branching descent through the level-one split.

For words u, v the set Q(u, v) collects the cosets (mod K) of all
elements conjugating v to u; it is nonempty exactly when u and v are
conjugate.  Q-sets of a pair are assembled from Q-sets of section
pairs:

  * both words even (S-node): a stabilizing conjugator contributes
    lift(i, j) for i in Q(u0, v0), j in Q(u1, v1); a non-stabilizing
    one contributes lift(i, j) * a for i in Q(u1, v0), j in Q(u0, v1).
  * both words odd (N-node): with (u0, u1) the sections of u*a and
    (v0, v1) those of v*a, a stabilizing conjugator contributes
    lift(i, j) for i in Q(u0u1, v0v1) and the forced companion coset
    j = cos(v1) * i * cos(u1)^-1; a non-stabilizing one contributes
    lift(i, j) * a for i in Q(u1u0, v0v1) and j = cos(v1) * i * cos(u0)^-1.
  * mixed parity: empty.
  * both words of length <= 1: a fixed base table.

The base table itself: Q(1, 1) is everything, pairs with exactly one
identity are empty, mixed-parity letter pairs are empty, Q(a, a) comes
from the N-rule over Q(1, 1), and the {b, c, d} diagonal is pinned down
as a greatest fixed point of its own S-rule equations, which must agree
with the evident commuting elements; off-diagonal letter pairs must
come out empty.

Q-sets are bit masks over the 16 cosets internally; distinct words are
interned to integers once, so the memoized recursion works on integer
pairs.  One helper gives a pair's node kind and child pairs; the
recursion, tree sizes and explicit trees all walk it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .quotient import LiftTable, Quotient, standard_lift_table, standard_quotient
from .splitting import split, split_shifted
from .words import (a_parity, display, enumerate_reduced, norm, reduce_word)

_FULL = (1 << 16) - 1


def _mask_to_set(mask: int) -> frozenset:
    return frozenset(i for i in range(16) if mask >> i & 1)


class ConjContext:
    """Shared state: quotient, lift table, base table, interned words
    and the memoized Q computation."""

    def __init__(self, quotient: Quotient | None = None,
                 lifts: LiftTable | None = None):
        self.q = quotient or standard_quotient()
        self.lifts = lifts or standard_lift_table()
        self._img_a = self.q.coset_of("a")
        l = self.lifts
        self._lift_rows = tuple(
            tuple(l.lift(i, j) for j in range(16)) for i in range(16))
        # rows translating a lifted coset by the image of a (or not)
        self._trans_rows = (tuple(range(16)),
                            tuple(self.q.mult(t, self._img_a)
                                  for t in range(16)))
        self._mult = tuple(tuple(self.q.mult(i, j) for j in range(16))
                           for i in range(16))
        self._inv_row = tuple(self.q.inv(i) for i in range(16))
        self._s_cache: dict[tuple[int, int, bool], int] = {}
        self._n_cache: dict[tuple[int, int, int, bool], int] = {}
        # interned words: id -> (word, parity, coset, len<=1,
        #                        child ids, section cosets)
        self._ids: dict[str, int] = {}
        self._words: list[str] = []
        self._parity: list[int] = []
        self._coset: list[int] = []
        self._base: list[bool] = []
        self._children: list[tuple[int, int] | None] = []
        self._sec_cosets: list[tuple[int, int] | None] = []
        self._memo: dict[tuple[int, int], int] = {}
        self.base_table = self._build_base()

    # -- interning ---------------------------------------------------

    def intern(self, word: str) -> int:
        wid = self._ids.get(word)
        if wid is None:
            # coset_of raises on a foreign letter: nothing is recorded yet
            coset = self.q.coset_of(word)
            wid = len(self._words)
            self._ids[word] = wid
            self._words.append(word)
            self._parity.append(a_parity(word))
            self._coset.append(coset)
            self._base.append(len(word) <= 1)
            self._children.append(None)
            self._sec_cosets.append(None)
        return wid

    def _child_ids(self, wid: int) -> tuple[int, int]:
        """Per-coordinate children: the two sections for an even word,
        the two section products for an odd one."""
        ch = self._children[wid]
        if ch is None:
            w = self._words[wid]
            if self._parity[wid] == 0:
                w0, w1 = split(w)
                ch = (self.intern(w0), self.intern(w1))
            else:
                w0, w1 = split_shifted(w)
                self._sec_cosets[wid] = (self.q.coset_of(w0),
                                         self.q.coset_of(w1))
                ch = (self.intern(reduce_word(w0 + w1)),
                      self.intern(reduce_word(w1 + w0)))
            self._children[wid] = ch
        return ch

    # -- mask combinators ---------------------------------------------

    def _s_combine(self, left: int, right: int, translate: bool) -> int:
        key = (left, right, translate)
        out = self._s_cache.get(key)
        if out is None:
            out = 0
            trans = self._trans_rows[translate]
            for i in range(16):
                if not left >> i & 1:
                    continue
                row = self._lift_rows[i]
                for j in range(16):
                    if not right >> j & 1:
                        continue
                    t = row[j]
                    if t is not None:
                        out |= 1 << trans[t]
            self._s_cache[key] = out
        return out

    def _n_combine(self, mask: int, cv1: int, cu: int, translate: bool) -> int:
        key = (mask, cv1, cu, translate)
        out = self._n_cache.get(key)
        if out is None:
            out = 0
            lift_rows = self._lift_rows
            mult = self._mult
            trans = self._trans_rows[translate]
            inv_cu = self._inv_row[cu]
            row_v = mult[cv1]
            for i in range(16):
                if not mask >> i & 1:
                    continue
                t = lift_rows[i][mult[row_v[i]][inv_cu]]
                if t is not None:
                    out |= 1 << trans[t]
            self._n_cache[key] = out
        return out

    # -- base table ----------------------------------------------------

    def _build_base(self) -> dict[tuple[str, str], int]:
        q = self.q
        base: dict[tuple[str, str], int] = {("", ""): _FULL}
        letters = "abcd"
        for x in letters:
            base[("", x)] = 0
            base[(x, "")] = 0
        for s in "bcd":
            base[("a", s)] = 0
            base[(s, "a")] = 0
        # Q(a, a) by the N-rule over Q(1, 1): both section products are
        # empty words, so the companion coset equals i itself.
        qaa = 0
        for i in range(16):
            t = self._lift_rows[i][i]
            if t is not None:
                qaa |= 1 << t
                qaa |= 1 << q.mult(t, self._img_a)
        base[("a", "a")] = qaa

        # {b, c, d} diagonal: greatest fixed point of
        #   Q(b,b) = L(Q(a,a), Q(c,c))
        #   Q(c,c) = L(Q(a,a), Q(d,d))
        #   Q(d,d) = L(Q(1,1), Q(b,b))
        mb = mc = md = _FULL
        while True:
            nb = self._s_combine(qaa, mc, False)
            nc = self._s_combine(qaa, md, False)
            nd = self._s_combine(_FULL, mb, False)
            if (nb, nc, nd) == (mb, mc, md):
                break
            mb, mc, md = nb, nc, nd
        # evident commuting elements give lower bounds; the fixed point
        # must not exceed them
        small = [q.coset_of(w) for w in ("", "b", "c", "d")]
        lower_bcd = 0
        for c in small:
            lower_bcd |= 1 << c
        ada = q.coset_of("ada")
        lower_d = lower_bcd
        for c in small:
            lower_d |= 1 << q.mult(ada, c)
        if mb != lower_bcd or mc != lower_bcd or md != lower_d:
            raise RuntimeError("letter-diagonal fixed point does not match "
                               "the commuting lower bound")
        base[("b", "b")] = mb
        base[("c", "c")] = mc
        base[("d", "d")] = md

        # off-diagonal letter pairs, in dependency order; all must be
        # empty
        def s_node(u, v):
            u0, u1 = split(u)
            v0, v1 = split(v)
            out = 0
            a = base[(u0, v0)]
            if a:
                out |= self._s_combine(a, base[(u1, v1)], False)
            c = base[(u1, v0)]
            if c:
                out |= self._s_combine(c, base[(u0, v1)], True)
            return out

        for u, v in (("c", "d"), ("d", "c"), ("b", "d"), ("d", "b"),
                     ("b", "c"), ("c", "b")):
            m = s_node(u, v)
            if m:
                raise RuntimeError(f"base set for ({u}, {v}) should be empty")
            base[(u, v)] = 0

        expected_sizes = {("", ""): 16, ("a", "a"): 4, ("b", "b"): 4,
                          ("c", "c"): 4, ("d", "d"): 8}
        for key, want in expected_sizes.items():
            got = bin(base[key]).count("1")
            if got != want:
                raise RuntimeError(f"base set {key} has size {got}, "
                                   f"expected {want}")
        return base

    # -- the memoized recursion ----------------------------------------

    def q_mask(self, u: str, v: str) -> int:
        u = reduce_word(u)
        v = reduce_word(v)
        return self._q_rec(self.intern(u), self.intern(v), set())

    def _branch(self, iu: int, iv: int) -> tuple[str, tuple]:
        """Node kind of a pair and its child pairs, in the order
        (u0, v0), (u1, v1), (u0, v1), (u1, v0) for an S-node and
        (u0, v0), (u1, v0) for an N-node; leaves have no children."""
        if self._parity[iu] != self._parity[iv]:
            return "leaf-empty", ()
        if self._base[iu] and self._base[iv]:
            return "leaf-base", ()
        u0, u1 = self._child_ids(iu)
        v0, v1 = self._child_ids(iv)
        if self._parity[iu] == 0:
            return "S", ((u0, v0), (u1, v1), (u0, v1), (u1, v0))
        return "N", ((u0, v0), (u1, v0))

    def _q_rec(self, iu: int, iv: int, onstack: set) -> int:
        key = (iu, iv)
        memo = self._memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        kind, pairs = self._branch(iu, iv)
        if kind == "leaf-empty":
            memo[key] = 0
            return 0
        if kind == "leaf-base":
            m = self.base_table[(self._words[iu], self._words[iv])]
            memo[key] = m
            return m
        if key in onstack:
            raise RuntimeError("cyclic Q dependency at "
                               f"({self._words[iu]!r}, {self._words[iv]!r})")
        onstack.add(key)
        m = 0
        if kind == "S":
            p00, p11, p01, p10 = pairs
            a = self._q_rec(*p00, onstack)
            if a:
                b = self._q_rec(*p11, onstack)
                if b:
                    m |= self._s_combine(a, b, False)
            c = self._q_rec(*p10, onstack)
            if c:
                d = self._q_rec(*p01, onstack)
                if d:
                    m |= self._s_combine(c, d, True)
        else:
            cu0, cu1 = self._sec_cosets[iu]
            cv1 = self._sec_cosets[iv][1]
            p00, p10 = pairs
            a = self._q_rec(*p00, onstack)
            if a:
                m |= self._n_combine(a, cv1, cu1, False)
            b = self._q_rec(*p10, onstack)
            if b:
                m |= self._n_combine(b, cv1, cu0, True)
        onstack.discard(key)
        memo[key] = m
        return m

    @property
    def visited_pairs(self) -> int:
        return len(self._memo)

    def tree_size(self, u: str, v: str) -> int:
        """Size the fully expanded branching tree would have, computed
        by sharing instead of expansion."""
        memo: dict[tuple[int, int], int] = {}

        def size(key: tuple[int, int]) -> int:
            got = memo.get(key)
            if got is None:
                got = 1 + sum(size(child) for child in self._branch(*key)[1])
                memo[key] = got
            return got

        return size((self.intern(reduce_word(u)), self.intern(reduce_word(v))))


_shared: ConjContext | None = None


def shared_context() -> ConjContext:
    global _shared
    if _shared is None:
        _shared = ConjContext()
    return _shared


def q_set(u: str, v: str) -> frozenset:
    """Cosets of the elements conjugating v to u; empty iff not
    conjugate."""
    return _mask_to_set(shared_context().q_mask(u, v))


def are_conjugate(u: str, v: str) -> bool:
    return shared_context().q_mask(u, v) != 0


# -- explicit trees and the size census ---------------------------------


@dataclass
class ConjNode:
    """Node of the explicit (unshared) branching tree for a pair."""
    u: str
    v: str
    kind: str           # "S", "N", "leaf-base" or "leaf-empty"
    q: frozenset
    children: list["ConjNode"] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def to_dict(self) -> dict:
        return {
            "u": display(self.u),
            "v": display(self.v),
            "kind": self.kind,
            "q": sorted(self.q),
            "children": [child.to_dict() for child in self.children],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_dot(self) -> str:
        lines = ["digraph conj {", '  node [shape=box, fontname="monospace"];']
        counter = [0]

        def visit(node: ConjNode) -> int:
            idx = counter[0]
            counter[0] += 1
            qtxt = "{" + ", ".join(str(i) for i in sorted(node.q)) + "}"
            label = (f"({display(node.u)}, {display(node.v)})"
                     f"\\n{node.kind}  Q={qtxt}")
            lines.append(f'  n{idx} [label="{label}"];')
            for child in node.children:
                cidx = visit(child)
                lines.append(f"  n{idx} -> n{cidx};")
            return idx

        visit(self)
        lines.append("}")
        return "\n".join(lines)


def build_conj_tree(u: str, v: str) -> ConjNode:
    """Fully expanded branching tree (no sharing) with per-node Q, read
    off the memoized recursion of the shared context."""
    ctx = shared_context()

    def build(key: tuple[int, int]) -> ConjNode:
        kind, pairs = ctx._branch(*key)
        return ConjNode(ctx._words[key[0]], ctx._words[key[1]], kind,
                        _mask_to_set(ctx._q_rec(*key, set())),
                        [build(child) for child in pairs])

    return build((ctx.intern(reduce_word(u)), ctx.intern(reduce_word(v))))


def explicit_tree_size(u: str, v: str) -> int:
    """Size the fully expanded tree would have, without building it."""
    return shared_context().tree_size(u, v)


# -- single-word halving trees -------------------------------------------


@lru_cache(maxsize=None)
def word_tree_size(word: str) -> int:
    """Size of the halving tree under a single word: leaves are words of
    length <= 1, inner nodes carry the two per-coordinate children."""
    if len(word) <= 1:
        return 1
    c0, c1 = word_children(word)
    return 1 + word_tree_size(c0) + word_tree_size(c1)


def word_children(word: str) -> tuple[str, str]:
    """The two per-coordinate children the branching step gives a word."""
    ctx = shared_context()
    c0, c1 = ctx._child_ids(ctx.intern(reduce_word(word)))
    return ctx._words[c0], ctx._words[c1]


def subtree_size_census(norm_bound: int = 9, max_len: int = 12):
    """All reduced words of length >= 2 whose norm is strictly below the
    bound, with their two children and halving-tree size."""
    from .algebraic import GAMMA_A, GAMMA_D

    rows = []
    for n in range(2, max_len + 1):
        # a reduced word of length n has n//2 or (n+1)//2 letters 'a';
        # the cheapest word takes the fewer 'a's and all-'d' stars, so
        # whole lengths can be skipped exactly
        least = (n // 2) * GAMMA_A + (n - n // 2) * GAMMA_D
        if (least - norm_bound).sign() >= 0:
            break
        for w in enumerate_reduced(n, min_len=n):
            if (norm(w) - norm_bound).sign() < 0:
                c0, c1 = word_children(w)
                rows.append((w, c0, c1, word_tree_size(w)))
    return rows
