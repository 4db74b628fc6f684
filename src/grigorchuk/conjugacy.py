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

Every pair is decided on its cyclic cores.  K is normal, so with
u = h n h^-1 and v = g m g^-1 an element y conjugates v to u exactly
when g^-1 y h conjugates m to n; hence

    Q(u, v) = cos(g) * Q(n, m) * cos(h)^-1.

The identity holds for every pair, so it is used at every node: q_mask
runs the recursion on the cores of the input pair, and each child pair
of a node is looked up as the pair of its cores (a word of length <= 1
is its own core), whose mask is translated by the two frame cosets.  The memo is keyed by pairs of
cores below the root, so a literal conjugate x u x^-1 costs one frame
strip, and children that are conjugate share every visited pair.
Explicit trees, tree sizes and word children stay on raw pairs; their
masks are the same by the identity.

The base table is not written out by hand: the 25 pairs of words of
length <= 1 are closed under taking children, and the table is the
greatest fixed point of the same S- and N-rules on them.  Mixed-parity
pairs come out empty, Q(1, 1) full; the {b, c, d} diagonal must agree
with the evident commuting elements and every off-diagonal pair must
come out empty.

Q-sets are bit masks over the 16 cosets internally; distinct words are
interned to integers once, so the memoized recursion works on integer
pairs.  One helper gives a pair's node kind and child pairs; the
recursion, tree sizes and explicit trees all walk it, and one node rule
combines child masks for both the recursion and the base table.
"""

from __future__ import annotations

from itertools import count

from .algebraic import GAMMA_A, GAMMA_D
from .quotient import standard_lift_table, standard_quotient
from .splitting import split, split_shifted
from .word_problem import _Node
from .words import (a_parity, check_letters, cyclic_core, display,
                    enumerate_reduced, join_reduced, norm, reduce_word)

_FULL = (1 << 16) - 1

_CENSUS_NORM_BOUND = 9


def _mask_to_set(mask: int) -> frozenset:
    return frozenset(i for i in range(16) if mask >> i & 1)


class ConjContext:
    """Shared state: quotient, lift table, base table, interned words
    and the memoized Q computation."""

    def __init__(self):
        self.q = standard_quotient()
        self._img_a = self.q.coset_of("a")
        lifts = standard_lift_table()
        self._lift_rows = tuple(
            tuple(lifts.lift(i, j) for j in range(16)) for i in range(16))
        # rows translating a lifted coset by the image of a (or not)
        self._trans_rows = (tuple(range(16)),
                            tuple(self.q.mult(t, self._img_a)
                                  for t in range(16)))
        self._s_cache: dict[tuple[int, int, bool], int] = {}
        self._n_cache: dict[tuple[int, int, int, bool], int] = {}
        # interned words: id -> (word, parity, len<=1, child ids,
        #                        section cosets)
        self._ids: dict[str, int] = {}
        self._words: list[str] = []
        self._parity: list[int] = []
        self._base: list[bool] = []
        self._children: list[tuple[int, int] | None] = []
        self._sec_cosets: list[tuple[int, int] | None] = []
        # per word w = g n g^-1: (id of the core n, cos(g))
        self._cores: list[tuple[int, int] | None] = []
        self._memo: dict[tuple[int, int], int] = {}
        self._t_cache: dict[tuple[int, int, int], int] = {}
        self.base_table = self._build_base()

    # -- interning ---------------------------------------------------

    def intern(self, word: str) -> int:
        wid = self._ids.get(word)
        if wid is None:
            # a foreign letter raises before anything is recorded
            check_letters(word)
            wid = len(self._words)
            self._ids[word] = wid
            self._words.append(word)
            self._parity.append(a_parity(word))
            self._base.append(len(word) <= 1)
            self._children.append(None)
            self._sec_cosets.append(None)
            self._cores.append(None)
        return wid

    def _core(self, wid: int) -> tuple[int, int]:
        """The core id and frame coset of an interned (reduced) word."""
        got = self._cores[wid]
        if got is None:
            n, g = cyclic_core(self._words[wid])
            # coset 0 is the identity: an empty frame needs no lookup
            got = self._cores[wid] = (self.intern(n),
                                      self.q.coset_of(g) if g else 0)
        return got

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
                ch = (self.intern(join_reduced(w0, w1)),
                      self.intern(join_reduced(w1, w0)))
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
            mult = self.q.mult_table
            trans = self._trans_rows[translate]
            inv_cu = self.q.inv_table[cu]
            row_v = mult[cv1]
            for i in range(16):
                if not mask >> i & 1:
                    continue
                t = lift_rows[i][mult[row_v[i]][inv_cu]]
                if t is not None:
                    out |= 1 << trans[t]
            self._n_cache[key] = out
        return out

    def _translate(self, mask: int, cg: int, ch: int) -> int:
        """The mask cos(g) * Q * cos(h)^-1, given cg = cos(g) and
        ch = cos(h)."""
        if not mask or not (cg or ch):
            return mask
        key = (mask, cg, ch)
        out = self._t_cache.get(key)
        if out is None:
            out = 0
            mult = self.q.mult_table
            left = mult[cg]
            inv_h = self.q.inv_table[ch]
            for t in range(16):
                if mask >> t & 1:
                    out |= 1 << mult[left[t]][inv_h]
            self._t_cache[key] = out
        return out

    # -- base table ----------------------------------------------------

    def _build_base(self) -> dict[tuple[str, str], int]:
        """Q-masks of the 25 pairs of words of length <= 1, keyed by
        words.  Their children are among them again ("" and a have
        children ("", ""), b has (a, c), c has (a, d), d has ("", b)),
        so the table is the greatest fixed point of the node rule on
        these pairs: start every mask full and re-apply the rule until
        nothing changes.  Every combinator is monotone, so the iteration
        only shrinks masks and stops.  The result is cross-checked
        against the commuting lower bound on the b, c, d diagonal, empty
        off-diagonals and the known sizes."""
        q = self.q
        ids = [self.intern(w) for w in ("", "a", "b", "c", "d")]
        nodes = {(iu, iv): self._expand(iu, iv) for iu in ids for iv in ids}
        table = dict.fromkeys(nodes, _FULL)
        while True:
            new = {key: self._node_mask(*key, *node, table.__getitem__)
                   for key, node in nodes.items()}
            if new == table:
                break
            table = new
        base = {(self._words[iu], self._words[iv]): m
                for (iu, iv), m in table.items()}

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
        if (base[("b", "b")] != lower_bcd or base[("c", "c")] != lower_bcd
                or base[("d", "d")] != lower_d):
            raise RuntimeError("letter-diagonal fixed point does not match "
                               "the commuting lower bound")
        for (u, v), m in base.items():
            if u != v and m:
                raise RuntimeError(f"base set for ({display(u)}, "
                                   f"{display(v)}) should be empty")

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
        """Q(u, v) as a mask, decided on the cyclic cores: with
        u = h n h^-1 and v = g m g^-1 it is cos(g) Q(n, m) cos(h)^-1."""
        n, h = cyclic_core(reduce_word(u))
        m, g = cyclic_core(reduce_word(v))
        coset = self.q.coset_of
        return self._translate(
            self._q_rec(self.intern(n), self.intern(m), set()),
            coset(g), coset(h))

    def _branch(self, iu: int, iv: int) -> tuple[str, tuple]:
        """Node kind of a pair in the decision and its child pairs: an
        equal-parity pair of words of length <= 1 is a base-table leaf,
        any other pair expands."""
        if (self._base[iu] and self._base[iv]
                and self._parity[iu] == self._parity[iv]):
            return "leaf-base", ()
        return self._expand(iu, iv)

    def _expand(self, iu: int, iv: int) -> tuple[str, tuple]:
        """Node kind of a pair by the rule alone and its child pairs, in
        the order (u0, v0), (u1, v1), (u0, v1), (u1, v0) for an S-node
        and (u0, v0), (u1, v0) for an N-node; a mixed-parity pair is an
        empty leaf with no children."""
        if self._parity[iu] != self._parity[iv]:
            return "leaf-empty", ()
        u0, u1 = self._child_ids(iu)
        v0, v1 = self._child_ids(iv)
        if self._parity[iu] == 0:
            return "S", ((u0, v0), (u1, v1), (u0, v1), (u1, v0))
        return "N", ((u0, v0), (u1, v0))

    def _node_mask(self, iu: int, iv: int, kind: str, pairs: tuple,
                   child) -> int:
        """The S- or N-rule: the mask of pair (iu, iv) from the masks
        child(pair) of its child pairs.  A partner mask is asked for
        only when its first mask is nonzero; an empty leaf gives 0."""
        m = 0
        if kind == "S":
            p00, p11, p01, p10 = pairs
            a = child(p00)
            if a:
                b = child(p11)
                if b:
                    m |= self._s_combine(a, b, False)
            c = child(p10)
            if c:
                d = child(p01)
                if d:
                    m |= self._s_combine(c, d, True)
        elif kind == "N":
            cu0, cu1 = self._sec_cosets[iu]
            cv1 = self._sec_cosets[iv][1]
            p00, p10 = pairs
            a = child(p00)
            if a:
                m |= self._n_combine(a, cv1, cu1, False)
            b = child(p10)
            if b:
                m |= self._n_combine(b, cv1, cu0, True)
        return m

    def _q_rec(self, iu: int, iv: int, onstack: set) -> int:
        """Q-mask of the pair (iu, iv), memoized.  Its children are
        decided on their cores (_core_mask), so below the root the memo
        is keyed by pairs of cores.

        The recursion ends: a core is a subword of its word, rotated by
        at most one star, and where that star meets another they merge
        into the third (bac -> ad), whose weight is at most their sum
        (gamma_c + gamma_d = gamma_b, the other two sums are larger).
        So a core's norm is never larger than its word's, and the norm
        contraction of the children holds for their cores as well.
        onstack catches any cycle among the pairs of small norm, where
        contraction does not bite."""
        key = (iu, iv)
        memo = self._memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        kind, pairs = self._branch(iu, iv)
        if kind == "leaf-base":
            m = self.base_table[(self._words[iu], self._words[iv])]
        else:
            if key in onstack:
                raise RuntimeError(
                    "cyclic Q dependency at "
                    f"({self._words[iu]!r}, {self._words[iv]!r})")
            onstack.add(key)
            m = self._node_mask(iu, iv, kind, pairs,
                                lambda pair: self._core_mask(*pair, onstack))
            onstack.discard(key)
        memo[key] = m
        return m

    def _core_mask(self, iu: int, iv: int, onstack: set) -> int:
        """Q-mask of a child pair, from the pair of its cores."""
        n, ch = self._core(iu)
        m, cg = self._core(iv)
        return self._translate(self._q_rec(n, m, onstack), cg, ch)

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
    conjugate.  Decided on the cyclic cores n of u = h n h^-1 and m of
    v = g m g^-1 as cos(g) * Q(n, m) * cos(h)^-1."""
    return _mask_to_set(shared_context().q_mask(u, v))


def are_conjugate(u: str, v: str) -> bool:
    return shared_context().q_mask(u, v) != 0


# -- explicit trees and the size census ---------------------------------


class ConjNode(_Node):
    """Node of the explicit (unshared) branching tree for a pair; kind
    is "S", "N", "leaf-base" or "leaf-empty"."""

    _graph = "conj"

    def __init__(self, u: str, v: str, kind: str, q: frozenset,
                 children: list[ConjNode] | None = None):
        self.u, self.v, self.kind, self.q = u, v, kind, q
        self.children = [] if children is None else children

    def to_dict(self) -> dict:
        return {
            "u": display(self.u),
            "v": display(self.v),
            "kind": self.kind,
            "q": sorted(self.q),
            "children": [child.to_dict() for child in self.children],
        }

    def _dot_label(self) -> str:
        qtxt = "{" + ", ".join(str(i) for i in sorted(self.q)) + "}"
        return (f"({display(self.u)}, {display(self.v)})"
                f"\\n{self.kind}  Q={qtxt}")


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


def word_tree_size(word: str) -> int:
    """Size of the halving tree under a word, reduced first: leaves are
    words of length <= 1, inner nodes carry the two children.  Sized by
    sharing, with a memo over interned words local to the call."""
    ctx = shared_context()
    memo: dict[int, int] = {}

    def size(wid: int) -> int:
        if wid not in memo:
            children = () if ctx._base[wid] else ctx._child_ids(wid)
            memo[wid] = 1 + sum(map(size, children))
        return memo[wid]

    return size(ctx.intern(reduce_word(word)))


def word_children(word: str) -> tuple[str, str]:
    """The two per-coordinate children the branching step gives a word."""
    ctx = shared_context()
    c0, c1 = ctx._child_ids(ctx.intern(reduce_word(word)))
    return ctx._words[c0], ctx._words[c1]


def subtree_size_census():
    """All reduced words of length >= 2 whose norm is strictly below
    _CENSUS_NORM_BOUND, with their two children and halving-tree size."""
    rows = []
    for n in count(2):
        # the cheapest reduced word of length n has n//2 letters 'a' and
        # all stars 'd'; once it reaches the bound, so do longer words
        least = (n // 2) * GAMMA_A + (n - n // 2) * GAMMA_D
        if (least - _CENSUS_NORM_BOUND).sign() >= 0:
            break
        for w in enumerate_reduced(n, min_len=n):
            if (norm(w) - _CENSUS_NORM_BOUND).sign() < 0:
                c0, c1 = word_children(w)
                rows.append((w, c0, c1, word_tree_size(w)))
    return rows
