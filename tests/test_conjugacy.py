"""Branching conjugacy decision: Q-sets, explicit trees, and the census."""

import json
import random

import pytest

from grigorchuk.algebraic import ALPHA, GAMMA_A, AlgebraicValue
from grigorchuk.conjugacy import (ConjContext, are_conjugate, build_conj_tree,
                                  explicit_tree_size, q_set, shared_context,
                                  subtree_size_census, word_children,
                                  word_tree_size)
from grigorchuk.quotient import standard_quotient
from grigorchuk.splitting import split, split_shifted
from grigorchuk.word_problem import equal, is_trivial
from grigorchuk.words import (WordError, a_parity, enumerate_reduced, inverse,
                              norm, random_reduced_word, reduce_word)


def test_base_table_cardinalities():
    ctx = ConjContext()
    sizes = [ctx.base_table[(x, x)].bit_count()
             for x in ("", "a", "b", "c", "d")]
    assert sizes == [16, 4, 4, 4, 8]


def test_base_table_off_diagonals_empty():
    ctx = ConjContext()
    for x in "abcd":
        assert ctx.base_table[("", x)] == 0
        assert ctx.base_table[(x, "")] == 0
    for x in "bcd":
        assert ctx.base_table[("a", x)] == 0
        assert ctx.base_table[(x, "a")] == 0
    for x, y in (("b", "c"), ("c", "b"), ("b", "d"),
                 ("d", "b"), ("c", "d"), ("d", "c")):
        assert ctx.base_table[(x, y)] == 0


def test_base_table_matches_witness_search():
    # Q(u, v) holds the cosets of the x with x^-1 v x = u; conjugators
    # of length <= 6 find exactly the cosets the table records
    q = standard_quotient()
    ctx = ConjContext()
    xs = enumerate_reduced(6)
    for u in ("", "a", "b", "c", "d"):
        for v in ("", "a", "b", "c", "d"):
            found = 0
            for x in xs:
                if equal(reduce_word(inverse(x) + v + x), u):
                    found |= 1 << q.coset_of(x)
            assert found == ctx.base_table[(u, v)], (u, v)


def test_q_set_of_identity_pair_is_everything():
    assert q_set("", "") == frozenset(range(16))
    assert q_set("", "bcd") == frozenset(range(16))


def test_q_aa_contains_identity_and_a():
    q = standard_quotient()
    s = q_set("a", "a")
    assert 0 in s
    assert q.coset_of("a") in s
    assert s == frozenset({0, 1, 12, 14})


def test_letters_pairwise():
    assert are_conjugate("b", "b")
    assert not are_conjugate("b", "c")
    assert not are_conjugate("b", "d")
    assert not are_conjugate("c", "d")
    assert not are_conjugate("a", "b")
    assert not are_conjugate("a", "")
    assert are_conjugate("ab", "ba")
    assert are_conjugate("abab", "baba")
    assert not are_conjugate("ab", "ad")


def test_conjugate_to_identity_iff_trivial():
    rng = random.Random(0)
    for _ in range(200):
        w = random_reduced_word(rng, rng.randrange(0, 16))
        assert are_conjugate(w, "") == is_trivial(w)
    assert are_conjugate("adadadad", "")
    assert are_conjugate("", "bcd")


def test_membership_soundness():
    # whenever v = x u x^-1 the coset of x must appear in Q(u, v)
    q = standard_quotient()
    rng = random.Random(1)
    checked = 0
    for _ in range(500):
        u = random_reduced_word(rng, rng.randrange(0, 14))
        x = random_reduced_word(rng, rng.randrange(0, 10))
        v = reduce_word(x + u + inverse(x))
        s = q_set(u, v)
        assert q.coset_of(x) in s
        assert s  # in particular nonempty
        checked += 1
    assert checked == 500


def test_reflexive_and_symmetric():
    rng = random.Random(2)
    for _ in range(200):
        u = random_reduced_word(rng, rng.randrange(0, 14))
        v = random_reduced_word(rng, rng.randrange(0, 14))
        assert are_conjugate(u, u)
        assert are_conjugate(u, v) == are_conjugate(v, u)


def test_invariant_under_conjugating_either_side():
    rng = random.Random(3)
    for _ in range(150):
        u = random_reduced_word(rng, rng.randrange(0, 10))
        v = random_reduced_word(rng, rng.randrange(0, 10))
        x = random_reduced_word(rng, rng.randrange(0, 6))
        ux = reduce_word(x + u + inverse(x))
        assert are_conjugate(u, v) == are_conjugate(ux, v)


def test_conjugate_words_have_equal_abelianization():
    from grigorchuk.oracle import abelian_image
    rng = random.Random(4)
    seen_conj = 0
    for _ in range(400):
        u = random_reduced_word(rng, rng.randrange(0, 10))
        v = random_reduced_word(rng, rng.randrange(0, 10))
        if are_conjugate(u, v):
            seen_conj += 1
            assert abelian_image(u) == abelian_image(v)
    assert seen_conj > 5


def test_nonempty_q_requires_quotient_conjugacy():
    q = standard_quotient()
    rng = random.Random(5)
    for _ in range(300):
        u = random_reduced_word(rng, rng.randrange(0, 10))
        v = random_reduced_word(rng, rng.randrange(0, 10))
        if q_set(u, v):
            assert q.conjugate_in_quotient(q.coset_of(u), q.coset_of(v))


def test_q_set_members_conjugate_in_quotient():
    # every coset in Q(u, v) conjugates cos(u) to cos(v) downstairs
    q = standard_quotient()
    rng = random.Random(6)
    for _ in range(300):
        u = random_reduced_word(rng, rng.randrange(0, 10))
        x = random_reduced_word(rng, rng.randrange(0, 6))
        v = reduce_word(x + u + inverse(x))
        cu, cv = q.coset_of(u), q.coset_of(v)
        for t in q_set(u, v):
            assert q.mult(q.mult(t, cu), q.inv(t)) == cv


def test_explicit_tree_matches_recursive_answer():
    rng = random.Random(7)
    for _ in range(60):
        u = random_reduced_word(rng, rng.randrange(0, 9))
        v = random_reduced_word(rng, rng.randrange(0, 9))
        tree = build_conj_tree(u, v)
        assert tree.q == q_set(u, v)
        assert tree.size() == explicit_tree_size(u, v)


def test_tree_structure_kinds():
    tree = build_conj_tree("", "")
    assert tree.kind == "leaf-base"
    assert tree.children == []
    assert tree.size() == 1

    tree = build_conj_tree("ab", "b")
    assert tree.kind == "leaf-empty"   # mixed parity dies immediately
    assert tree.q == frozenset()

    even = build_conj_tree("abab", "baba")
    assert even.kind == "S"
    assert len(even.children) == 4

    odd = build_conj_tree("ab", "ba")
    assert odd.kind == "N"
    assert len(odd.children) == 2


def test_tree_children_words():
    u, v = "abab", "baba"
    u0, u1 = split(u)
    v0, v1 = split(v)
    tree = build_conj_tree(u, v)
    got = [(c.u, c.v) for c in tree.children]
    assert got == [(u0, v0), (u1, v1), (u0, v1), (u1, v0)]

    u, v = "ab", "ba"
    u0, u1 = split_shifted(u)
    v0, v1 = split_shifted(v)
    tree = build_conj_tree(u, v)
    got = [(c.u, c.v) for c in tree.children]
    assert got == [(reduce_word(u0 + u1), reduce_word(v0 + v1)),
                   (reduce_word(u1 + u0), reduce_word(v0 + v1))]


def test_tree_json_and_dot():
    tree = build_conj_tree("ab", "ba")
    data = json.loads(tree.to_json())
    assert set(data) == {"u", "v", "kind", "q", "children"}
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert "->" in dot


def test_word_children():
    assert word_children("abab") == tuple(split("abab"))
    assert word_children("aba") == tuple(split("aba"))   # even parity
    u0, u1 = split_shifted("bab")                        # odd parity
    assert word_children("bab") == (reduce_word(u0 + u1),
                                    reduce_word(u1 + u0))
    assert word_children("bab") == ("", "")


def test_word_tree_size_definition():
    def size(w):
        if len(w) <= 1:
            return 1
        c0, c1 = word_children(w)
        return 1 + size(c0) + size(c1)
    rng = random.Random(8)
    for _ in range(100):
        w = random_reduced_word(rng, rng.randrange(0, 10))
        assert word_tree_size(w) == size(w)


def test_word_tree_size_sizes_the_reduced_word():
    assert word_tree_size("aa") == word_tree_size("bcd") == 1
    assert word_tree_size("abba" + "abab") == word_tree_size("abab")
    with pytest.raises(WordError):
        word_tree_size("x")


def test_census_has_95_rows_and_max_21():
    rows = subtree_size_census()
    assert len(rows) == 95
    assert max(size for *_1, size in rows) == 21
    lengths = {len(w) for w, *_ in rows}
    assert lengths == {2, 3, 4, 5, 6, 7}
    nine = AlgebraicValue.from_int(9)
    for w, c0, c1, size in rows:
        assert (nine - norm(w)).sign() > 0
        assert word_children(w) == (c0, c1)
        assert word_tree_size(w) == size


def test_census_spot_rows():
    rows = {w: (c0, c1, size) for w, c0, c1, size in subtree_size_census()}
    assert rows["ab"] == ("ca", "ac", 15)
    assert rows["ad"] == ("b", "b", 3)
    assert "bc" not in rows           # not reduced: bc collapses to d
    assert "a" not in rows            # single letters are below the bound
    assert all(reduce_word(w) == w for w in rows)


def test_child_norm_bounds():
    # every child produced by the branching step has norm at most
    # (norm(w) + 2*gamma_a) / alpha; even children obey the sharper
    # (norm(w) + gamma_a) / alpha
    rng = random.Random(9)
    for _ in range(400):
        w = random_reduced_word(rng, rng.randrange(2, 40))
        bound_even = norm(w) + GAMMA_A
        bound_odd = norm(w) + GAMMA_A + GAMMA_A
        c0, c1 = word_children(w)
        for child in (c0, c1):
            lhs = ALPHA * norm(child)
            if a_parity(w) == 0:
                assert (bound_even - lhs).sign() >= 0
            else:
                assert (bound_odd - lhs).sign() >= 0


def test_shared_and_fresh_contexts_agree():
    rng = random.Random(10)
    shared = shared_context()
    for _ in range(50):
        u = random_reduced_word(rng, rng.randrange(0, 10))
        v = random_reduced_word(rng, rng.randrange(0, 10))
        fresh = ConjContext()
        assert shared.q_mask(u, v) == fresh.q_mask(u, v)


def test_visited_pairs_grows_modestly():
    ctx = ConjContext()
    rng = random.Random(11)
    u = random_reduced_word(rng, 256)
    v = random_reduced_word(rng, 256)
    ctx.q_mask(u, v)
    assert 0 < ctx.visited_pairs < 5000


def test_conjugacy_consistent_with_equality():
    rng = random.Random(12)
    for _ in range(100):
        u = random_reduced_word(rng, rng.randrange(0, 12))
        x = random_reduced_word(rng, rng.randrange(0, 6))
        v = reduce_word(x + u + inverse(x))
        assert are_conjugate(u, v)
        if equal(u, v):
            assert are_conjugate(u, v)


def test_intern_of_a_foreign_letter_records_nothing():
    ctx = ConjContext()
    columns = (ctx._ids, ctx._words, ctx._parity, ctx._base,
               ctx._children, ctx._sec_cosets)
    before = len(ctx._words)
    for _ in range(2):
        with pytest.raises(ValueError):
            ctx.intern("ax")
        assert [len(column) for column in columns] == [before] * 6


def test_conjugate_pairs_visit_linearly_many_pairs(reduced_letters):
    # (u, x^-1 u x) with |u| = |x| = n/2, a fresh context per pair.
    # Measured per 4x step in n: visited pairs grow 1.4-2.8x and letters
    # passed to reduce_word 3.6-4.2x (ten seeds); linear work gives 4x,
    # quadratic work 16x.
    rng = random.Random(0)
    counts = []
    for n in (2 ** 10, 2 ** 12, 2 ** 14):
        u = random_reduced_word(rng, n // 2)
        x = random_reduced_word(rng, n // 2)
        v = reduce_word(inverse(x) + u + x)
        ctx = ConjContext()
        reduced_letters[0] = 0
        assert ctx.q_mask(u, v)
        counts.append((ctx.visited_pairs, reduced_letters[0]))
        assert counts[-1][1] >= n
    for (pairs, letters), (pairs4, letters4) in zip(counts, counts[1:]):
        assert pairs4 <= 4 * pairs and letters4 <= 6 * letters, counts
