"""Order-16 quotient, coset arithmetic, and the section-pair lift table."""

import random
import re
from collections import Counter
from itertools import product

import pytest

import grigorchuk.quotient
from grigorchuk.quotient import (K_GENERATORS, LiftTable, Quotient,
                                 build_lift_table, build_quotient,
                                 standard_lift_table, standard_quotient)
from grigorchuk.splitting import split
from grigorchuk.word_problem import is_trivial
from grigorchuk.words import (WordError, a_parity, enumerate_reduced, inverse,
                              random_reduced_word, reduce_word)


def test_quotient_has_sixteen_elements():
    q = standard_quotient()
    assert q.size == 16
    assert len(q.rep_words) == 16
    assert len(set(q.rep_words)) == 16
    assert q.rep_words[0] == ""


def test_canonical_numbering_is_pinned():
    # grig coset, grig conj and the lift CSV print these numbers
    assert standard_quotient().rep_words == (
        "", "a", "b", "c", "d", "ab", "ac", "ad", "ca", "da", "aca", "ada",
        "cac", "cad", "acac", "acad")


def test_a_model_breaking_a_relator_is_rejected(monkeypatch):
    model = grigorchuk.quotient._MODEL
    monkeypatch.setitem(model, "b", model["d"])
    with pytest.raises(RuntimeError, match="relator bcd"):
        build_quotient()


def test_group_axioms_exhaustively():
    q = standard_quotient()
    for i in range(16):
        assert q.mult(0, i) == i
        assert q.mult(i, 0) == i
        assert q.mult(i, q.inv(i)) == 0
        assert q.mult(q.inv(i), i) == 0
        for j in range(16):
            for k in range(16):
                assert q.mult(q.mult(i, j), k) == q.mult(i, q.mult(j, k))


def test_generator_images_and_relators():
    q = standard_quotient()
    a, b, c, d = (q.coset_of(x) for x in "abcd")
    assert sorted({a, b, c, d}) == [1, 2, 3, 4]
    for g in (a, b, c, d):
        assert q.mult(g, g) == 0
    assert q.mult(b, c) == d
    assert q.mult(c, d) == b
    # (ad)^4 and (ac)^8 die in the quotient
    ad = q.mult(a, d)
    ac = q.mult(a, c)
    x = 0
    for _ in range(4):
        x = q.mult(x, ad)
    assert x == 0
    x = 0
    for _ in range(8):
        x = q.mult(x, ac)
    assert x == 0
    # but (ad)^2 survives: the quotient is not elementary abelian
    assert q.mult(ad, ad) != 0
    assert q.mult(a, d) != q.mult(d, a)


def test_relators_split_into_true_and_proper_ones():
    q = standard_quotient()
    # these hold in the full group as well as in the quotient
    for w in ("aa", "bb", "cc", "dd", "bcd", "adadadad", "ac" * 8):
        assert is_trivial(w)
        assert q.coset_of(w) == 0
    # (ab)^2 is killed only downstairs: it generates the kernel
    assert q.coset_of("abab") == 0
    assert not is_trivial("abab")


def test_coset_of_is_a_homomorphism():
    q = standard_quotient()
    rng = random.Random(0)
    for _ in range(2000):
        u = random_reduced_word(rng, rng.randrange(0, 12))
        v = random_reduced_word(rng, rng.randrange(0, 12))
        assert q.coset_of(u + v) == q.mult(q.coset_of(u), q.coset_of(v))
        assert q.coset_of(inverse(u)) == q.inv(q.coset_of(u))


def test_coset_of_a_foreign_letter_names_letter_and_word():
    with pytest.raises(WordError, match="'x' in word 'abxa'"):
        standard_quotient().coset_of("abxa")
    # letters are checked before the word is encoded, which a lone
    # surrogate would fail with a UnicodeEncodeError
    for word, letter in (("ab\ud800", "\ud800"), ("\udfffa", "\udfff"),
                         ("abé", "é"), ("aB", "B")):
        with pytest.raises(WordError,
                           match=re.escape(f"{letter!r} in word {word!r}")):
            standard_quotient().coset_of(word)


def _table_walk(q):
    """coset_of by walking the product table letter by letter from the
    identity."""
    rows = [dict(zip("abcd", row)) for row in q.table]

    def walk(word):
        c = 0
        for ch in word:
            c = rows[c][ch]
        return c

    return walk


def test_coset_of_matches_the_table_walk_on_short_words():
    q = standard_quotient()
    walk = _table_walk(q)
    count = 0
    for n in range(9):
        for letters in product("abcd", repeat=n):
            word = "".join(letters)
            assert q.coset_of(word) == walk(word), word
            count += 1
    assert count == (4 ** 9 - 1) // 3


def test_coset_of_matches_the_table_walk_on_long_unreduced_words():
    q = standard_quotient()
    walk = _table_walk(q)
    rng = random.Random(2)
    for _ in range(2000):
        word = "".join(rng.choices("abcd", k=rng.randrange(5001)))
        assert q.coset_of(word) == walk(word)


def test_a_count_map_missing_an_element_is_rejected(monkeypatch):
    # c left as it is in the x-part: the counts no longer see that c
    # moves x, and the edge check finds a word they place wrongly
    monkeypatch.setattr(grigorchuk.quotient, "_X_PART",
                        bytes.maketrans(b"", b""))
    with pytest.raises(RuntimeError, match="letter counts of"):
        build_quotient()


def test_rep_words_hit_their_own_cosets():
    q = standard_quotient()
    for i, w in enumerate(q.rep_words):
        assert q.coset_of(w) == i


def test_parity_matches_word_parity():
    q = standard_quotient()
    for n in range(0, 9):
        for w in enumerate_reduced(n, min_len=n):
            assert q.parity[q.coset_of(w)] == a_parity(w)


def test_even_cosets_form_an_index_two_subgroup():
    q = standard_quotient()
    ev = q.even_cosets()
    assert len(ev) == 8
    assert 0 in ev
    s = set(ev)
    for i in s:
        assert q.inv(i) in s
        for j in s:
            assert q.mult(i, j) in s


def test_k_generators_die_in_the_quotient():
    q = standard_quotient()
    assert len(K_GENERATORS) == 3
    for w in K_GENERATORS:
        assert q.coset_of(w) == 0
        assert not is_trivial(w)   # they are nontrivial upstairs


def test_quotient_soundness_on_small_words():
    # coset != identity implies the word is nontrivial
    q = standard_quotient()
    for n in range(0, 9):
        for w in enumerate_reduced(n, min_len=n):
            if q.coset_of(w) != 0:
                assert not is_trivial(w)


def test_rebuild_is_deterministic():
    q1 = build_quotient()
    q2 = build_quotient()
    assert q1.rep_words == q2.rep_words
    assert q1.table == q2.table
    assert q1.parity == q2.parity


def test_lift_table_shape():
    lt = standard_lift_table()
    assert len(lt.pairs) == 32
    q = standard_quotient()
    ev = set(q.even_cosets())
    values = Counter(v for v in lt.pairs.values())
    assert set(values) == ev
    assert all(n == 4 for n in values.values())
    lefts = Counter(i for i, _ in lt.pairs)
    rights = Counter(j for _, j in lt.pairs)
    assert all(n == 2 for n in lefts.values())
    assert all(n == 2 for n in rights.values())
    assert len(lefts) == 16 and len(rights) == 16


def test_lift_table_domain_is_swap_symmetric():
    lt = standard_lift_table()
    dom = set(lt.pairs)
    assert {(j, i) for i, j in dom} == dom
    diag = sorted(p for p in dom if p[0] == p[1])
    assert len(diag) == 4
    diag_values = Counter(lt.pairs[p] for p in diag)
    assert sorted(diag_values.values()) == [2, 2]


def test_lift_consistency_on_random_even_words():
    q = standard_quotient()
    lt = standard_lift_table()
    rng = random.Random(1)
    for _ in range(3000):
        w = random_reduced_word(rng, 2 * rng.randrange(0, 10))
        if a_parity(w) != 0:
            continue
        w0, w1 = split(w)
        key = (q.coset_of(w0), q.coset_of(w1))
        assert key in lt.pairs
        assert lt.pairs[key] == q.coset_of(w)


def test_unliftable_pairs_are_rejected():
    lt = standard_lift_table()
    q = standard_quotient()
    assert lt.lift(0, 0) == 0
    found_missing = False
    for i in range(16):
        for j in range(16):
            if (i, j) not in lt.pairs:
                found_missing = True
                assert lt.lift(i, j) is None
    assert found_missing


def test_lift_rebuild_is_stable_under_shuffling():
    base = standard_lift_table()
    q = standard_quotient()
    for seed in (7, 11, 13):
        rebuilt = build_lift_table(q, rng=random.Random(seed))
        assert rebuilt.pairs == base.pairs


def test_lift_walk_matches_the_even_word_scan():
    # independent reference: every even reduced word of up to 12 letters
    # gives a conflict-free triple, and together they give every pair
    q = standard_quotient()
    words = [w for w in enumerate_reduced(12) if a_parity(w) == 0]
    assert len(words) == 2185
    scanned = {}
    for w in words:
        w0, w1 = split(w)
        key = (q.coset_of(w0), q.coset_of(w1))
        assert scanned.setdefault(key, q.coset_of(w)) == q.coset_of(w)
    assert scanned == standard_lift_table().pairs


def test_lift_walk_splits_one_word_per_pair_and_factor(monkeypatch):
    calls = []

    def counting_split(word):
        calls.append(word)
        return split(word)

    monkeypatch.setattr(grigorchuk.quotient, "split", counting_split)
    build_lift_table(build_quotient())
    assert len(calls) <= 1 + 6 * 32


def test_lift_csv_round_trip():
    lt = standard_lift_table()
    text = lt.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "i,j,lifted"
    assert len(lines) == 33
    parsed = {}
    for line in lines[1:]:
        i, j, v = (int(t) for t in line.split(","))
        parsed[(i, j)] = v
    assert parsed == lt.pairs
