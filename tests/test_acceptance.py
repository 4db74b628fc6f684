"""Acceptance suite: ten end-to-end criteria, one printed line each.

Each test prints exactly one line of the form

    acceptance NN PASS <what was checked>

(or FAIL) on the real terminal, bypassing pytest capture, so the
verdicts are visible in a plain ``pytest -v`` run.
"""

import math
import random
import time

from grigorchuk.algebraic import ALPHA, GAMMA_A, AlgebraicValue
from grigorchuk.conjugacy import (ConjContext, are_conjugate, q_set,
                                  subtree_size_census)
from grigorchuk.oracle import validate_small_instances
from grigorchuk.quotient import (K_GENERATORS, build_lift_table,
                                 standard_lift_table, standard_quotient)
from grigorchuk.splitting import split, split_shifted
from grigorchuk.tree_action import is_trivial_at_depth, oracle_depth
from grigorchuk.word_problem import build_wp_tree, equal, is_trivial
from grigorchuk.words import (a_parity, enumerate_reduced, inverse, norm,
                              random_reduced_word, reduce_word)

# reference table: every reduced word of length >= 2 with norm < 9,
# its two per-coordinate children ("1" stands for the empty word) and
# the size of its halving tree
KNOWN_CENSUS = {
    "ab": ("ca", "ac", 15),
    "aba": ("c", "a", 3),
    "abab": ("ca", "ac", 15),
    "abac": ("ca", "ad", 11),
    "abaca": ("b", "aba", 5),
    "abad": ("c", "ab", 17),
    "abada": ("cab", "ad", 9),
    "abadad": ("dab", "ac", 17),
    "ac": ("da", "ad", 7),
    "aca": ("d", "a", 3),
    "acab": ("da", "ac", 11),
    "acaba": ("b", "aba", 5),
    "acac": ("da", "ad", 7),
    "acaca": ("1", "1", 3),
    "acacad": ("dabad", "b", 7),
    "acad": ("d", "ab", 17),
    "acada": ("dab", "ac", 17),
    "acadac": ("aba", "aba", 7),
    "acadad": ("cab", "ad", 9),
    "ad": ("b", "b", 3),
    "ada": ("b", "1", 3),
    "adab": ("ba", "c", 17),
    "adaba": ("bac", "da", 9),
    "adabad": ("bad", "dab", 19),
    "adac": ("ba", "d", 17),
    "adaca": ("bad", "ca", 17),
    "adacac": ("b", "dabad", 7),
    "adacad": ("bac", "cab", 11),
    "adad": ("b", "b", 3),
    "adada": ("1", "1", 3),
    "adadab": ("ca", "bad", 17),
    "adadac": ("da", "bac", 9),
    "adadad": ("b", "b", 3),
    "ba": ("ac", "ca", 15),
    "bab": ("1", "1", 3),
    "baba": ("ac", "ca", 15),
    "babac": ("aca", "cad", 21),
    "babad": ("ac", "cab", 13),
    "bac": ("aba", "b", 5),
    "baca": ("ad", "ca", 11),
    "bacab": ("ada", "cac", 7),
    "bacac": ("ada", "cad", 21),
    "bacad": ("ad", "cab", 9),
    "bad": ("ad", "cab", 9),
    "bada": ("ab", "c", 17),
    "badab": ("aba", "1", 5),
    "badac": ("aba", "b", 5),
    "badad": ("ab", "d", 17),
    "badada": ("ac", "dab", 17),
    "ca": ("ad", "da", 7),
    "cab": ("aba", "b", 5),
    "caba": ("ac", "da", 11),
    "cabab": ("aca", "dac", 21),
    "cabac": ("aca", "dad", 7),
    "cabad": ("ac", "dab", 17),
    "cac": ("1", "1", 3),
    "caca": ("ad", "da", 7),
    "cacab": ("ada", "dac", 21),
    "cacac": ("ada", "dad", 7),
    "cacad": ("ad", "dab", 13),
    "cacada": ("b", "dabad", 7),
    "cad": ("ac", "dab", 17),
    "cada": ("ab", "d", 17),
    "cadab": ("aba", "b", 5),
    "cadac": ("aba", "1", 5),
    "cadaca": ("aba", "aba", 7),
    "cadad": ("ab", "c", 17),
    "cadada": ("ad", "cab", 9),
    "cadadad": ("ac", "ca", 15),
    "da": ("b", "b", 3),
    "dab": ("da", "bac", 9),
    "daba": ("c", "ba", 17),
    "dabab": ("ca", "bac", 13),
    "dabac": ("ca", "bad", 17),
    "dabad": ("c", "bab", 5),
    "dabada": ("dab", "bad", 19),
    "dac": ("ca", "bad", 17),
    "daca": ("d", "ba", 17),
    "dacab": ("da", "bac", 9),
    "dacac": ("da", "bad", 13),
    "dacaca": ("dabad", "b", 7),
    "dacad": ("d", "bab", 5),
    "dacada": ("cab", "bac", 11),
    "dacadad": ("dab", "bad", 19),
    "dad": ("1", "1", 3),
    "dada": ("b", "b", 3),
    "dadab": ("ba", "d", 17),
    "dadaba": ("bad", "ca", 17),
    "dadac": ("ba", "c", 17),
    "dadaca": ("bac", "da", 9),
    "dadacad": ("bad", "dab", 19),
    "dadad": ("b", "1", 3),
    "dadada": ("b", "b", 3),
    "dadadac": ("ca", "ac", 15),
    "dadadad": ("1", "1", 3),
}


def _announce(capsys, num, desc, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num:02d} FAIL {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"acceptance {num:02d} PASS {desc}", flush=True)


def test_01_census(capsys):
    def check():
        t0 = time.perf_counter()
        rows = subtree_size_census()
        elapsed = time.perf_counter() - t0
        got = {w: (c0 or "1", c1 or "1", size) for w, c0, c1, size in rows}
        assert got == KNOWN_CENSUS
        assert len(got) == 95
        assert max(size for *_x, size in got.values()) == 21
        assert elapsed < 1.0, f"census took {elapsed:.3f}s"
    _announce(capsys, 1, "norm<9 census reproduces all 95 reference rows "
              "(max tree 21) in under 1s", check)


def test_02_lift_table(capsys):
    def check():
        q = standard_quotient()
        lt = standard_lift_table()
        assert len(lt.pairs) == 32
        even = q.even_cosets()
        assert len(even) == 8
        counts = {}
        for v in lt.pairs.values():
            counts[v] = counts.get(v, 0) + 1
        assert counts == {c: 4 for c in even}
        for seed in (3, 5, 9):
            rebuilt = build_lift_table(q, rng=random.Random(seed))
            assert rebuilt.pairs == lt.pairs
    _announce(capsys, 2, "lift table has 32 pairs, each even coset 4x, "
              "identical under shuffled rebuilds", check)


def test_03_quotient(capsys):
    def check():
        q = standard_quotient()
        assert q.size == 16
        for w in K_GENERATORS:
            assert q.coset_of(w) == 0
            assert not is_trivial(w)
        even = set(q.even_cosets())
        assert len(even) == 8 and 0 in even
        for i in even:
            assert q.inv(i) in even
            for j in even:
                assert q.mult(i, j) in even
        relator = "adadadad"
        assert is_trivial(relator)
        assert is_trivial_at_depth(relator, oracle_depth(len(relator)))
        assert q.coset_of(relator) == 0
        assert q.coset_of("a") != 0
        for i, w in enumerate(q.rep_words):
            assert q.coset_of(w) == i
            assert q.parity[i] == a_parity(w)
    _announce(capsys, 3, "order-16 quotient kills the kernel generators, "
              "splits into parity halves, satisfies (ad)^4", check)


def test_04_kernel_splitting(capsys):
    def check():
        q = standard_quotient()
        w1 = reduce_word("badabada")
        assert q.coset_of(w1) == 0 and a_parity(w1) == 0
        assert split(w1) == ("abab", "")
        assert split("abadabad") == ("", "abab")
        w2 = reduce_word("badab" + "aca" + "badab" + "aca")
        assert q.coset_of(w2) == 0
        s0, s1 = split(w2)
        assert equal(s0, "abadabad") and equal(s1, "")
        w3 = reduce_word("c" + "badab" + "aca" + "badab" + "aca" + "c")
        assert q.coset_of(w3) == 0
        s0, s1 = split(w3)
        assert equal(s0, "badabada") and equal(s1, "")
    _announce(capsys, 4, "kernel generators reappear as sections of "
              "explicit kernel words", check)


def test_05_base_table(capsys):
    def check():
        ctx = ConjContext()
        sizes = [ctx.base_table[(x, x)].bit_count()
                 for x in ("", "a", "b", "c", "d")]
        assert sizes == [16, 4, 4, 4, 8]
        for x in "abcd":
            assert ctx.base_table[("", x)] == 0
            assert ctx.base_table[(x, "")] == 0
        for x, y in (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                     ("b", "d"), ("c", "d")):
            assert ctx.base_table[(x, y)] == 0
            assert ctx.base_table[(y, x)] == 0
    _announce(capsys, 5, "base conjugacy table cardinalities are "
              "[16, 4, 4, 4, 8] with empty off-diagonals", check)


def test_06_word_problem(capsys):
    def check():
        def oracle(w):
            return is_trivial_at_depth(w, oracle_depth(max(len(w), 1)))

        def check_height(w):
            tree = build_wp_tree(w)
            bound = math.log2(len(w)) + 1 if len(w) > 1 else 1
            assert tree.height() <= bound

        for n in range(0, 11):
            for w in enumerate_reduced(n, min_len=n):
                assert is_trivial(w) == oracle(w), w
                check_height(w)
        rng = random.Random(20)
        for _ in range(10000):
            w = random_reduced_word(rng, rng.randrange(0, 201))
            assert is_trivial(w) == oracle(w), w
            check_height(w)
    _announce(capsys, 6, "word problem agrees with the tree oracle on all "
              "words to length 10 plus 10^4 random ones; certificate "
              "height stays below log2(n)+1", check)


def test_07_norm_contraction(capsys):
    def check():
        def split_sum(w):
            if a_parity(w) == 0:
                w0, w1 = split(w)
            else:
                w0, w1 = split_shifted(w)
            return norm(w0) + norm(w1)

        shape_seen = {"both": 0, "one": 0, "neither": 0}
        for n in range(2, 13):
            for w in enumerate_reduced(n, min_len=n):
                nw = norm(w)
                s = split_sum(w)
                assert (nw + GAMMA_A - ALPHA * s).sign() >= 0  # corollary
                if a_parity(w) != 0:
                    continue
                ends_a = (w[0] == "a") + (w[-1] == "a")
                lhs = ALPHA * s
                if ends_a == 2:
                    shape_seen["both"] += 1
                    assert (nw - GAMMA_A - lhs).sign() >= 0
                elif ends_a == 1:
                    shape_seen["one"] += 1
                    assert (nw - lhs).sign() >= 0
                else:
                    shape_seen["neither"] += 1
                    assert (nw + GAMMA_A - lhs).sign() >= 0
        assert all(v > 50 for v in shape_seen.values())

        nine = AlgebraicValue.from_int(9)
        two_hundred = AlgebraicValue.from_int(200)
        seen_nine = seen_big = 0
        rng = random.Random(21)
        for _ in range(10000):
            w = random_reduced_word(rng, rng.randrange(2, 201))
            nw = norm(w)
            s = split_sum(w)
            assert (nw + GAMMA_A - ALPHA * s).sign() >= 0
            if (nw - nine).sign() >= 0:
                seen_nine += 1
                assert (100 * nw - 103 * s).sign() >= 0
            if (nw - two_hundred).sign() >= 0:
                seen_big += 1
                assert (100 * nw - 122 * s).sign() >= 0
        assert seen_nine > 5000 and seen_big > 100
    _announce(capsys, 7, "norm contraction holds exactly: per-shape "
              "bounds, +gamma_a corollary, and the 1.03/1.22 "
              "threshold ratios", check)


def test_08_conjugacy_vs_truth(capsys):
    def check():
        q = standard_quotient()
        rng = random.Random(22)
        for _ in range(1000):
            u = random_reduced_word(rng, rng.randrange(0, 15))
            x = random_reduced_word(rng, rng.randrange(0, 11))
            v = reduce_word(x + u + inverse(x))
            qs = q_set(u, v)
            assert q.coset_of(x) in qs
            assert are_conjugate(u, v)
        for u, v in (("b", "c"), ("b", "d"), ("c", "d"),
                     ("a", "b"), ("a", "c"), ("a", "d")):
            assert not are_conjugate(u, v)
        report = validate_small_instances(max_word_len=4, witness_budget=16)
        assert report["violations"] == []
        assert report["pairs_checked"] == 41 * 41
        assert report["conjugate_pairs"] > 100
    _announce(capsys, 8, "branching decision certifies 10^3 constructed "
              "conjugacies and survives the exhaustive small-pair sweep",
              check)


def test_09_pair_tree_bound(capsys):
    def check():
        words = sorted(KNOWN_CENSUS) + ["", "a", "b", "c", "d"]
        assert len(words) == 100
        ctx = ConjContext()
        worst = 0
        for u in words:
            for v in words:
                worst = max(worst, ctx.tree_size(u, v))
        assert worst <= 42, worst
    _announce(capsys, 9, "fully expanded pair trees over the norm<9 "
              "vocabulary stay within 42 nodes", check)


def test_10_performance(capsys):
    def check():
        from grigorchuk.bench import fit_exponent, run_bench
        rng = random.Random(23)
        for _ in range(3):
            u = random_reduced_word(rng, 1000)
            v = random_reduced_word(rng, 1000)
            t0 = time.perf_counter()
            ctx = ConjContext()
            ctx.q_mask(u, v)
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"length-1000 pair took {elapsed:.3f}s"
        records = run_bench(max_len=1024, samples=3, seed=0)
        assert fit_exponent(records, "tree_size") <= 7.0
    _announce(capsys, 10, "length-1000 conjugacy decided in under 1s per "
              "pair; tree growth exponent at most 7", check)
