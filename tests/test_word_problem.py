"""Word problem decision procedure and its certificate tree."""

import json
import math
import random
import re

import pytest

from grigorchuk.splitting import split
from grigorchuk.tree_action import is_trivial_at_depth, oracle_depth
from grigorchuk.word_problem import (WpNode, build_wp_tree, equal, is_trivial,
                                     tree_answer)
from grigorchuk.words import (WordError, a_parity, enumerate_reduced,
                              inverse, random_reduced_word, reduce_word)

from conftest import cyclic_normalize


def _oracle_trivial(w):
    w = reduce_word(w)
    return is_trivial_at_depth(w, oracle_depth(max(len(w), 1)))


def test_known_trivial_words():
    assert is_trivial("")
    assert is_trivial("bcd")
    assert is_trivial("aa")
    assert is_trivial("adadadad")
    assert is_trivial("adad" * 4)
    assert is_trivial("bb" + "adadadad" + "cdb")


def test_known_nontrivial_words():
    for w in ("a", "b", "c", "d", "ab", "abab", "abababab", "acacacac",
              "badabada", "abad"):
        assert not is_trivial(w)


def test_acacacacacacacac_is_trivial():
    assert is_trivial("ac" * 8)
    assert not is_trivial("ac" * 4)


def test_exhaustive_against_oracle():
    for n in range(0, 11):
        for w in enumerate_reduced(n, min_len=n):
            assert is_trivial(w) == _oracle_trivial(w), w


def test_random_against_oracle():
    rng = random.Random(0)
    for _ in range(1500):
        w = random_reduced_word(rng, rng.randrange(0, 64))
        assert is_trivial(w) == _oracle_trivial(w), w


def test_equal_basic():
    assert equal("b", "cd")
    assert equal("cd", "dc")
    assert equal("ab", "acd")
    assert not equal("ab", "ac")
    assert equal("", "bcd")
    assert not equal("abab", "baba")  # (ba)^2 = ((ab)^2)^-1 and ab has order 16
    assert equal("ab" * 8, "ba" * 8)  # ...so the 8th powers agree
    assert not equal("ab", "ba")


def test_equal_is_an_equivalence_respecting_products():
    rng = random.Random(1)
    for _ in range(300):
        u = random_reduced_word(rng, rng.randrange(0, 12))
        v = random_reduced_word(rng, rng.randrange(0, 12))
        assert equal(u, u)
        if equal(u, v):
            assert equal(v, u)
            assert equal(inverse(u), inverse(v))
            assert is_trivial(reduce_word(u + inverse(v)))


def test_inverse_gives_trivial_product():
    rng = random.Random(2)
    for _ in range(500):
        w = random_reduced_word(rng, rng.randrange(0, 40))
        assert is_trivial(reduce_word(w + inverse(w)))


def test_tree_answer_matches_is_trivial():
    rng = random.Random(3)
    for _ in range(400):
        w = random_reduced_word(rng, rng.randrange(0, 48))
        tree = build_wp_tree(w)
        assert tree_answer(tree) == is_trivial(w)


def test_tree_height_is_logarithmic():
    rng = random.Random(4)
    for length in (0, 1, 2, 5, 16, 64, 256, 1024):
        for _ in range(20):
            w = random_reduced_word(rng, length)
            tree = build_wp_tree(w)
            bound = math.log2(len(w)) + 1 if len(w) > 1 else 1
            assert tree.height() <= bound, (len(w), tree.height())


def test_tree_marks():
    tree = build_wp_tree("abab")
    assert tree.mark is None          # interior node: answer lives in the leaves
    assert len(tree.children) == 2
    leaf = build_wp_tree("")
    assert leaf.mark == "yes"
    assert leaf.children == []
    assert build_wp_tree("b").mark == "no"
    assert build_wp_tree("ab").mark == "no"  # odd parity refuted at the root


def test_tree_words_are_reduced_and_sections():
    rng = random.Random(5)
    for _ in range(100):
        w = random_reduced_word(rng, 2 * rng.randrange(1, 24))
        tree = build_wp_tree(w)
        stack = [tree]
        while stack:
            node = stack.pop()
            assert reduce_word(node.word) == node.word
            stack.extend(node.children)


def test_tree_json_and_dot():
    tree = build_wp_tree("abab")
    data = json.loads(tree.to_json())
    assert set(data) == {"word", "mark", "children"}
    assert isinstance(data["children"], list)
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert "->" in dot
    assert dot.rstrip().endswith("}")


def test_tree_size_counts_nodes():
    tree = build_wp_tree("abab")
    def count(n):
        return 1 + sum(count(c) for c in n.children)
    assert tree.size() == count(tree)


def test_rejects_bad_letters():
    with pytest.raises(WordError):
        is_trivial("abx")
    with pytest.raises(WordError):
        equal("a", "e")


def test_tree_follows_the_decision_depth_first():
    # Leaf marks in depth-first, left-to-right order: any number of
    # "yes", then at most one "no", after which no node was visited.
    rng = random.Random(11)
    words = []
    for _ in range(150):
        words.append(random_reduced_word(rng, 2 * rng.randrange(1, 40)))
        x = random_reduced_word(rng, rng.randrange(0, 30))
        words.append(inverse(x) + "abab" + x)
        words.append(x + "adadadad" + inverse(x))
    answers = set()
    for w in words:
        seen = []
        stack = [build_wp_tree(w)]
        while stack:
            node = stack.pop()
            if node.children:
                assert node.mark is None
                stack.extend(reversed(node.children))
            else:
                seen.append({"yes": "y", "no": "n", None: "u"}[node.mark])
        marks = "".join(seen)
        assert re.fullmatch(r"y*(nu*)?", marks), (w, marks)
        assert ("n" in marks) == (not is_trivial(w)), w
        answers.add("n" in marks)
    assert answers == {True, False}


@pytest.mark.parametrize("relator, trivial", [("abab", False),
                                              ("ad" * 4, True)])
def test_conjugated_words_reduce_n_log_n_letters(reduced_letters, relator,
                                                 trivial):
    # Letters passed to reduce_word while deciding x^-1 r x.  n log n
    # work grows about 4.7x per 4x step in |x|; rotating by re-reducing
    # the whole word grows about 16x.
    letters = reduced_letters
    rng = random.Random(0)
    counts = []
    for n in (2 ** 10, 2 ** 12, 2 ** 14):
        x = random_reduced_word(rng, n)
        letters[0] = 0
        assert is_trivial(inverse(x) + relator + x) == trivial
        counts.append(letters[0])
        assert counts[-1] >= 2 * n
        assert len(counts) == 1 or counts[-1] <= 6 * counts[-2], counts


def _eager_trivial(w, node=None):
    """The decision as it was written before sections were reduced
    lazily: reduce both sections, decide the left one, then the right.
    Kept as the reference for the answers and the recorded trees."""
    while len(w) > 1 and a_parity(w) == 0:
        w, _ = cyclic_normalize(w)
        if len(w) > 1:
            w0, w1 = split(w)
            left = None
            if node is not None:
                node.children = [WpNode(w0), WpNode(w1)]
                left, node = node.children
            if not _eager_trivial(w0, left):
                return False
            w = w1
    trivial = not w
    if node is not None:
        node.mark = "yes" if trivial else "no"
    return trivial


_SIGMA = str.maketrans({"a": "aca", "b": "d", "c": "b", "d": "c"})


def _relator_product(rng, length):
    """A trivial word: conjugates of sigma-images of (ad)^4 and
    (adacac)^4 multiplied until the product reaches the length."""
    word = ""
    while len(word) < length:
        r = rng.choice(("ad" * 4, "adacac" * 4))
        for _ in range(rng.randrange(4)):
            r = r.translate(_SIGMA)
        x = random_reduced_word(rng, rng.randrange(length // 4 + 1))
        word = reduce_word(word + inverse(x) + r + x)
    return word


def test_lazy_sections_keep_the_eager_answers_and_trees():
    rng = random.Random(13)
    words = []
    for k in range(2, 13):
        n = 2 ** k
        for _ in range(4):
            x = random_reduced_word(rng, rng.randrange(n // 2))
            words.append(random_reduced_word(rng, n))
            words.append(inverse(x) + "abab" + x)
            words.append(x + "ad" * 4 + inverse(x))
            w = _relator_product(rng, n)
            cut = rng.randrange(len(w) + 1)
            words += [w, w[:cut] + "abab" + w[cut:]]
    answers = set()
    for w in words:
        eager = WpNode(reduce_word(w))
        answer = _eager_trivial(eager.word, eager)
        assert is_trivial(w) == answer, w
        assert build_wp_tree(w).to_json() == eager.to_json(), w
        answers.add(answer)
    assert answers == {True, False}


def test_odd_left_sections_are_refuted_unreduced(reduced_letters):
    # When the normalized word's left section has odd a-parity, only the
    # input itself is reduced: neither section is.
    rng = random.Random(1)
    qualified = 0
    for _ in range(20):
        w = random_reduced_word(rng, 4096)
        if not a_parity(split(cyclic_normalize(w)[0])[0]):
            continue
        qualified += 1
        reduced_letters[0] = 0
        assert not is_trivial(w)
        assert reduced_letters[0] == len(w)
    assert qualified >= 10


def test_equal_matches_the_word_problem_on_unreduced_pairs():
    rng = random.Random(14)
    answers = set()
    for _ in range(600):
        u = "".join(rng.choices("abcd", k=rng.randrange(40)))
        v = "".join(rng.choices("abcd", k=rng.randrange(40)))
        if rng.random() < 0.5:
            cut = rng.randrange(len(u) + 1)
            v = u[:cut] + rng.choice(("aa", "bcd", "adadadad")) + u[cut:]
        answer = equal(u, v)
        assert answer == is_trivial(u + inverse(v)), (u, v)
        answers.add(answer)
    assert answers == {True, False}


def test_equal_names_the_argument_with_a_foreign_letter():
    with pytest.raises(WordError, match="in word 'axb'"):
        equal("axb", "ab")
    with pytest.raises(WordError, match="in word 'abe'"):
        equal("ab", "abe")
