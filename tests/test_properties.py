"""Property tests of the string layer against slower references.

Each fast path is compared with an independent statement of what it
computes: reduce_word with a stack pass over letters, is_reduced with
reduction, join_reduced with reduction, split with a factor-by-factor
substitution and with the tree action, cyclic_normalize and
cyclic_core with their postconditions, and is_trivial with the
depth-truncated tree oracle.  The conjugacy layer is held to what any
correct answer satisfies: coset_of is a homomorphism that ignores
reduction, Q-sets move by the conjugator's coset, the mask decided on
cyclic cores at every node is the mask of the recursion on raw pairs
(the raw_q_mask fixture of conftest.py), conjugate words share their
abelian image, and conjugacy is symmetric.
"""

import random
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grigorchuk.conjugacy import (ConjContext, are_conjugate, q_set,
                                  shared_context)
from grigorchuk.oracle import abelian_image
from grigorchuk.quotient import standard_quotient
from grigorchuk.splitting import split, split_shifted
from grigorchuk.tree_action import (apply_word, is_trivial_at_depth,
                                    oracle_depth)
from grigorchuk.word_problem import equal, is_trivial
from grigorchuk.words import (_LONG, STARS, WordError, a_parity,
                              cyclic_core, inverse, is_reduced, join_reduced,
                              random_reduced_word, reduce_word)

from conftest import cyclic_normalize

# section letters of a single star; a triple "a u a" swaps them
_SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}

_RELATORS = ("aa", "bcd", "abababab", "adadadad", "adacac" * 4)

# Lysenok's substitution; it maps relators to relators
_SIGMA = str.maketrans({"a": "aca", "b": "d", "c": "b", "d": "c"})

# rs -> t for distinct r, s, t in {b, c, d}
_MERGE = {(r, s): t for r, s, t in permutations(STARS)}
# every run of at most 4 stars, each between two 'a'
_SHORT_RUNS = "a".join("".join(run) for n in range(5)
                       for run in product(STARS, repeat=n))


@st.composite
def reduced_words(draw, max_size=64):
    """Reduced words: stars joined by 'a', with an optional 'a' at
    either end.  The number of stars is drawn first, so long words are
    as likely as short ones."""
    n = draw(st.integers(0, max_size // 2))
    stars = draw(st.text(alphabet=STARS, min_size=n, max_size=n))
    lead, trail = draw(st.booleans()), draw(st.booleans())
    if not stars:
        return "a" if lead or trail else ""
    return "a" * lead + "a".join(stars) + "a" * trail


@st.composite
def near_inverses(draw, words):
    """(u, v, i): v is inverse(u) with its star at i changed, so u + v
    cancels down to that star, which merges with its partner in u."""
    u = draw(words.filter(lambda w: w.strip("a")))
    v = inverse(u)
    i = draw(st.sampled_from([i for i, ch in enumerate(v) if ch != "a"]))
    s = draw(st.sampled_from(STARS.replace(v[i], "")))
    return u, v[:i] + s + v[i + 1:], i


def even(words):
    return words.filter(lambda w: a_parity(w) == 0)


def _reference_split(word):
    """Sections by walking the factors of an even reduced word."""
    part0, part1 = [], []
    i = 0
    while i < len(word):
        if word[i] == "a":
            sec1, sec0 = _SECTIONS[word[i + 1]]
            i += 3
        else:
            sec0, sec1 = _SECTIONS[word[i]]
            i += 1
        part0.append(sec0)
        part1.append(sec1)
    return reduce_word("".join(part0)), reduce_word("".join(part1))


def _reference_reduce(word):
    """Reduced form by a left-to-right stack pass over letters."""
    out = []
    for ch in word:
        while True:
            if not out:
                out.append(ch)
                break
            top = out[-1]
            if top == ch:
                out.pop()
                break
            merged = _MERGE.get((top, ch))
            if merged is None:
                out.append(ch)
                break
            # the merged letter may interact with the new top, so loop
            out.pop()
            ch = merged
    return "".join(out)


def _cascade(n, changed=None):
    """x + inverse(x) for a random reduced x of n letters (n odd) that
    begins and ends with 'a', so that the runs cancel pairwise from the
    centre out; with the star at index changed of inverse(x) replaced,
    the cancelling stops there and that star merges with its partner."""
    x = "a" + "a".join(random.Random(n).choices(STARS, k=n // 2)) + "a"
    v = inverse(x)
    if changed is not None:
        v = v[:changed] + STARS.replace(v[changed], "")[0] + v[changed + 1:]
    return x + v


@given(st.lists(st.one_of(st.text(alphabet=STARS, min_size=5, max_size=12),
                          st.text(alphabet="a", min_size=1, max_size=3),
                          st.text(alphabet="abcd", max_size=8),
                          near_inverses(reduced_words()).map(
                              lambda case: case[0] + case[1]),
                          near_inverses(reduced_words(max_size=512)).map(
                              lambda case: case[0] + case[1])),
                max_size=8).map("".join))
@example(_SHORT_RUNS)
@example(_SHORT_RUNS * 3)
@example(_cascade(1025, changed=1023))
@example(_cascade(1025, changed=513))
@example(_cascade(1025))
@example(_cascade(1025) + "a")
@example("a" + ("bdacab" * _LONG)[:_LONG - 3] + "a")
@example("a" + ("bdacab" * _LONG)[:_LONG - 2] + "a")
@example("a".join(["bcdbcdb", "dddddd", "bc" * 10, "", "cbdcbdc"] * 4))
def test_reduce_word_matches_letter_stack_reference(word):
    # pieces: star runs past the 4-letter table, runs of 'a' (also at
    # either end), short text and words that cancel deeply, some of
    # them past _LONG letters.  The examples hold every run that
    # reduce_word looks up rather than counts, cascades over 2,050
    # letters (stopping at the outermost star or half way, and
    # collapsing to "" and to "a"), words on either side of _LONG that
    # begin and end with 'a', and a long word with runs of 5 to 20 stars.
    assert reduce_word(word) == _reference_reduce(word)


@given(st.text(alphabet="abcde", max_size=40))
def test_is_reduced_agrees_with_reduction(word):
    if "e" in word:
        with pytest.raises(WordError):
            is_reduced(word)
    else:
        assert is_reduced(word) == (reduce_word(word) == word)


@given(reduced_words(), reduced_words())
def test_join_reduced_matches_reduction(u, v):
    assert join_reduced(u, v) == reduce_word(u + v)
    assert join_reduced(u, "") == join_reduced("", u) == u


@given(near_inverses(reduced_words(max_size=400)))
def test_join_reduced_cancels_to_the_seam(case):
    # inverse(u) cancels completely; changing one of its stars stops
    # the cancellation there, with one merge of two stars
    u, v, i = case
    assert join_reduced(u, inverse(u)) == join_reduced(inverse(u), u) == ""
    assert join_reduced(u, v) == reduce_word(u + v)
    assert join_reduced(v, u) == reduce_word(v + u)
    assert len(join_reduced(u, v)) == 2 * (len(v) - i) - 1


@given(st.text(alphabet="abcd", max_size=30))
def test_split_checks_its_input_then_matches_factor_reference(word):
    if reduce_word(word) == word and a_parity(word) == 0:
        assert split(word) == _reference_split(word)
    else:
        with pytest.raises(ValueError):
            split(word)


@given(reduced_words(max_size=400))
def test_split_and_split_shifted_match_factor_reference(word):
    if a_parity(word) == 0:
        assert split(word) == _reference_split(word)
    else:
        assert split_shifted(word) == _reference_split(
            reduce_word(word + "a"))


@settings(deadline=None)
@given(even(reduced_words(max_size=24)),
       st.text(alphabet="01", min_size=1, max_size=5))
def test_split_matches_tree_action(word, vertex):
    # an even word fixes the first bit and acts by its sections below it
    w0, w1 = split(word)
    assert apply_word(word, "0" + vertex) == "0" + apply_word(w0, vertex)
    assert apply_word(word, "1" + vertex) == "1" + apply_word(w1, vertex)


def _check_normal_form(word):
    nw, g = cyclic_normalize(word)
    assert word.startswith(g)
    assert reduce_word(inverse(g) + word + g) == nw
    assert len(nw) <= len(word)
    assert len(nw) <= 1 or (nw[0] == "a" and nw[-1] != "a")
    return nw


@given(even(reduced_words(max_size=4096)).filter(bool))
def test_cyclic_normalize_postcondition_reduced(word):
    _check_normal_form(word)


@given(even(reduced_words(max_size=16)).filter(bool),
       reduced_words(max_size=2040))
def test_cyclic_normalize_postcondition_conjugated(core, x):
    nw = _check_normal_form(reduce_word(inverse(x) + core + x))
    # both normal forms are cyclically reduced, so the conjugator is gone
    assert len(nw) == len(cyclic_normalize(core)[0])


def _conjugates(words, conjugators):
    """x u x^-1, reduced, for u and x drawn from the two strategies."""
    return st.tuples(words, conjugators).map(
        lambda t: reduce_word(t[1] + t[0] + inverse(t[1])))


@settings(deadline=None)
@given(st.one_of(reduced_words(max_size=4096),
                 _conjugates(reduced_words(max_size=16),
                             reduced_words(max_size=2040))))
def test_cyclic_core_postcondition(word):
    m, g = cyclic_core(word)
    assert word.startswith(g)
    assert equal(g + m + inverse(g), word)
    assert len(m) <= 1 or (m[0] == "a" and m[-1] != "a")


# palindromes, whose frame is all but the middle letter, and the words
# of length <= 1
_SMALL_AND_PALINDROMIC = st.sampled_from(
    ["", "a", "b", "c", "d", "aba", "badab", "abacaba", "dabad"])


@settings(deadline=None)
@given(st.one_of(
    st.tuples(reduced_words(max_size=160), reduced_words(max_size=160)),
    reduced_words(max_size=160).flatmap(
        lambda u: st.tuples(st.just(u),
                            _conjugates(st.just(u),
                                        reduced_words(max_size=80)))),
    st.tuples(_SMALL_AND_PALINDROMIC,
              st.one_of(_SMALL_AND_PALINDROMIC,
                        _conjugates(_SMALL_AND_PALINDROMIC,
                                    reduced_words(max_size=20))))))
@example(("aba", "badab"))
@example(("badab", "a"))
# exchanging the two frame cosets of a child pair changes the mask of
# these pairs, and of no pair of words of up to 7 letters
@example(("cababaca", "acababac"))
@example(("dacabababacaba", "dacabababacaba"))
def test_q_mask_on_cores_is_the_raw_pair_mask(raw_q_mask, pair):
    # Q(u, v) = cos(g) Q(n, m) cos(h)^-1 for u = h n h^-1, v = g m g^-1:
    # the decision, on cores at every node and translated, is the
    # recursion on raw pairs throughout
    u, v = pair
    assert shared_context().q_mask(u, v) == raw_q_mask(u, v)
    assert ConjContext().q_mask(u, v) == raw_q_mask(u, v)


@settings(deadline=None)
@given(st.lists(st.one_of(st.text(alphabet="abcd", max_size=6),
                          st.sampled_from(_RELATORS),
                          reduced_words(max_size=8).map(
                              lambda x: inverse(x) + "adadadad" + x)),
                max_size=5))
def test_is_trivial_matches_tree_oracle(pieces):
    word = "".join(pieces)
    depth = oracle_depth(max(len(reduce_word(word)), 1))
    assert is_trivial(word) == is_trivial_at_depth(word, depth)


@st.composite
def long_words(draw, max_size=2 ** 14):
    """(kind, word) with at most max_size letters, built from a drawn
    random generator: a product of conjugated sigma-images of (ad)^4
    and (adacac)^4 ("product", trivial), the same product with abab
    inserted at a random cut ("cut"), or a random reduced word made of
    even a-parity by one more 'a' ("even")."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("product", "cut", "even")))
    length = draw(st.integers(1, max_size - 4))
    if kind == "even":
        word = random_reduced_word(rng, length)
        return kind, word + "a" * a_parity(word)
    word = ""
    while True:
        r = rng.choice(("ad" * 4, "adacac" * 4))
        for _ in range(rng.randrange(6)):
            r = reduce_word(r.translate(_SIGMA))
        x = random_reduced_word(rng, rng.randrange(length // 4 + 1))
        longer = join_reduced(word, reduce_word(inverse(x) + r + x))
        if len(longer) > length:
            break
        word = longer
    if kind == "cut":
        cut = rng.randrange(len(word) + 1)
        word = word[:cut] + "abab" + word[cut:]
    return kind, word


@settings(deadline=None, max_examples=30)
@given(long_words())
def test_is_trivial_matches_tree_oracle_on_long_words(kind_word):
    kind, word = kind_word
    answer = is_trivial(word)
    assert answer == is_trivial_at_depth(word, oracle_depth(len(word)))
    assert answer or kind != "product"


@given(st.text(alphabet="abcd", max_size=60),
       st.text(alphabet="abcd", max_size=60))
def test_coset_of_is_a_homomorphism_on_unreduced_words(u, v):
    q = standard_quotient()
    assert q.coset_of(u) == q.coset_of(reduce_word(u))
    assert q.coset_of(u + v) == q.mult(q.coset_of(u), q.coset_of(v))


@settings(deadline=None)
@given(reduced_words(max_size=160), reduced_words(max_size=80))
def test_q_set_moves_by_the_conjugator_coset(u, x):
    # the x-conjugate of u is conjugated to u by x times a centralizer
    q = standard_quotient()
    cx = q.coset_of(x)
    assert q_set(u, reduce_word(x + u + inverse(x))) == {
        q.mult(cx, t) for t in q_set(u, u)}


def _near_conjugates(words):
    """(u, w) with w a conjugate of u*p for a short word p, so the
    pairs are often conjugate and often not."""
    return st.tuples(words, reduced_words(max_size=80),
                     st.text(alphabet="abcd", max_size=4)).map(
        lambda t: (t[0], reduce_word(t[1] + t[0] + t[2] + inverse(t[1]))))


@settings(deadline=None)
@given(_near_conjugates(reduced_words(max_size=160)))
def test_nonempty_q_set_keeps_the_abelian_image(pair):
    u, w = pair
    if q_set(u, w):
        assert abelian_image(u) == abelian_image(w)


@settings(deadline=None)
@given(_near_conjugates(reduced_words(max_size=160)))
def test_are_conjugate_is_symmetric(pair):
    u, w = pair
    assert are_conjugate(u, w) == are_conjugate(w, u)
