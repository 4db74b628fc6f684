"""Reduction, parity, norms and cyclic normalization."""

import random
from itertools import product

import pytest

from grigorchuk.algebraic import GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D
from grigorchuk.splitting import _sections
from grigorchuk.word_problem import equal
from grigorchuk import words as words_module
from grigorchuk.words import (WordError, _reduce_long, a_parity,
                              check_letters, compare_norm, cyclic_core,
                              cyclic_normalize, display, enumerate_reduced,
                              inverse, is_reduced, join_reduced,
                              letter_counts, norm, parse_word,
                              random_reduced_word, reduce_word)


def test_parse_and_display():
    assert parse_word("1") == ""
    assert parse_word("") == ""
    assert parse_word("abdc") == "abdc"
    assert display("") == "1"
    assert display("ab") == "ab"
    with pytest.raises(WordError):
        parse_word("abe")
    with pytest.raises(WordError):
        parse_word("A")


def test_reduce_examples():
    assert reduce_word("") == ""
    assert reduce_word("aa") == ""
    assert reduce_word("bc") == "d"
    assert reduce_word("cb") == "d"
    assert reduce_word("bd") == "c"
    assert reduce_word("cd") == "b"
    assert reduce_word("bcd") == ""
    assert reduce_word("abba") == ""
    assert reduce_word("abcd") == "a"
    assert reduce_word("badabada") == "badabada"
    # cascade: merging can enable further cancellation
    assert reduce_word("bdc") == ""    # bd -> c, then cc cancels
    assert reduce_word("dbdc") == "d"  # db -> c, cd -> b, bc -> d
    assert reduce_word("adbdca") == "ada"
    assert reduce_word("abdca") == ""   # bd -> c, cc cancels, aa cancels


def test_is_reduced_rejects_foreign_letters():
    # "1" is the identity only to parse_word, not a letter
    for word in ("1", "x", "ax", "abxa", "bbx", "aax"):
        with pytest.raises(WordError):
            is_reduced(word)
        with pytest.raises(WordError, match="invalid letter"):
            reduce_word(word)


def _is_reduced_by_strip(word):
    """is_reduced as it was written with str.strip, kept as the
    reference."""
    even, odd = word[0::2], word[1::2]
    if not (even.strip("a") or odd.strip("bcd")):
        return True
    if not (odd.strip("a") or even.strip("bcd")):
        return True
    check_letters(word)
    return False


def _outcome(test, word):
    try:
        return test(word)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def test_is_reduced_matches_the_strip_reference_exhaustively():
    for n in range(8):
        for letters in product("abcdx\u00e9", repeat=n):
            word = "".join(letters)
            assert (_outcome(is_reduced, word)
                    == _outcome(_is_reduced_by_strip, word)), word


def test_is_reduced_matches_the_strip_reference_on_long_words():
    # reduced words, then one or two letters replaced or inserted; the
    # lone surrogate cannot be encoded and must still raise WordError
    rng = random.Random(7)
    outcomes = set()
    for _ in range(300):
        word = random_reduced_word(rng, rng.randrange(1000, 5000))
        for _ in range(rng.randrange(3)):
            i = rng.randrange(len(word) + 1)
            letter = rng.choice("abcdx\u00e9\ud800")
            word = word[:i] + letter + word[i + rng.randrange(2):]
        got = _outcome(is_reduced, word)
        assert got == _outcome(_is_reduced_by_strip, word), word[:40]
        outcomes.add(got if isinstance(got, bool) else got[0])
    assert outcomes == {True, False, WordError}


def test_reduced_words_alternate():
    rng = random.Random(0)
    for _ in range(500):
        raw = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 40)))
        w = reduce_word(raw)
        assert is_reduced(w)
        assert reduce_word(w) == w
        for x, y in zip(w, w[1:]):
            assert (x == "a") != (y == "a")


def test_long_path_matches_the_per_run_loop_on_long_words(monkeypatch):
    # lengths no property test reaches: the sections of random even
    # reduced words of 2^16 letters, and p ab p and the palindrome p dd p
    # for the nested palindrome p = p_15, p_{k+1} = p_k c_k p_k, whose
    # halves cancel level by level in cascades of every depth
    rng = random.Random(16)
    words = []
    while len(words) < 6:
        word = random_reduced_word(rng, 2 ** 16)
        if a_parity(word) == 0:
            words += _sections(word)
    palindrome = ""
    for k in range(15):
        palindrome += "abcd"[k % 4] + palindrome
    words += [palindrome + "ab" + palindrome, palindrome + "dd" + palindrome]
    assert len(words[-1]) == 2 ** 16
    assert not any(map(is_reduced, words))
    long_path = [_reduce_long(word) for word in words]
    # past every length here, reduce_word takes the per-run loop
    monkeypatch.setattr(words_module, "_LONG", 2 ** 17)
    assert long_path == [reduce_word(word) for word in words]


def test_reduction_confluence_random_rewrites():
    # applying any valid single rewrite first never changes the normal
    # form
    rng = random.Random(1)
    merge = {frozenset("bc"): "d", frozenset("bd"): "c", frozenset("cd"): "b"}
    trials = 100000
    for _ in range(trials):
        s = [rng.choice("abcd") for _ in range(rng.randrange(2, 14))]
        target = reduce_word("".join(s))
        for _ in range(rng.randrange(1, 4)):
            sites = [i for i in range(len(s) - 1)
                     if s[i] == s[i + 1]
                     or (s[i] in "bcd" and s[i + 1] in "bcd")]
            if not sites:
                break
            i = rng.choice(sites)
            if s[i] == s[i + 1]:
                del s[i:i + 2]
            else:
                s[i:i + 2] = [merge[frozenset((s[i], s[i + 1]))]]
        assert reduce_word("".join(s)) == target


def test_inverse():
    rng = random.Random(2)
    for _ in range(500):
        w = random_reduced_word(rng, rng.randrange(0, 30))
        assert reduce_word(w + inverse(w)) == ""
        assert reduce_word(inverse(w) + w) == ""
        assert inverse(inverse(w)) == w


def test_parity_and_counts():
    assert a_parity("") == 0
    assert a_parity("a") == 1
    assert a_parity("aba") == 0
    assert letter_counts("abcdba") == (2, 2, 1, 1)
    # parity is a homomorphism
    rng = random.Random(3)
    for _ in range(300):
        u = random_reduced_word(rng, rng.randrange(0, 20))
        v = random_reduced_word(rng, rng.randrange(0, 20))
        assert a_parity(reduce_word(u + v)) == (a_parity(u) + a_parity(v)) % 2


def test_norm_exact():
    assert norm("") == 0
    assert norm("a") == GAMMA_A
    assert norm("abcd") == GAMMA_A + GAMMA_B + GAMMA_C + GAMMA_D
    assert norm("abab") == 2 * GAMMA_A + 2 * GAMMA_B
    assert compare_norm("d", "c") == -1
    assert compare_norm("c", "a") == -1
    assert compare_norm("a", "b") == -1
    assert compare_norm("b", "cd") == 0


def test_norm_is_the_weighted_letter_sum():
    # the reference: the weights times the letter counts, summed in Q(alpha)
    def reference(word):
        na, nb, nc, nd = letter_counts(word)
        return na * GAMMA_A + nb * GAMMA_B + nc * GAMMA_C + nd * GAMMA_D

    rng = random.Random(12)
    words = ["", "a", "bcd", "a" * 5000, "abcd" * 2500]
    words += ["".join(rng.choice("abcd") for _ in range(rng.randrange(60)))
              for _ in range(300)]
    words += [random_reduced_word(rng, rng.randrange(60)) for _ in range(300)]
    words += [random_reduced_word(rng, 10 ** 4) for _ in range(5)]
    for w in words:
        assert norm(w) == reference(w), w


def test_counts_and_norms_reject_foreign_letters():
    for word in ("abx", "1", "x" * 4):
        with pytest.raises(WordError):
            letter_counts(word)
        with pytest.raises(WordError):
            norm(word)
        with pytest.raises(WordError):
            compare_norm("ab", word)


def test_reduction_never_increases_norm():
    rng = random.Random(4)
    for _ in range(2000):
        raw = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 24)))
        assert (norm(reduce_word(raw)) - norm(raw)).sign() <= 0


def test_cyclic_normalize_postcondition():
    for w in enumerate_reduced(10, min_len=1):
        if a_parity(w) != 0:
            continue
        nw, g = cyclic_normalize(w)
        assert len(nw) <= len(w)
        assert reduce_word(inverse(g) + w + g) == nw
        assert len(nw) <= 1 or (nw[0] == "a" and nw[-1] != "a")


def test_cyclic_normalize_errors():
    with pytest.raises(ValueError):
        cyclic_normalize("ab")     # odd parity
    with pytest.raises(ValueError):
        cyclic_normalize("")       # empty
    with pytest.raises(ValueError):
        cyclic_normalize("bb")     # not reduced


def _core_by_letter_loop(word):
    """The frame strip as a scan one letter at a time from both ends,
    as cyclic_normalize was written before cyclic_core; kept as the
    reference."""
    k, n = 0, len(word)
    while n - 2 * k > 1 and word[k] == word[n - 1 - k]:
        k += 1
    m = word[k:n - k]
    if len(m) > 1 and m[0] != "a":
        return join_reduced(m[1:], m[0]), word[:k + 1]
    return m, word[:k]


def _check_core(word, core):
    m, g = core
    assert word.startswith(g)
    assert equal(g + m + inverse(g), word)
    assert len(m) <= len(word)
    assert len(m) <= 1 or (m[0] == "a" and m[-1] != "a")


def test_cyclic_core_matches_the_letter_loop_exhaustively():
    # every reduced word up to 12 letters, both a-parities
    parities = set()
    for w in enumerate_reduced(12):
        core = cyclic_core(w)
        assert core == _core_by_letter_loop(w), w
        _check_core(w, core)
        parities.add(a_parity(w))
    assert parities == {0, 1}


def test_cyclic_core_strips_long_frames():
    # x c x^-1 for long x and short c of either parity: the frame found
    # by doubling and bisection is the one the letter loop finds
    rng = random.Random(13)
    for _ in range(200):
        x = random_reduced_word(rng, rng.randrange(1, 3000))
        c = random_reduced_word(rng, rng.randrange(0, 8))
        w = reduce_word(x + c + inverse(x))
        core = cyclic_core(w)
        assert core == _core_by_letter_loop(w), (x[-20:], c)
        _check_core(w, core)
        assert len(core[0]) == len(cyclic_core(c)[0])


def test_cyclic_normalize_is_unchanged_on_even_words():
    # the three checks, then cyclic_core: the same (normalized, g) as
    # the letter loop on every even reduced word up to 13 letters
    for w in enumerate_reduced(13, min_len=1):
        if a_parity(w) == 0:
            assert cyclic_normalize(w) == _core_by_letter_loop(w), w


def test_enumerate_reduced_counts():
    words = enumerate_reduced(7)
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert is_reduced(w)
    assert by_len == {0: 1, 1: 4, 2: 6, 3: 12, 4: 18, 5: 36, 6: 54, 7: 108}
    assert len(set(words)) == len(words)
    assert enumerate_reduced(3, min_len=2) == sorted(
        enumerate_reduced(3, min_len=2), key=lambda w: (len(w), w))


def test_random_reduced_word():
    rng = random.Random(5)
    for n in (0, 1, 2, 7, 40, 101):
        for _ in range(20):
            w = random_reduced_word(rng, n)
            assert len(w) == n
            assert is_reduced(w)
