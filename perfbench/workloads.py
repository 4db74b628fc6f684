"""Workloads: input generators, the timed public call, and verdict checks.

Each workload draws its inputs from a seed, in batches, before any timing
starts and with tracing off.  The generators use this file's own random
reduced words, reducer and abelian image rather than the package's
helpers: ``random_reduced_word`` asserts ``is_reduced``, which would add
reduction work to the traced ``words.reduce_word`` counts, and the
verdicts are checked against inputs that the code under test did not
build.  Every case carries the verdict it must get, known from how its
input was built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import grigorchuk
from grigorchuk.algebraic import ALPHA, GAMMA_A, AlgebraicValue

STARS = "bcd"
_MERGE = {("b", "c"): "d", ("c", "b"): "d", ("b", "d"): "c",
          ("d", "b"): "c", ("c", "d"): "b", ("d", "c"): "b"}
# Lysenok's substitution; it maps relators of the group to relators
_SIGMA = str.maketrans({"a": "aca", "b": "d", "c": "b", "d": "c"})
_BASE_RELATORS = ("ad" * 4, "adacac" * 4)


@dataclass(frozen=True)
class Case:
    kind: str        # input class, for per-class reports
    args: tuple      # arguments of the timed call
    expected: object  # what the verdict must be


def reduce(word: str) -> str:
    """Reduced form by a stack pass (independent of the package)."""
    out: list[str] = []
    _push(out, word)
    return "".join(out)


def _push(out: list[str], word: str) -> None:
    """Append word to the reduced word held letter by letter in out."""
    for ch in word:
        while out:
            top = out[-1]
            if top == ch:
                out.pop()
                break
            merged = _MERGE.get((top, ch))
            if merged is None:
                out.append(ch)
                break
            out.pop()
            ch = merged
        else:
            out.append(ch)


def random_reduced(rng: random.Random, length: int) -> str:
    """Uniform reduced word: a random alternating shape, then the letters
    from {b, c, d} independently."""
    out = ["a"] * length
    slots = range(1 if rng.random() < 0.5 else 0, length, 2)
    out[slots.start::2] = rng.choices(STARS, k=len(slots))
    return "".join(out)


def abelian_image(word: str) -> tuple[int, int, int]:
    na, nb, nc, nd = (word.count(x) for x in "abcd")
    return (na % 2, (nb + nd) % 2, (nc + nd) % 2)


class ConjStream:
    """Conjugacy queries through ``q_set`` on the shared context, in groups
    of four: a base word u and three conjugates x u x^-1 with fresh x
    (answer: coset_of(x) is in Q), then a random word whose abelian image
    differs from u's (answer: Q is empty).

    Why: conjugate pairs drive the Q-recursion through hundreds of new
    pairs per query, and the repeated u reuses the shared memo, so a
    memory fix that drops the memo shows its cost here.
    """

    name = "conj-stream"
    n = 16384
    batch = 16          # four groups
    traced = 24         # six groups
    rounds = 3

    def generate(self, rng: random.Random, count: int) -> list[Case]:
        quotient = grigorchuk.standard_quotient()
        cases = []
        while len(cases) < count:
            u = random_reduced(rng, self.n // 2)
            for _ in range(3):
                x = random_reduced(rng, self.n // 2)
                v = reduce(x + u + x[::-1])
                cases.append(Case("conjugate", (u, v), quotient.coset_of(x)))
            while True:
                w = random_reduced(rng, self.n)
                if abelian_image(w) != abelian_image(u):
                    break
            cases.append(Case("separated", (u, w), None))
        return cases[:count]

    @staticmethod
    def decide(u: str, v: str) -> frozenset:
        return grigorchuk.q_set(u, v)

    @staticmethod
    def check(case: Case, verdict) -> bool:
        if case.expected is None:
            return verdict == frozenset()
        return case.expected in verdict


@lru_cache(maxsize=1)
def _sigma_relators() -> tuple[str, ...]:
    """sigma^k of each base relator for k < 10: lengths 8 to 12288."""
    out = []
    for rel in _BASE_RELATORS:
        for _ in range(10):
            out.append(rel)
            rel = reduce(rel.translate(_SIGMA))
    return tuple(out)


class WpStream:
    """``is_trivial`` on three classes in equal numbers, one batch being
    two cases of each:

    (a) x^-1 r x with |x| = 1024 and r a short relator (YES) or abab (NO):
        the quadratic ``cyclic_normalize`` path.
    (b) trivial words of length about 65536, products of conjugated
        sigma-images of (ad)^4 and (adacac)^4 (YES), and the same word
        with abab inserted at a random cut (NO): no early exit on YES,
        the whole split tree is walked.
    (c) random even words of length 65536 (NO), confirmed before timing
        by the tree action finding a moved vertex at depth 8.

    Why: it isolates the word problem and the rotation, and never touches
    conjugacy or the quotient.
    """

    name = "wp-stream"
    conj_len = 1024
    long_len = 65536
    batch = 6
    traced = 12
    rounds = 3

    def generate(self, rng: random.Random, count: int) -> list[Case]:
        cases = []
        while len(cases) < count:
            for r, answer in ((rng.choice(_BASE_RELATORS), True),
                              ("abab", False)):
                x = random_reduced(rng, self.conj_len)
                cases.append(Case("a", (reduce(x[::-1] + r + x),), answer))
            w = self._relator_product(rng)
            cut = rng.randrange(len(w) + 1)
            cases.append(Case("b", (w,), True))
            cases.append(Case("b", (w[:cut] + "abab" + w[cut:],), False))
            for _ in range(2):
                cases.append(Case("c", (self._moving_word(rng),), False))
        return cases[:count]

    def _relator_product(self, rng: random.Random) -> str:
        relators = _sigma_relators()
        out: list[str] = []
        while len(out) < self.long_len:
            x = random_reduced(rng, rng.randrange(2049))
            _push(out, x[::-1] + rng.choice(relators) + x)
        return "".join(out)

    def _moving_word(self, rng: random.Random) -> str:
        while True:
            w = random_reduced(rng, self.long_len)
            if not grigorchuk.is_trivial_at_depth(w, 8):
                return w

    @staticmethod
    def decide(word: str) -> bool:
        return grigorchuk.is_trivial(word)

    @staticmethod
    def check(case: Case, verdict) -> bool:
        return verdict is case.expected


_NINE = AlgebraicValue.from_int(9)
_TWO_HUNDRED = AlgebraicValue.from_int(200)


class NormContraction:
    """One exact norm-contraction check, as in acceptance 07, on a random
    reduced word of length 2 to 200: the +gamma_a corollary always, the
    1.03 ratio once norm(w) >= 9 and the 1.22 ratio once norm(w) >= 200.
    All five signs are taken on every word.

    Why: it is the only workload where Q(alpha) arithmetic dominates;
    the other two never call it.
    """

    name = "norm-contraction"
    batch = 500
    traced = 500
    # decisions of about a millisecond: many short rounds average the
    # host's pace over the run at little cost
    rounds = 8

    def generate(self, rng: random.Random, count: int) -> list[Case]:
        return [Case("word", (random_reduced(rng, rng.randrange(2, 201)),),
                     True) for _ in range(count)]

    @staticmethod
    def decide(word: str) -> bool:
        g = grigorchuk
        nw = g.norm(word)
        if g.a_parity(word) == 0:
            w0, w1 = g.split(word)
        else:
            w0, w1 = g.split_shifted(word)
        s = g.norm(w0) + g.norm(w1)
        corollary = (nw + GAMMA_A - ALPHA * s).sign()
        ratio_103 = (100 * nw - 103 * s).sign()
        ratio_122 = (100 * nw - 122 * s).sign()
        above_9 = (nw - _NINE).sign() >= 0
        above_200 = (nw - _TWO_HUNDRED).sign() >= 0
        return (corollary >= 0 and (not above_9 or ratio_103 >= 0)
                and (not above_200 or ratio_122 >= 0))

    @staticmethod
    def check(case: Case, verdict) -> bool:
        return verdict is case.expected


WORKLOADS = {w.name: w for w in (ConjStream(), WpStream(), NormContraction())}


def batch_rng(workload: str, seed: int, index: int) -> random.Random:
    """Independent stream per batch, so the traced cases are exactly the
    first batches of the timed run with the same seed."""
    return random.Random(f"{workload}:{seed}:{index}")
