"""Scaling measurements for the conjugacy decision.

Samples random reduced word pairs at geometrically spaced lengths, runs
the memoized decision on a fresh context per pair (so visited-pair
counts are not polluted by sharing across samples), and fits log-log
slopes of tree size and wall time against the length (no numpy needed).
visited counts the pairs the decision visits, which are pairs of cyclic
cores at every node; tree_size sizes the expanded tree of the raw pair.
"""

from __future__ import annotations

import io
import random
import time
from math import log
from statistics import linear_regression
from typing import NamedTuple

from .conjugacy import ConjContext
from .words import random_reduced_word


class BenchRecord(NamedTuple):
    n: int
    tree_size: int
    visited: int
    millis: float


# the shortest word length sampled; lengths double from it
_FIRST_LEN = 16


def geometric_lengths(max_len: int) -> list[int]:
    lengths = []
    n = _FIRST_LEN
    while n < max_len:
        lengths.append(n)
        n *= 2
    lengths.append(max_len)
    return lengths


def run_bench(max_len: int = 1024, samples: int = 3,
              seed: int = 0) -> list[BenchRecord]:
    rng = random.Random(seed)
    records = []
    for n in geometric_lengths(max_len):
        for _ in range(samples):
            u = random_reduced_word(rng, n)
            v = random_reduced_word(rng, n)
            ctx = ConjContext()
            t0 = time.perf_counter()
            ctx.q_mask(u, v)
            millis = (time.perf_counter() - t0) * 1000.0
            size = ctx.tree_size(u, v)
            records.append(BenchRecord(n, size, ctx.visited_pairs, millis))
    return records


def fit_exponent(records: list[BenchRecord], attr: str) -> float:
    """Least-squares slope of log(value) against log(n)."""
    xs = [log(r.n) for r in records]
    ys = [log(max(getattr(r, attr), 1e-3)) for r in records]
    return linear_regression(xs, ys).slope


def to_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    buf.write("n,tree_size,visited,millis\n")
    for r in records:
        buf.write(f"{r.n},{r.tree_size},{r.visited},{r.millis:.3f}\n")
    return buf.getvalue()
