"""The log-log slope fit of the scaling benchmark."""

import random

import numpy as np
import pytest

from grigorchuk.bench import BenchRecord, fit_exponent


def _records(ns, tree_sizes, millis):
    return [BenchRecord(n, size, 0, ms)
            for n, size, ms in zip(ns, tree_sizes, millis)]


def test_fit_exponent_exact_slopes():
    ns = [16, 32, 64, 128, 256]
    records = _records(ns, [7] * len(ns), [float(n * n) for n in ns])
    assert fit_exponent(records, "millis") == pytest.approx(2.0, abs=1e-12)
    assert fit_exponent(records, "tree_size") == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_floors_zero_at_a_thousandth():
    # a zero reads as 1e-3, so the slope is that of the floored values
    ns = [16, 32]
    records = _records(ns, [0, 5], [0.0, 1.0])
    want = (np.log(5) - np.log(1e-3)) / (np.log(32) - np.log(16))
    assert fit_exponent(records, "tree_size") == pytest.approx(want, abs=1e-12)
    assert fit_exponent(records, "millis") == pytest.approx(
        -np.log(1e-3) / np.log(2), abs=1e-12)


def test_fit_exponent_matches_polyfit():
    rng = random.Random(5)
    for _ in range(20):
        # lengths as the benchmark draws them: powers of two, repeated
        # per sample, at least two of them distinct
        ns = [1 << rng.randrange(4, 17) for _ in range(rng.randrange(2, 12))]
        ns[1] = 2 * ns[0]
        records = _records(ns, [rng.randrange(0, 10 ** 6) for _ in ns],
                           [rng.uniform(0.0, 1000.0) for _ in ns])
        xs = np.log([r.n for r in records])
        for attr in ("tree_size", "millis"):
            ys = np.log([max(getattr(r, attr), 1e-3) for r in records])
            slope, _ = np.polyfit(xs, ys, 1)
            assert fit_exponent(records, attr) == pytest.approx(
                float(slope), abs=1e-9)
