"""Per-layer tracing from outside the package.

The package binds names with ``from .x import y``, so a function is
wrapped at every module attribute that holds it (the binding its callers
look up), and a method is wrapped on its class.  Each wrapped call opens a
span: layer, start, end, parent span and the id of the decision it belongs
to.  Spans stay in memory while the workload runs; per-layer calls, self
time (duration minus the time covered by child spans) and recursion depth
are computed from them afterwards, and the spans are written to a file at
the end.  Counts that spans cannot show (letters, memo hits, new words,
values built) are recorded at the same boundaries.

A hook whose target no longer exists is skipped and reported, so a later
refactor makes its metrics read zero instead of breaking the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

from grigorchuk import (algebraic, conjugacy, quotient, splitting,
                        word_problem, words)

# (layer, home module, attribute, wrap every module that imports it?)
_FUNCTIONS = (
    ("words.reduce_word", words, "reduce_word", True),
    ("words.cyclic_normalize", words, "cyclic_normalize", True),
    ("words.norm", words, "norm", True),
    ("splitting.split", splitting, "split", True),
    ("splitting.split_shifted", splitting, "split_shifted", True),
    # only the re-validation inside splitting; the copy bound in words
    # is cyclic_normalize's own input check
    ("splitting.is_reduced", splitting, "is_reduced", False),
    ("conjugacy.q_set", conjugacy, "q_set", True),
    ("word_problem.is_trivial", word_problem, "is_trivial", True),
    ("word_problem.trivial_reduced", word_problem, "_trivial_reduced", True),
)

# (layer, class, method)
_METHODS = (
    ("quotient.coset_of", quotient.Quotient, "coset_of"),
    ("conjugacy.intern", conjugacy.ConjContext, "intern"),
    ("conjugacy.q_rec", conjugacy.ConjContext, "_q_rec"),
    ("conjugacy.combine", conjugacy.ConjContext, "_s_combine"),
    ("conjugacy.combine", conjugacy.ConjContext, "_n_combine"),
    ("algebraic.mul", algebraic.AlgebraicValue, "__mul__"),
    ("algebraic.mul", algebraic.AlgebraicValue, "__rmul__"),
    ("algebraic.sign", algebraic.AlgebraicValue, "sign"),
)

# Calls that are counted but get no span: they are too frequent and too
# small for a span to mean anything.  (counter, owner, attribute)
_COUNTERS = (
    ("algebraic.values_built", algebraic.AlgebraicValue, "__init__"),
    # one evaluation of the defining cubic per bisection step of sign()
    ("algebraic.bisection_steps", algebraic, "_p"),
)

# layers whose nesting within themselves is reported as a depth
_DEPTH_LAYERS = ("conjugacy.q_rec", "word_problem.trivial_reduced")

# Per-layer metrics: (name, unit, better).  Every metric whose unit is
# not "s" is exact for a given seed.  The benchmark adds
# trace.overhead_frac, which needs an untraced pass.
METRICS = (
    ("words.reduce_word.calls", "count", "lower"),
    ("words.reduce_word.letters", "letters", "lower"),
    ("words.reduce_word.self_s", "s", "lower"),
    ("words.cyclic_normalize.calls", "count", "lower"),
    ("words.cyclic_normalize.self_s", "s", "lower"),
    ("words.cyclic_normalize.rotated_letters", "letters", "lower"),
    ("splitting.split.calls", "count", "lower"),
    ("splitting.split.letters", "letters", "lower"),
    ("splitting.split.self_s", "s", "lower"),
    ("splitting.split_shifted.calls", "count", "lower"),
    ("splitting.split_shifted.self_s", "s", "lower"),
    ("splitting.is_reduced.letters", "letters", "lower"),
    ("quotient.coset_of.calls", "count", "lower"),
    ("quotient.coset_of.letters", "letters", "lower"),
    ("quotient.coset_of.self_s", "s", "lower"),
    ("quotient.build_s", "s", "lower"),
    ("conjugacy.q_set.calls", "count", "lower"),
    ("conjugacy.q_set.self_s", "s", "lower"),
    ("conjugacy.q_rec.calls", "count", "lower"),
    ("conjugacy.q_rec.self_s", "s", "lower"),
    ("conjugacy.visited_pairs", "count", "lower"),
    ("conjugacy.memo_hit_ratio", "ratio", "higher"),
    ("conjugacy.combine.calls", "count", "lower"),
    ("conjugacy.combine.self_s", "s", "lower"),
    ("conjugacy.intern.calls", "count", "lower"),
    ("conjugacy.interned_words", "count", "lower"),
    ("conjugacy.intern_hit_ratio", "ratio", "higher"),
    ("conjugacy.max_depth", "count", "lower"),
    ("word_problem.is_trivial.calls", "count", "lower"),
    ("word_problem.is_trivial.self_s", "s", "lower"),
    ("word_problem.max_depth", "count", "lower"),
    ("words.norm.calls", "count", "lower"),
    ("words.norm.self_s", "s", "lower"),
    ("algebraic.mul.calls", "count", "lower"),
    ("algebraic.mul.self_s", "s", "lower"),
    ("algebraic.sign.calls", "count", "lower"),
    ("algebraic.sign.self_s", "s", "lower"),
    ("algebraic.values_built", "count", "lower"),
    ("algebraic.bisection_steps", "count", "lower"),
)


class Tracer:
    """Records spans of wrapped calls while ``decision`` is not None."""

    def __init__(self):
        self.layers: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.owner = array("i")      # decision id
        self.decision: int | None = None
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids_seen: set[tuple[int, int]] = set()

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        pre = {
            "words.reduce_word": self._letters("words.reduce_word", 0),
            "splitting.split": self._letters("splitting.split", 0),
            "splitting.is_reduced": self._letters("splitting.is_reduced", 0),
            "quotient.coset_of": self._letters("quotient.coset_of", 1),
            "conjugacy.q_rec": self._memo_hit,
        }
        post = {
            "words.cyclic_normalize": self._rotation,
            "conjugacy.intern": self._new_word,
        }
        for layer, home, attr, everywhere in _FUNCTIONS:
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(f"{home.__name__}.{attr}")
                continue
            wrapper = self._span(layer, orig, pre.get(layer), post.get(layer))
            sites = _bindings(orig) if everywhere else [(home, attr)]
            for module, name in sites:
                self._patch(module, name, wrapper)
        for layer, cls, attr in _METHODS:
            orig = cls.__dict__.get(attr)
            if orig is None:
                self.missing.append(f"{cls.__name__}.{attr}")
                continue
            self._patch(cls, attr, self._span(layer, orig, pre.get(layer),
                                              post.get(layer)))
        for key, owner, attr in _COUNTERS:
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._patch(owner, attr, self._counter(key, orig))
        if self.missing:
            print("trace: no hook for " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers --------------------------------------------------------

    def _span(self, layer: str, fn, pre=None, post=None):
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.decision is None:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            idx = len(tracer.name)
            opened = tracer._open
            tracer.name.append(lid)
            tracer.parent.append(opened[-1] if opened else -1)
            tracer.owner.append(tracer.decision)
            tracer.end.append(0.0)
            opened.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                opened.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.decision is not None:
                tracer._add(key)
            return fn(*args, **kwargs)

        return counted

    def _add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _letters(self, layer: str, pos: int):
        key = layer + ".letters"
        return lambda args: self._add(key, len(args[pos]))

    def _rotation(self, args, result) -> None:
        # cyclic_normalize returns (normalized, g): g is what was rotated
        self._add("words.cyclic_normalize.rotated_letters", len(result[1]))

    def _memo_hit(self, args) -> None:
        # a call is a memo hit when its pair is already memoized on entry
        ctx, iu, iv = args[:3]
        if (iu, iv) in getattr(ctx, "_memo", ()):
            self._add("conjugacy.q_rec.hits")

    def _new_word(self, args, result) -> None:
        # a word is new when its context hands out an id it never gave
        key = (id(args[0]), result)
        if key not in self._ids_seen:
            self._ids_seen.add(key)
            self._add("conjugacy.interned_words")

    # -- results ---------------------------------------------------------

    def layer_stats(self):
        """Calls, self time and self-nesting depth per layer, from the
        spans."""
        name, start, end, parent = self.name, self.start, self.end, self.parent
        n = len(name)
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        depth_ids = {self.layers.index(l) for l in _DEPTH_LAYERS
                     if l in self.layers}
        depth = array("i", bytes(4 * n))
        max_depth = [0] * len(self.layers)
        # parents are stored before their children, so one forward pass
        # sees every child after its parent
        for i in range(n):
            dur = end[i] - start[i]
            lid = name[i]
            calls[lid] += 1
            self_s[lid] += dur
            p = parent[i]
            if p >= 0:
                self_s[name[p]] -= dur
            if lid in depth_ids:
                while p >= 0 and name[p] != lid:
                    p = parent[p]
                depth[i] = (depth[p] if p >= 0 else 0) + 1
                max_depth[lid] = max(max_depth[lid], depth[i])
        by_name = lambda values: dict(zip(self.layers, values))
        return by_name(calls), by_name(self_s), by_name(max_depth)

    def metrics(self, build_s: float) -> dict:
        calls, self_s, depth = self.layer_stats()
        count = lambda key: self.counts.get(key, 0)
        ratio = lambda part, whole: part / whole if whole else 0.0
        q_calls = calls.get("conjugacy.q_rec", 0)
        q_hits = count("conjugacy.q_rec.hits")
        i_calls = calls.get("conjugacy.intern", 0)
        interned = count("conjugacy.interned_words")
        out = {
            "quotient.build_s": build_s,
            "conjugacy.visited_pairs": q_calls - q_hits,
            "conjugacy.memo_hit_ratio": ratio(q_hits, q_calls),
            "conjugacy.interned_words": interned,
            "conjugacy.intern_hit_ratio": ratio(i_calls - interned, i_calls),
            "conjugacy.max_depth": depth.get("conjugacy.q_rec", 0),
            "word_problem.is_trivial.self_s": (
                self_s.get("word_problem.is_trivial", 0.0)
                + self_s.get("word_problem.trivial_reduced", 0.0)),
            "word_problem.max_depth": depth.get(
                "word_problem.trivial_reduced", 0),
        }
        for metric, _unit, _better in METRICS:
            if metric in out:
                continue
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(layer, 0)
            elif field == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            else:
                out[metric] = count(metric)
        return {metric: out[metric] for metric, _u, _b in METRICS}

    def write_spans(self, path) -> None:
        layers = self.layers
        with open(path, "w") as fh:
            fh.write("span\tlayer\tstart\tend\tparent\tdecision\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{layers[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t"
                         f"{self.owner[i]}\n")


def _bindings(obj) -> list[tuple[object, str]]:
    """Every (module, name) of the loaded package that holds obj."""
    return [(module, key)
            for modname, module in sorted(sys.modules.items())
            if modname == "grigorchuk" or modname.startswith("grigorchuk.")
            for key, value in list(vars(module).items()) if value is obj]
