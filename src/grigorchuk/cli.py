"""Command line interface.

Verbs: reduce, wp, split, norm, coset, conj, selftest, bench.
Exit codes: 0 on success, 1 on usage errors (an output path that
cannot be written among them) or failed checks, 2 when a word does not
parse.  The identity is written "1" on input and output.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import bench as bench_mod
from .conjugacy import (build_conj_tree, q_set, shared_context,
                        subtree_size_census)
from .oracle import abelian_image
from .quotient import K_GENERATORS, standard_lift_table, standard_quotient
from .splitting import split, split_shifted
from .tree_action import is_trivial_at_depth, oracle_depth
from .word_problem import build_wp_tree, is_trivial, tree_answer
from .words import (WordError, a_parity, display, norm, parse_word,
                    reduce_word)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _int_above(low: int):
    """An argparse type: an int greater than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value <= low:
            raise argparse.ArgumentTypeError(
                f"must be greater than {low}, got {value}")
        return value
    parse.__name__ = "int"    # argparse names it in "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="grig", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("reduce", help="canonical reduced form")
    p.add_argument("word")

    p = sub.add_parser("wp", help="is the word the identity?")
    p.add_argument("word")
    p.add_argument("--tree", metavar="PATH",
                   help="write the decision tree as JSON")
    p.add_argument("--dot", metavar="PATH",
                   help="write the decision tree as DOT")

    p = sub.add_parser("split", help="level-one sections")
    p.add_argument("word")

    p = sub.add_parser("norm", help="weighted length")
    p.add_argument("word")
    p.add_argument("--exact", action="store_true",
                   help="print exact coefficients instead of a decimal")

    p = sub.add_parser("coset", help="coset in the order-16 quotient")
    p.add_argument("word", nargs="?")
    p.add_argument("--lift-csv", metavar="PATH",
                   help="write the 32-row lift table as CSV")

    p = sub.add_parser("conj", help="decide conjugacy of two words")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--tree", metavar="PATH",
                   help="write the branching tree as JSON")
    p.add_argument("--dot", metavar="PATH",
                   help="write the branching tree as DOT")

    sub.add_parser("selftest", help="run the built-in consistency checks")

    p = sub.add_parser("bench", help="scaling benchmark")
    # lengths run 16, 32, ... up to max_len: a slope needs two of them
    p.add_argument("--max-len", type=_int_above(bench_mod._FIRST_LEN),
                   default=1024)
    p.add_argument("--samples", type=_int_above(0), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="PATH", help="write per-sample records")

    return parser


def _cmd_reduce(args) -> int:
    print(display(reduce_word(parse_word(args.word))))
    return 0


def _cmd_wp(args) -> int:
    word = reduce_word(parse_word(args.word))
    if args.tree or args.dot:
        tree = build_wp_tree(word)
        _export(tree, args)
        trivial = tree_answer(tree)
    else:
        trivial = is_trivial(word)
    print("YES" if trivial else "NO")
    return 0


def _cmd_split(args) -> int:
    word = reduce_word(parse_word(args.word))
    if a_parity(word) == 0:
        w0, w1 = split(word)
        print(f"{display(w0)} {display(w1)}")
    else:
        w0, w1 = split_shifted(word)
        print(f"shifted: {display(w0)} {display(w1)}")
    return 0


def _cmd_norm(args) -> int:
    value = norm(reduce_word(parse_word(args.word)))
    if args.exact:
        print(value)
    else:
        print(f"{float(value):.6f}")
    return 0


def _cmd_coset(args) -> int:
    if args.word is None and not args.lift_csv:
        print("coset: give a word, --lift-csv, or both", file=sys.stderr)
        return 1
    if args.word is not None:
        q = standard_quotient()
        word = reduce_word(parse_word(args.word))
        c = q.coset_of(word)
        print(f"{c} {'even' if q.parity[c] == 0 else 'odd'}")
    if args.lift_csv:
        _write(args.lift_csv, standard_lift_table().to_csv())
    return 0


def _cmd_conj(args) -> int:
    u = reduce_word(parse_word(args.u))
    v = reduce_word(parse_word(args.v))
    if args.tree or args.dot:
        tree = build_conj_tree(u, v)
        _export(tree, args)
        qs = tree.q
    else:
        qs = q_set(u, v)
    inner = ", ".join(str(i) for i in sorted(qs))
    print(f"{'YES' if qs else 'NO'}, Q = {{{inner}}}")
    return 0


def _selftest_checks():
    q = standard_quotient()
    t = standard_lift_table()
    ctx = shared_context()

    yield "quotient has 16 elements", q.size == 16
    yield ("normal generators of K are trivial in the quotient",
           all(q.coset_of(w) == 0 for w in K_GENERATORS))
    yield ("even cosets form a subgroup of order 8",
           len(q.even_cosets()) == 8)
    yield "lift table has 32 pairs", len(t.pairs) == 32
    yield ("each even coset is a lift value exactly 4 times",
           Counter(t.pairs.values()) == dict.fromkeys(q.even_cosets(), 4))
    yield "(ad)^4 is trivial: word problem", is_trivial("adadadad")
    yield ("(ad)^4 is trivial: tree action",
           is_trivial_at_depth("adadadad", oracle_depth(8)))
    yield "(ab)^2 is not trivial", not is_trivial("abab")
    yield ("sections of b ada b ada give (abab, 1)",
           split(reduce_word("badabada")) == ("abab", ""))
    yield ("base Q cardinalities",
           [len(q_set(x, x)) for x in ("", "a", "b", "c", "d")]
           == [16, 4, 4, 4, 8])
    yield ("b, c, d pairwise non-conjugate",
           not q_set("b", "c") and not q_set("b", "d")
           and not q_set("c", "d"))
    rows = subtree_size_census()
    yield "size census has 95 rows", len(rows) == 95
    yield "largest census tree has 21 nodes", max(r[3] for r in rows) == 21
    yield ("abelian image separates b and c",
           abelian_image("b") != abelian_image("c"))
    yield ("identity coset is 0",
           ctx.q.coset_of("") == 0)


def _cmd_selftest(args) -> int:
    failed = 0
    for name, ok in _selftest_checks():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    records = bench_mod.run_bench(args.max_len, args.samples, args.seed)
    if args.csv:
        _write(args.csv, bench_mod.to_csv(records))
    for r in records:
        print(f"n={r.n:6d}  tree={r.tree_size:10d}  visited={r.visited:7d}"
              f"  {r.millis:9.3f} ms")
    size_exp = bench_mod.fit_exponent(records, "tree_size")
    time_exp = bench_mod.fit_exponent(records, "millis")
    print(f"tree size exponent: {size_exp:.2f}")
    print(f"time exponent:      {time_exp:.2f}")
    return 0


def _export(tree, args) -> None:
    """Write a recorded decision tree to the --tree and --dot paths."""
    if args.tree:
        _write(args.tree, tree.to_json())
    if args.dot:
        _write(args.dot, tree.to_dot())


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


_COMMANDS = {
    "reduce": _cmd_reduce,
    "wp": _cmd_wp,
    "split": _cmd_split,
    "norm": _cmd_norm,
    "coset": _cmd_coset,
    "conj": _cmd_conj,
    "selftest": _cmd_selftest,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except WordError as exc:
        print(f"grig: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an output path that cannot be written is a usage error
        print(f"grig: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
