"""Deciding whether a word represents the identity.

The decision recursion: reduce; odd a-parity is never trivial; the
empty word is trivial; a single remaining letter is not (the generators
are nontrivial automorphisms).  Otherwise rotate into cyclic normal
form, take the two sections and recurse on both, left first.  Section
lengths are at most half the input (after normalization the word starts
with 'a'), so the recursion tree has height about log2 of the word
length and total size linear in it.  Reduction cancels 'a' only in
pairs, so a section's a-parity is read before reducing it: an odd left
section answers "no" unreduced, and the right section is reduced only
once the left one is proven trivial.

build_wp_tree records that same recursion as it runs, depth first, so
the exported tree stops at the first "no" leaf exactly where the
decision does.
"""

from __future__ import annotations

import json

from .splitting import _sections
from .words import (a_parity, cyclic_core, display, inverse, join_reduced,
                    reduce_word)


def is_trivial(word: str) -> bool:
    return _trivial_reduced(reduce_word(word))


def _trivial_reduced(w: str, node: WpNode | None = None) -> bool:
    """The decision for a word that is reduced or of odd a-parity.  Given
    a node for w, it records itself there: children per split, leaf marks."""
    # w is reduced and even here, so its core and sections are taken
    # with no input check
    while len(w) > 1 and a_parity(w) == 0:
        w, _ = cyclic_core(w)
        if len(w) > 1:
            w0, w1 = _sections(w)
            left = None
            if node is not None:
                w0, w1 = reduce_word(w0), reduce_word(w1)
                node.children = [WpNode(w0), WpNode(w1)]
                left, node = node.children
            if not _trivial_reduced(_even_reduced(w0), left):
                return False
            w = _even_reduced(w1)
    # odd parity, a single letter, or the empty word
    trivial = not w
    if node is not None:
        node.mark = "yes" if trivial else "no"
    return trivial


def _even_reduced(section: str) -> str:
    """A section reduced if its a-parity is even, as it is if odd."""
    return section if a_parity(section) else reduce_word(section)


def equal(u: str, v: str) -> bool:
    """Whether two words represent the same element."""
    return _trivial_reduced(join_reduced(reduce_word(u),
                                         inverse(reduce_word(v))))


class _Node:
    """Equality, repr and export of a tree node with a children list.
    Subclasses give to_dict, _dot_label and the DOT graph name _graph."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_dot(self) -> str:
        """DOT text of the tree: nodes are numbered depth first, each
        labelled by its _dot_label."""
        lines = [f"digraph {self._graph} {{",
                 '  node [shape=box, fontname="monospace"];']
        counter = [0]

        def visit(node) -> int:
            idx = counter[0]
            counter[0] += 1
            lines.append(f'  n{idx} [label="{node._dot_label()}"];')
            for child in node.children:
                cidx = visit(child)
                lines.append(f"  n{idx} -> n{cidx};")
            return idx

        visit(self)
        lines.append("}")
        return "\n".join(lines)


class WpNode(_Node):
    """Node of the explicit decision tree.  mark is "yes", "no", or None
    for an inner node whose answer is the conjunction of its children
    and for a node the decision never reached (it has no children)."""

    _graph = "wp"

    def __init__(self, word: str, mark: str | None = None,
                 children: list[WpNode] | None = None):
        self.word, self.mark = word, mark
        self.children = [] if children is None else children

    def height(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.height() for child in self.children)

    def to_dict(self) -> dict:
        return {
            "word": display(self.word),
            "mark": self.mark,
            "children": [child.to_dict() for child in self.children],
        }

    def _dot_label(self) -> str:
        label = display(self.word)
        if self.mark is not None:
            label += f"\\n[{self.mark}]"
        return label


def build_wp_tree(word: str) -> WpNode:
    """Explicit decision tree: the recursion of is_trivial, recorded
    depth first.  After the first "no" leaf the decision stops, so the
    nodes it did not reach keep mark None and no children."""
    root = WpNode(reduce_word(word))
    _trivial_reduced(root.word, root)
    return root


def tree_answer(root: WpNode) -> bool:
    """Decision recorded by an explicit tree: false iff a "no" leaf exists."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node.mark == "no":
            return False
        stack.extend(node.children)
    return True
