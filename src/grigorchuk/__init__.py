"""Computation engine for the first Grigorchuk group.

Elements are words over the involutive generators a, b, c, d (with
bc = cb = d) acting on the infinite rooted binary tree.  The package
provides canonical reduction, the tree action itself, level-one
splittings, a word-problem decision that runs in about n log n letter
operations, the order-16 coset quotient with its section lift table,
and the branching conjugacy decision with its Q-set certificates.
"""

from .algebraic import ALPHA, GAMMA_A, GAMMA_B, GAMMA_C, GAMMA_D, AlgebraicValue
from .conjugacy import (ConjContext, ConjNode, are_conjugate,
                        build_conj_tree, explicit_tree_size, q_set,
                        shared_context, subtree_size_census, word_children,
                        word_tree_size)
from .oracle import abelian_image, find_conjugator, validate_small_instances
from .quotient import (LiftTable, Quotient, build_lift_table, build_quotient,
                       standard_lift_table, standard_quotient)
from .splitting import SplitPair, factor_decomposition, split, split_shifted
from .tree_action import apply_word, is_trivial_at_depth, oracle_depth
from .word_problem import (WpNode, build_wp_tree, equal, is_trivial,
                           tree_answer)
from .words import (WordError, a_parity, compare_norm, cyclic_core,
                    cyclic_normalize, display, enumerate_reduced, inverse,
                    is_reduced, letter_counts, norm, parse_word,
                    random_reduced_word, reduce_word)

__version__ = "0.1.0"
