"""Induced character decompositions for Weyl groups of type D.

Computes, in exact integer arithmetic, the decomposition into
irreducibles of characters induced from maximal reflection subgroups of
type D_a x D_b inside W(D_n), via Littlewood-Richardson combinatorics,
and verifies the closed formula against a class-fusion engine at small
rank: classes of the block subgroup counted as |W(D_k)| / |C(c)|, inner
products taken by Kronecker substitution, and no LR coefficient.
"""

import sys

from .bchar import BClassType, b_centralizer_order, b_char_value, b_classes, b_degree
from .dchar import (
    DClassType,
    DIrrLabel,
    d_centralizer_order,
    d_char_value,
    d_classes,
    d_degree,
    d_irr_labels,
    delta_value,
    format_class,
    format_irr_label,
    group_order_d,
    make_irr_label,
    parse_class,
    parse_irr_label,
)
from .decomp import (
    DecompositionResult,
    InducedQuery,
    a_coefficient,
    branch_restriction,
    branch_set,
    decompose_induced,
    induced_multiplicity,
)
from .lr import lr_coefficient, lr_expand
from .oracle import oracle_induce
from .partitions import (
    Bipartition,
    Partition,
    enumerate_bipartitions,
    enumerate_partitions,
    format_bipartition,
    format_partition,
    length,
    parse_bipartition,
    parse_partition,
    remove_box,
    removable_rows,
    size,
    union,
)
from . import symchar
from .symchar import sym_centralizer_order, sym_char_value, sym_degree
from .verify import verify_formula

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every value store, the walk's tables and every functools
    cache under dweyl, in place: later calls compute their values again."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.partition(".")[0] == "dweyl":
            for value in vars(module).values():
                if isinstance(value, symchar.Store):
                    value.entries.clear()
                elif hasattr(value, "cache_clear"):
                    value.cache_clear()
    symchar._grown.clear()
    symchar._conjugates.clear()
    symchar._conjugates[0] = 0  # the empty shape, which _fold reads
