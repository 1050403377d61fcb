"""Induced character decompositions for Weyl groups of type D.

Computes, in exact integer arithmetic, the decomposition into
irreducibles of characters induced from maximal reflection subgroups of
type D_a x D_b inside W(D_n), via Littlewood-Richardson combinatorics,
and verifies the closed formula against a brute-force engine built on
explicit signed permutations at small rank.
"""

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
from .symchar import sym_centralizer_order, sym_char_value, sym_degree
from .verify import verify_formula

__version__ = "0.1.0"
