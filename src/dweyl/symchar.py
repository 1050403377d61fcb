"""Character values of symmetric groups.

Irreducible characters of S_n are indexed by partitions of n, with (n)
the trivial character and (1,...,1) the sign character.  Values are
exact integers from the Murnaghan-Nakayama rule on the abacus
(James-Kerber, *The Representation Theory of the Symmetric Group*, 2.7),
shared with ``dweyl.bchar`` and ``dweyl.dchar``.  It runs with no
recursion, as a loop over layers of {bead masks: coefficient}, one per
cycle: backward from a label for one value, or forward from the empty
shape for a class's whole column.  A class's first value is a backward
walk; a different label asked there walks the column, which answers
every later request, unless the rank has more than ``COLUMN_LABELS``
labels (counted, not enumerated): then every label walks back.

The forward walk of B_n and D_n is folded by the swap of the two
components: (alpha, beta) and (beta, alpha) differ at a class only by
the sign (-1)**(negative cycles), so the walk keeps one state per swap
orbit, with the larger bead mask first, and about half the states of a
walk keeping both orders.  A column is then one lookup per label, times
that sign for a label whose masks come in the other order.  A class
keeps only the values read from its walk, not the walk's states.  The
memos are ``functools`` caches.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import repeat
from math import comb, factorial, prod
from operator import mul

from .partitions import (
    Partition,
    as_partition,
    bipartition_count,
    enumerate_bipartitions,
    enumerate_partitions,
    format_class,
    format_partition,
    partition_count,
)


@cache
def _shape(p: Partition) -> tuple[int, int]:
    """Bead mask (bit 0 clear: one per shape) and size of a partition, checked."""
    as_partition(p)
    return sum(1 << (part + len(p) - 1 - i) for i, part in enumerate(p)), sum(p)


def _beads(mask: int) -> list[int]:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


@cache
def _degree(mask: int) -> tuple[int, int]:
    """Size and number of standard tableaux of the shape with bead mask,
    by hook lengths: a bead's row has hooks b - g for the gaps g below it."""
    hooks, gaps, n = 1, [], 0
    for b in range(mask.bit_length()):
        if mask >> b & 1:
            hooks *= prod(b - g for g in gaps)
            n += len(gaps)
        else:
            gaps.append(b)
    return n, factorial(n) // hooks


@cache
def _moves(mask: int, k: int) -> tuple[tuple[int, int], ...]:
    """(mask, sign) per |k|-box border strip added (k > 0) or removed (k < 0):
    a bead moves |k| places to a free one; sign is (-1)**(beads passed)."""
    d = abs(k)
    if k > 0:
        mask = mask << d | (1 << d) - 1  # d more beads below: room for new rows
        lows = mask & ~(mask >> d)  # bit j: a bead at j, none at j + d
    else:
        lows = (mask & ~(mask << d)) >> d  # bit j: a bead at j + d, none at j
    out = []
    while lows:
        low = lows & -lows
        lows ^= low
        sub = mask ^ low ^ low << d
        sub >>= (~sub & (sub + 1)).bit_length() - 1  # drop the rows now empty
        out.append((sub, -1 if (mask >> low.bit_length() & (1 << d - 1) - 1).bit_count() & 1 else 1))
    return tuple(out)


def _walk(states: dict, cycles) -> dict:
    """Advance {(first, second): coefficient} a layer per signed cycle
    (k, twist): a k-strip is removed from first, or from second times
    twist."""
    for k, twist in cycles:
        out: dict = {}
        get = out.get
        for (first, second), coef in states.items():
            if not coef:  # cancelled
                continue
            for sub, sign in _moves(first, -k):
                state = sub, second
                out[state] = get(state, 0) + sign * coef
            if twist:
                for sub, sign in _moves(second, -k):
                    state = first, sub
                    out[state] = get(state, 0) + twist * sign * coef
        states = out
    return states


def splittable(positive: Partition, negative: Partition) -> bool:
    """Whether a type D class splits in two: all cycles positive and even."""
    return not negative and all(part % 2 == 0 for part in positive)


def check_class(cls) -> int:
    """Rank of a class after checking it: (mu, None) of S_n, (positive,
    negative) of B_n, or (positive, negative, split) of D_n, with an even
    number of negative cycles and split 1 or -1 exactly when splittable."""
    positive, negative, *split = cls
    n = sum(as_partition(positive)) + (0 if negative is None else sum(as_partition(negative)))
    if split and len(negative) % 2:
        raise ValueError(f"class {format_class(cls)} has an odd number of negative cycles")
    if split and (split[0] not in (None, 1, -1) or (split[0] is None) == splittable(positive, negative)):
        raise ValueError(f"class {format_class(cls)} needs a +/- tag exactly when all its cycles are positive and even")
    return n


def _cycles(cls) -> list[tuple[int, int]]:
    """Signed cycles, ascending: (mu, None) is a class of S_n (twist 0)."""
    positive, negative = cls
    if negative is None:
        return [(k, 0) for k in reversed(positive)]
    return sorted([(k, 1) for k in positive] + [(k, -1) for k in negative])


def backward(cls, state: tuple[int, int]) -> int:
    """Value at class cls of the label with bead masks state: the cycles
    removed from it, largest first.  The fixed points, p positive and q
    negative, go last and in closed form: (alpha; beta) takes f(alpha)
    f(beta) times the sum over the ways to put beta's |beta| boxes on
    them of (-1)**(negative ones)."""
    cycles = _cycles(cls)
    ones = [twist for k, twist in cycles if k == 1]
    q = ones.count(-1)
    total = 0
    for (first, second), coef in _walk({state: 1}, reversed(cycles[len(ones):])).items():
        (a, fa), (b, fb) = _degree(first), _degree(second)
        total += coef * fa * fb * sum((-1) ** j * comb(q, j) * comb(a + b - q, b - j) for j in range(b + 1))
    return total


@cache
def _labels(n: int, pairs: bool) -> tuple[tuple, list, list]:
    """Partitions of n, or bipartitions with pairs; each one's state in
    _fold, its bead masks with the larger first; and -1 where that
    swapped them, else 1."""
    labels = enumerate_bipartitions(n) if pairs else enumerate_partitions(n)
    masks = [(_shape(x[0])[0], _shape(x[1])[0]) if pairs else (_shape(x)[0], 0) for x in labels]
    return labels, [max(m, m[::-1]) for m in masks], [-1 if m[0] < m[1] else 1 for m in masks]


def _fold(cls) -> dict:
    """The walk at class type cls forward from the empty shape, its
    cycles (k, twist) added smallest first: a k-strip on first, or on
    second times twist, with one state per swap orbit, (first, second)
    with first >= second.  A label's value at cls is its state's
    coefficient, or that times (-1)**(negative cycles) if the state has
    its masks swapped.

    Swapping the components is tensoring with a linear character,
    [beta; alpha] = delta [alpha; beta] (Geck-Pfeiffer 5.5), so a state's
    swap holds its coefficient times turn, the product of the twists so
    far.  Each kept state moves itself only (a state (h, h) its first
    component only: its second's moves are the swaps of those).  Adding
    boxes raises a mask, so a move of first keeps the order; a move of
    second onto (x, y) with x < y lands on (y, x) times turn, and one
    onto (x, x) counts for both orders, times 1 + turn.  A class of S_n
    (twist 0) keeps second = 0 and never swaps."""
    states, turn = {(0, 0): 1}, 1
    for k, twist in _cycles(cls):
        before, turn = turn, turn * twist
        out: dict = {}
        get = out.get
        for (first, second), coef in states.items():
            if not coef:  # cancelled
                continue
            for sub, sign in _moves(first, k):  # sub > first >= second
                state = sub, second
                out[state] = get(state, 0) + sign * coef
            if twist and first != second:
                for sub, sign in _moves(second, k):
                    if sub < first:
                        state, sign = (first, sub), twist * sign
                    elif sub > first:
                        state, sign = (sub, first), before * sign
                    else:
                        state, sign = (sub, sub), (1 + turn) * twist * sign
                    out[state] = get(state, 0) + sign * coef
        states = out
    return states


def read_column(cls) -> dict:
    """Value at class cls of every label of its rank, by label."""
    positive, negative = cls
    labels, keys, swapped = _labels(sum(positive) + sum(negative or ()), negative is not None)
    values = map(_fold(cls).get, keys, repeat(0))
    if negative and len(negative) % 2:
        values = map(mul, values, swapped)
    return dict(zip(labels, values))


COLUMN_LABELS = 10_000
"""Most labels (partitions, or bipartitions for B_n and D_n) of a rank
whose columns are walked: B_n and D_n up to n = 17, S_n up to n = 32."""


@cache
def memo(cls) -> list:
    """[values asked at class cls, by label; its rank], made once cls is
    checked, so a bad class leaves no entry; see first_request."""
    return [{}, check_class(cls)]


def first_request(cls, label, single, whole) -> int:
    """A checked label's value missing from memo(cls): single() for the
    class's first label, else from its column whole(), which memo keeps,
    unless the rank has more than COLUMN_LABELS labels, counted without
    enumerating them; then single() answers every label."""
    box = memo(cls)
    if box[0] and (bipartition_count if cls[1] is not None else partition_count)(box[1]) <= COLUMN_LABELS:
        box[0] = whole()
        return box[0][label]
    box[0][label] = value = single()
    return value


def border_strips(shape: Partition, k: int) -> list[tuple[Partition, int]]:
    """All removals of a k-box border strip from shape.

    Returns (smaller_shape, sign) pairs with sign = (-1)**height, where
    height is one less than the number of rows the strip occupies.
    A partition-level view of the walk's removal move.
    """
    if k <= 0:
        return []
    return [
        (tuple(b - i for i, b in enumerate(_beads(sub)))[::-1], sign)
        for sub, sign in _moves(_shape(shape)[0], -k)
    ]


def sym_char_value(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character [lam] at cycle type mu."""
    cls = mu, None
    value = memo(cls)[0].get(lam)
    if value is None:
        mask, n = _shape(lam)
        if n != memo(cls)[1]:
            raise ValueError(f"size mismatch: |{format_partition(lam)}| != |{format_partition(mu)}|")
        value = first_request(cls, lam, lambda: backward(cls, (mask, 0)), lambda: read_column(cls))
    return value


def sym_centralizer_order(mu: Partition) -> int:
    """Centralizer order of a permutation of cycle type mu: prod i^m_i m_i!."""
    out = 1
    for i, m in Counter(mu).items():
        out *= i**m * factorial(m)
    return out


def sym_degree(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam."""
    return _degree(_shape(lam)[0])[1]
