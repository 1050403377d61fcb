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
every later request.  The memos are ``functools`` caches.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import repeat
from math import comb, factorial, prod

from .partitions import Partition, as_partition, enumerate_bipartitions, enumerate_partitions, format_class, format_partition


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


def _walk(states: dict, cycles, direction: int) -> dict:
    """Advance {(first, second): coefficient} a layer per signed cycle
    (k, twist): a k-strip is added (direction 1) or removed (direction
    -1) on first, or on second times twist."""
    for k, twist in cycles:
        k *= direction
        out: dict = {}
        get = out.get
        for (first, second), coef in states.items():
            if not coef:  # cancelled
                continue
            for sub, sign in _moves(first, k):
                state = sub, second
                out[state] = get(state, 0) + sign * coef
            if twist:
                for sub, sign in _moves(second, k):
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
    for (first, second), coef in _walk({state: 1}, reversed(cycles[len(ones):]), -1).items():
        (a, fa), (b, fb) = _degree(first), _degree(second)
        total += coef * fa * fb * sum((-1) ** j * comb(q, j) * comb(a + b - q, b - j) for j in range(b + 1))
    return total


@cache
def _labels(n: int, pairs: bool) -> tuple[tuple, list]:
    """Partitions of n, or bipartitions with pairs, and their bead masks."""
    labels = enumerate_bipartitions(n) if pairs else enumerate_partitions(n)
    return labels, [(_shape(x[0])[0], _shape(x[1])[0]) if pairs else (_shape(x)[0], 0) for x in labels]


@cache
def column(cls) -> dict:
    """Value at class cls of every label of its rank, by label: the
    cycles added to the empty shape, smallest first."""
    positive, negative = cls
    states = _walk({(0, 0): 1}, _cycles(cls), 1)
    labels, keys = _labels(sum(positive) + sum(negative or ()), negative is not None)
    return dict(zip(labels, map(states.get, keys, repeat(0))))


@cache
def memo(cls) -> list:
    """[values asked at class cls, by label; its rank], made once cls is
    checked, so a bad class leaves no entry; see first_request."""
    return [{}, check_class(cls)]


def first_request(cls, label, single, whole) -> int:
    """A checked label's value missing from memo(cls): single() for the
    class's first label, else from its column whole(), which memo keeps."""
    box = memo(cls)
    if box[0]:
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
        value = first_request(cls, lam, lambda: backward(cls, (mask, 0)), lambda: column(cls))
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
