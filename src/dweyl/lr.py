"""Littlewood-Richardson coefficients, by two independent rules.

c(alpha, beta; gamma) is the multiplicity of the irreducible character
[gamma] of S_n in the character induced from [alpha] x [beta] along the
Young subgroup S_a x S_b, n = a + b.  Both rules count Littlewood-
Richardson fillings of gamma/alpha with content beta: rows weakly
increase, columns strictly increase, and the reverse reading word (each
row right to left, rows top to bottom) is a ballot sequence.

* lr_coefficient answers one (alpha, beta, gamma) by filling the cells
  of the fixed skew shape gamma/alpha one at a time.
* lr_expand builds every gamma at once, output-sensitively: it grows
  gamma from alpha by adding beta's rows as horizontal strips, the k-th
  strip holding the letter k, and keeps a strip only if the letters
  stay a ballot sequence (the Remmel-Whitney / Lascoux-Schutzenberger
  product rule, as in Buch's lrcalc).  Partial fillings that end in the
  same shape with the same row counts of the last letter have the same
  futures and are merged, so no partition of n is enumerated.  The work
  is not that of the fillings, though: each merged state scans every
  row of its shape once per letter, so [1^k] x [1^k], with k + 1
  fillings, visits about k^2/2 states of about k rows each.

Each rule is tested against the other, and the representation-theoretic
definition is kept as a third check in the tests.  lr_coefficient
checks its arguments with as_partition on a cache miss, lr_expand on
every call; decomp, which has checked its labels, calls the unchecked
_lr_expand.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from types import MappingProxyType

from .partitions import Partition, as_partition, size


def _contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


@cache
def lr_coefficient(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """Littlewood-Richardson coefficient of gamma in alpha * beta.

    Zero whenever |gamma| != |alpha| + |beta| or gamma does not contain
    alpha.  The memo cache makes repeated queries cheap; duplicated
    computation under concurrent first calls is harmless.  Raises
    ValueError unless all three are partitions.
    """
    for p in (alpha, beta, gamma):
        as_partition(p)
    if size(gamma) != size(alpha) + size(beta) or not _contains(gamma, alpha):
        return 0
    if not beta:
        return 1
    inner = tuple(alpha) + (0,) * (len(gamma) - len(alpha))
    # Cells of gamma/alpha in reverse reading order, so that placement
    # order matches the ballot condition's prefix order.
    cells = [
        (r, c)
        for r in range(len(gamma))
        for c in range(gamma[r] - 1, inner[r] - 1, -1)
    ]
    nvals = len(beta)
    fill: dict[tuple[int, int], int] = {}
    # counts[v]: copies of letter v placed so far; the ballot condition
    # keeps them weakly decreasing in v, so once a letter is unused no
    # larger one can be placed
    counts = [0] * (nvals + 1)
    placed = [0] * len(cells)  # letter at each cell of the current path, 0 if none
    total = 0
    idx = 0
    # Depth-first over the cells with an explicit stack (placed), so a
    # skew shape with many cells costs no recursion.
    while idx >= 0:
        if idx == len(cells):
            total += 1
            idx -= 1
            continue
        r, c = cells[idx]
        v = placed[idx]
        if v:
            counts[v] -= 1
        right = fill.get((r, c + 1))
        hi = nvals if right is None else right
        v = max(v + 1, fill.get((r - 1, c), 0) + 1)
        while v <= hi:
            if v > 1 and not counts[v - 1]:
                v = hi + 1  # no larger letter fits either
            elif counts[v] < beta[v - 1] and (v == 1 or counts[v] < counts[v - 1]):
                break
            else:
                v += 1
        if v > hi:
            # a stale fill[(r, c)] is harmless: only later cells read it
            placed[idx] = 0
            idx -= 1
            continue
        placed[idx] = v
        counts[v] += 1
        fill[(r, c)] = v
        idx += 1
    return total


def _horizontal_strips(shape: Partition, last: tuple[int, ...] | None, m: int, final: bool):
    """Ways to add a horizontal strip of m copies of the next letter.

    ``last`` holds how many copies of the previous letter each row of
    ``shape`` has (None before the first letter).  The ballot condition
    reads: the new letters in rows <= r number at most the previous
    letters in rows < r.  Yields (new shape, new letters per row), or
    the new shape alone when ``final``: no later letter reads the row
    counts of the last one.  Depth-first over the rows that can take a
    box, with an explicit stack, so a shape with many rows costs no
    recursion.
    """
    rows = len(shape)
    # Rows with room (where), each with its most boxes (caps) and the
    # ballot bound on the running total there (bounds): row 0 is
    # unbounded, row r > 0 may grow up to the old length of row r - 1
    # (row `rows` is a new row).
    where, caps, bounds = [], [], []
    above = m if last is None else 0
    prev = m
    for r, length in enumerate(shape + (0,)):
        cap = m if r == 0 else prev - length
        prev = length
        if cap and above:
            bound = above if above < m else m
            where.append(r)
            caps.append(cap if cap < bound else bound)
            bounds.append(bound)
        if last is not None and r < rows:
            above += last[r]
    end = len(caps) - 1
    room = [0] * (end + 2)  # boxes the candidates from j on can take
    for j in range(end, -1, -1):
        room[j] = room[j + 1] + caps[j]
    if room[0] < m or bounds[-1] < m:
        return  # no strip of m boxes fits
    base = list(shape) + [0]
    new, placed = base[:], [0] * (rows + 1)
    # (candidate index, boxes it takes, boxes placed before it); a node's
    # subtree is popped before its siblings, so new and placed hold its
    # path.  The last candidate takes what is left, so it is never pushed.
    stack = [(-1, 0, 0)]
    while stack:
        j, x, used = stack.pop()
        if j >= 0:
            r = where[j]
            new[r], placed[r] = base[r] + x, x
            used += x
        j += 1
        left = m - used
        if j < end:
            for x in range(max(0, left - room[j + 1]), min(caps[j], bounds[j] - used, left) + 1):
                stack.append((j, x, used))
        elif left <= caps[end]:
            r = where[end]
            new[r], placed[r] = base[r] + left, left
            k = rows + 1 if new[rows] else rows
            yield tuple(new[:k]) if final else (tuple(new[:k]), tuple(placed[:k]))


def lr_expand(alpha: Partition, beta: Partition) -> Mapping[Partition, int]:
    """All gamma with nonzero coefficient in alpha * beta, with coefficients.

    Keys come in the order of enumerate_partitions (descending tuples).
    The result is cached and read-only.  Raises ValueError unless both
    are partitions.
    """
    return _lr_expand(as_partition(alpha), as_partition(beta))


@cache
def _lr_expand(alpha: Partition, beta: Partition) -> Mapping[Partition, int]:
    """lr_expand without the partition checks, for callers that made them."""
    if len(beta) > len(alpha):
        # c is symmetric in alpha and beta; fewer strips is faster.
        alpha, beta = beta, alpha
    if not beta:
        return MappingProxyType({alpha: 1})
    # Keyed by (shape, last letter's row counts) until the last letter,
    # then by shape alone.
    states: dict = {(alpha, None): 1}
    final = len(beta) - 1
    for k, m in enumerate(beta):
        grown: dict = {}
        for (shape, last), count in states.items():
            for key in _horizontal_strips(shape, last, m, k == final):
                grown[key] = grown.get(key, 0) + count
        states = grown
    return MappingProxyType({gamma: states[gamma] for gamma in sorted(states, reverse=True)})
