"""Character values of symmetric groups.

Irreducible characters of S_n are indexed by partitions of n, with (n)
the trivial character and (1,...,1) the sign character.  Values are
exact integers from the Murnaghan-Nakayama kernel ``mn_value`` on the
abacus (James-Kerber, *The Representation Theory of the Symmetric
Group*, 2.7), which ``dweyl.bchar`` shares.  All functions are pure;
the memo caches are compute-once.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial, prod

from .partitions import Partition, format_partition, size


@cache
def _abacus(shape: Partition) -> int:
    """Beta-set of shape as a bitmask; bit 0 is clear, so each shape has one mask."""
    m = len(shape)
    return sum(1 << (part + m - 1 - i) for i, part in enumerate(shape))


def _beads(mask: int) -> list[int]:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def _strips(mask: int, k: int) -> list[tuple[int, int]]:
    """(smaller mask, sign) for each removal of a k-box border strip.

    A bead moves from b down to a free b - k; the sign (-1)**height is
    the parity of the beads strictly between.
    """
    out = []
    between = (1 << (k - 1)) - 1
    free_below = (mask & ~(mask << k)) >> k  # bit j: a bead at j + k, none at j
    while free_below:
        low = free_below & -free_below
        free_below ^= low
        j = low.bit_length() - 1
        sub = mask ^ low ^ (low << k)
        if j == 0:  # the bead reached the bottom: drop the rows now empty
            sub >>= (~sub & (sub + 1)).bit_length() - 1
        out.append((sub, -1 if (mask >> (j + 1) & between).bit_count() & 1 else 1))
    return out


def border_strips(shape: Partition, k: int) -> list[tuple[Partition, int]]:
    """All removals of a k-box border strip from shape.

    Returns (smaller_shape, sign) pairs with sign = (-1)**height, where
    height is one less than the number of rows the strip occupies.
    A partition-level view of the abacus step of the character kernel.
    """
    if k <= 0:
        return []
    return [
        (tuple(b - i for i, b in enumerate(_beads(sub)))[::-1], sign)
        for sub, sign in _strips(_abacus(shape), k)
    ]


@cache
def _mn(first: int, second: int, positive: Partition, negative: Partition) -> int:
    if positive:
        k, positive, twist = positive[0], positive[1:], 1
    elif negative:
        k, negative, twist = negative[0], negative[1:], -1
    else:
        return 1
    total = 0
    for sub, sign in _strips(first, k):
        total += sign * _mn(sub, second, positive, negative)
    for sub, sign in _strips(second, k):
        total += twist * sign * _mn(first, sub, positive, negative)
    return total


def mn_value(first: Partition, second: Partition, positive: Partition, negative: Partition) -> int:
    """Murnaghan-Nakayama value of (first; second) at a signed cycle type.

    A negative cycle peeled from second takes a factor -1.  The shapes'
    total size must equal the cycle types'.
    """
    return _mn(_abacus(first), _abacus(second), positive, negative)


def sym_char_value(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character [lam] at cycle type mu."""
    if size(lam) != size(mu):
        raise ValueError(f"size mismatch: |{format_partition(lam)}| != |{format_partition(mu)}|")
    return _mn(_abacus(lam), 0, mu, ())


def sym_centralizer_order(mu: Partition) -> int:
    """Centralizer order of a permutation of cycle type mu: prod i^m_i m_i!."""
    out = 1
    for i, m in Counter(mu).items():
        out *= i**m * factorial(m)
    return out


def sym_degree(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam, from its beta numbers."""
    beads = _beads(_abacus(lam))
    gaps = prod(c - b for i, b in enumerate(beads) for c in beads[i + 1 :])
    return factorial(size(lam)) * gaps // prod(map(factorial, beads))
