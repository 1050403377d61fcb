"""The benchmark's own combinatorics, written independently of dweyl.

Inputs are sampled and answers are checked with the code in this module
only, so a change to the library cannot silently change the workload or
the check.  Labels are plain tuples:

* a partition is a weakly decreasing tuple of positive ints;
* a type D character is ``(first, second, eps)`` with eps 0 for an
  unordered pair of different partitions and +1/-1 for the two halves of
  an equal pair;
* a type B class is ``(positive, negative)``; a type D class adds a split
  tag, None or +1/-1.

Text forms follow the CLI label grammar: ``[3,1]``, ``([3],[1])``,
``([2],[2])+``.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, largest first part first."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
            return
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def bipartitions(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(lam, mu) for k in range(n + 1) for lam in partitions(k) for mu in partitions(n - k)]


def canonical_pair(first, second):
    """Fixed order of an unordered pair: larger (size, parts) first."""
    if (sum(first), first) < (sum(second), second):
        return second, first
    return first, second


@lru_cache(maxsize=None)
def d_labels(n: int) -> tuple[tuple, ...]:
    """Irreducible characters of W(D_n) as (first, second, eps)."""
    out = []
    for first, second in bipartitions(n):
        if first == second:
            out += [(first, second, 1), (first, second, -1)]
        elif canonical_pair(first, second) == (first, second):
            out.append((first, second, 0))
    return tuple(out)


def b_classes(n: int) -> list[tuple]:
    return bipartitions(n)


def splittable(positive, negative) -> bool:
    return not negative and all(part % 2 == 0 for part in positive)


def d_classes(n: int) -> list[tuple]:
    out = []
    for positive, negative in bipartitions(n):
        if len(negative) % 2:
            continue
        if splittable(positive, negative):
            out += [(positive, negative, 1), (positive, negative, -1)]
        else:
            out.append((positive, negative, None))
    return out


def remove_one_box(p) -> list[tuple[int, ...]]:
    """Every partition made from p by removing one corner box."""
    out = []
    for row in range(len(p)):
        if row == len(p) - 1 or p[row] > p[row + 1]:
            shorter = p[row] - 1
            out.append(p[:row] + ((shorter,) if shorter else ()) + p[row + 1:])
    return out


def branch_pairs(first, second) -> set[tuple]:
    """Bipartitions one box smaller than (first, second), each in both
    component orders."""
    out = set()
    for smaller in remove_one_box(first):
        out |= {(smaller, second), (second, smaller)}
    for smaller in remove_one_box(second):
        out |= {(first, smaller), (smaller, first)}
    return out


# ---------------------------------------------------------------------------
# Orders, class sizes and degrees


def order_b(n: int) -> int:
    return 2**n * factorial(n)


def order_d(n: int) -> int:
    return order_b(n) // 2


def z_sym(mu) -> int:
    return prod(i**m * factorial(m) for i, m in Counter(mu).items())


def z_b(positive, negative) -> int:
    return prod((2 * i) ** m * factorial(m) for part in (positive, negative) for i, m in Counter(part).items())


def class_size_sym(mu) -> int:
    return factorial(sum(mu)) // z_sym(mu)


def class_size_b(c) -> int:
    positive, negative = c
    return order_b(sum(positive) + sum(negative)) // z_b(positive, negative)


def class_size_d(c) -> int:
    """A B-class with an even number of negative cycles lies in W(D_n);
    it stays one class there unless its type splits, then it halves."""
    positive, negative, split = c
    size = class_size_b((positive, negative))
    return size // 2 if split is not None else size


@lru_cache(maxsize=None)
def hook_degree(lam) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula."""
    n = sum(lam)
    conj = [sum(1 for row in lam if row > col) for col in range(lam[0])] if lam else []
    hooks = prod(row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
    return factorial(n) // hooks


def b_degree(first, second) -> int:
    return comb(sum(first) + sum(second), sum(first)) * hook_degree(first) * hook_degree(second)


def d_degree(label) -> int:
    first, second, eps = label
    return b_degree(first, second) // (2 if eps else 1)


# ---------------------------------------------------------------------------
# Text forms in the CLI label grammar


def fmt_partition(p) -> str:
    return "[" + ",".join(map(str, p)) + "]"


def fmt_bipartition(first, second) -> str:
    return f"({fmt_partition(first)},{fmt_partition(second)})"


def fmt_d_label(label) -> str:
    first, second, eps = label
    return fmt_bipartition(first, second) + {0: "", 1: "+", -1: "-"}[eps]


def fmt_d_class(c) -> str:
    positive, negative, split = c
    tag = {None: "", 1: ",+", -1: ",-"}[split]
    return f"({fmt_partition(positive)},{fmt_partition(negative)}{tag})"


def _parts(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in body.split(",")) if body.strip() else () for body in re.findall(r"\[([^\]]*)\]", text)]


def _tag(text: str):
    return 1 if "+" in text else -1 if "-" in text else None


def read_partition(text: str) -> tuple[int, ...]:
    (p,) = _parts(text)
    return p


def read_pair(text: str) -> tuple:
    first, second = _parts(text)
    return first, second


def read_d_label(text: str) -> tuple:
    """A type D character, its unordered pair put in ``canonical_pair`` order."""
    first, second = _parts(text)
    eps = _tag(text) or 0
    if not eps:
        first, second = canonical_pair(first, second)
    return first, second, eps


def read_d_class(text: str) -> tuple:
    positive, negative = _parts(text)
    return positive, negative, _tag(text)
