import re
from math import factorial

import pytest

from dweyl.partitions import enumerate_partitions, size
from dweyl.symchar import _moves, _shape, sym_centralizer_order, sym_char_value, sym_degree


def count_syt(shape):
    """Independent standard-tableau count by corner-removal recursion."""
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        if i == len(shape) - 1 or shape[i] > shape[i + 1]:
            smaller = list(shape)
            smaller[i] -= 1
            if smaller[i] == 0:
                smaller.pop()
            total += count_syt(tuple(smaller))
    return total


def test_trivial_character_is_one_everywhere():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            assert sym_char_value((n,), mu) == 1


def test_sign_character():
    assert sym_char_value((1, 1, 1), (2, 1)) == -1
    for n in range(1, 8):
        lam = (1,) * n
        for mu in enumerate_partitions(n):
            parity = sum(part - 1 for part in mu)
            assert sym_char_value(lam, mu) == (-1) ** parity


def test_degree_column():
    assert sym_char_value((2, 1), (1, 1, 1)) == 2
    for n in range(8):
        for lam in enumerate_partitions(n):
            assert sym_char_value(lam, (1,) * n) == sym_degree(lam)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        sym_char_value((2, 1), (2, 2))


def test_centralizer_orders():
    assert sym_centralizer_order((1, 1, 1)) == 6
    assert sym_centralizer_order((2, 1)) == 2
    assert sym_centralizer_order((3,)) == 3
    for n in range(1, 9):
        assert sum(factorial(n) // sym_centralizer_order(mu) for mu in enumerate_partitions(n)) == factorial(n)


def test_degrees_against_tableau_count():
    assert sym_degree((2, 2)) == 2
    assert sym_degree((3, 1)) == 3
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert sym_degree(lam) == count_syt(lam)


def test_sum_of_squares_of_degrees():
    for n in range(1, 9):
        assert sum(sym_degree(lam) ** 2 for lam in enumerate_partitions(n)) == factorial(n)


def test_row_orthogonality():
    for n in range(1, 8):
        order = factorial(n)
        lams = enumerate_partitions(n)
        for i, lam in enumerate(lams):
            for mu2 in lams[i:]:
                s = sum(
                    (order // sym_centralizer_order(mu)) * sym_char_value(lam, mu) * sym_char_value(mu2, mu)
                    for mu in lams
                )
                assert s == (order if lam == mu2 else 0)


def border_strips(shape, k):
    """All removals of a k-box border strip from shape, as (smaller shape,
    sign) pairs with sign (-1)**(rows of the strip - 1): a partition-level
    view of the abacus walk's removal move."""
    out = []
    for sub, sign in _moves(_shape(shape)[0], -k):
        beads = [b for b in range(sub.bit_length()) if sub >> b & 1]
        out.append((tuple(b - i for i, b in enumerate(beads))[::-1], sign))
    return out


def test_border_strips_leave_partitions():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for k in range(1, n + 1):
                for sub, sign in border_strips(lam, k):
                    assert size(sub) == n - k
                    assert all(sub[i] >= sub[i + 1] for i in range(len(sub) - 1))
                    assert sign in (-1, 1)


def brute_force_strips(shape, k):
    """Every (mu, sign) with mu inside shape, |shape/mu| = k and shape/mu an
    edge-connected skew shape without a 2x2 block; sign (-1)**(rows - 1)."""
    out = []
    for mu in enumerate_partitions(size(shape) - k):
        if len(mu) > len(shape) or any(m > s for m, s in zip(mu, shape)):
            continue
        padded = mu + (0,) * (len(shape) - len(mu))
        cells = {(i, j) for i, row in enumerate(shape) for j in range(padded[i], row)}
        if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells for i, j in cells):
            continue
        seen, todo = set(), [min(cells)]
        while todo:
            i, j = todo.pop()
            if (i, j) in seen:
                continue
            seen.add((i, j))
            todo += [c for c in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)) if c in cells]
        if seen != cells:
            continue
        rows = len({i for i, _ in cells})
        out.append((mu, (-1) ** (rows - 1)))
    return sorted(out)


def test_border_strips_match_brute_force():
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            for k in range(1, n + 1):
                assert sorted(border_strips(lam, k)) == brute_force_strips(lam, k), (lam, k)


def test_known_s3_table():
    # classes (1,1,1), (2,1), (3)
    table = {
        (3,): [1, 1, 1],
        (2, 1): [2, 0, -1],
        (1, 1, 1): [1, -1, 1],
    }
    classes = [(1, 1, 1), (2, 1), (3,)]
    for lam, row in table.items():
        assert [sym_char_value(lam, mu) for mu in classes] == row


def test_size_mismatch_message_uses_label_grammar():
    with pytest.raises(ValueError, match=re.escape("|[2,1]| != |[2,2]|")):
        sym_char_value((2, 1), (2, 2))
