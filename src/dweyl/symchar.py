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

The forward walk is folded by the linear characters that permute the
labels: [lambda'] = sgn [lambda] (James-Kerber 2.1.8) for S_n, and for
B_n and D_n [beta; alpha] = delta [alpha; beta] (Geck-Pfeiffer 2000,
5.5) and [alpha'; beta'] = pi [alpha; beta], pi the sign of the
underlying permutation.  The walk keeps one state per orbit of these
label symmetries, about a half (S_n) or a quarter (B_n, D_n) of the
states of a walk keeping every label, and a column is one lookup per
label in its orbit's state, times the class's value of the character
that carries the label there.  A class keeps only the values read from
its walk, not the walk's states.  The values asked are kept in one
plain dict per group type, {class: {label: value}} (``s_memo`` here,
keyed by the cycle type itself; ``bchar.b_memo``, ``dchar.d_memo``), so
a warm value is two lookups.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import repeat
from math import comb, factorial, prod
from operator import mul

from .partitions import (
    Partition,
    as_partition,
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


_conjugates: dict = {0: 0}
"""{bead mask: the conjugate shape's bead mask}, both ways, for every
mask _conj has met: the folded walk reads it once per state."""


def _conj(mask: int) -> int:
    """Bead mask of the conjugate shape: the gaps from bit 0 to the top
    bead, read from the top down."""
    try:
        return _conjugates[mask]
    except KeyError:
        width = mask.bit_length()
        conj = int(bin(~mask & (1 << width) - 1)[2:].zfill(width)[::-1], 2)
        _conjugates[mask], _conjugates[conj] = conj, mask
        return conj


_grown: dict = {}
"""{k: {bead mask: _grow(mask, k)}}, filled by the folded walk."""


def _grow(mask: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """(orbit, sign, o, sub) per k-strip added to the shape with bead mask
    mask (k > 0), as _moves: orbit is the larger of sub and its
    conjugate, o is 1, -1 or 0 as sub is orbit, its conjugate, or both."""
    out = []
    for sub, sign in _moves.__wrapped__(mask, k):
        conj = _conj(sub)
        out.append((sub, sign, 1, sub) if sub > conj else (conj, sign, -1, sub) if sub < conj else (sub, sign, 0, sub))
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


def _orbit(first: int, second: int) -> tuple[int, int, int]:
    """(first, second, via) for the state of the orbit of the bead masks
    (first, second) under the swap and the conjugation of both, the
    largest of the four, and via, which of them carries (first, second)
    there: bit 0 the swap, bit 1 the conjugation."""
    conj = _conj(first), _conj(second)
    return max((first, second, 0), (second, first, 1), (*conj, 2), (conj[1], conj[0], 3))


@cache
def _labels(n: int, pairs: bool) -> tuple[tuple, list, dict]:
    """Partitions of n, or bipartitions with pairs; each one's state in
    _fold (an S_n label (mask, 0) has state mask); and by (turn, pi), the
    values at a class of the linear characters of the swap and of the
    conjugation, the sign of the label's value on its state, unless both
    are 1."""
    labels = enumerate_bipartitions(n) if pairs else enumerate_partitions(n)
    orbits = [_orbit(_shape(x[0])[0], _shape(x[1])[0]) if pairs else _orbit(_shape(x)[0], 0) for x in labels]
    keys = [(first, second) if pairs else first for first, second, _ in orbits]
    signs = {(turn, pi): [(1, turn, pi, turn * pi)[via] for *_, via in orbits] for turn, pi in ((-1, 1), (1, -1), (-1, -1))}
    return labels, keys, signs


def _fold(cls) -> dict:
    """The walk at class type cls forward from the empty shape, its
    cycles added smallest first, keeping one state per orbit of the label
    symmetries (see the module docstring), the orbit's largest member: a
    bead mask x >= x' for S_n, (x, y) with x >= x' and x >= y, y' for B_n.
    A label's value at cls is its orbit's coefficient times the class's
    value of the linear character carrying the label there (_labels).

    The coefficient of a state's image under the swap, the conjugation or
    both is its own times turn, pi or turn * pi, the products over the
    cycles so far of twist and of (-1)**(k - 1).  So each state moves
    itself only, and a move landing on another member of an orbit adds
    to the orbit's state times the character carrying it there.  A move
    onto a state fixed by more of the symmetries than the moving state
    adds once for each of them, times its character: 1 + pi onto a
    self-conjugate shape, as the swap fold had 1 + turn onto (h, h).  A
    state fixed by a symmetry makes only one of each pair of its moves
    that the symmetry swaps, which add equal terms: (h, h) and (h, h')
    move h only, and a self-conjugate state skips the moves onto the
    conjugate of a state, counting one onto a self-conjugate state once.
    A move of x raises it above y and y', so it lands on (orbit, y) or,
    conjugated, (orbit, y')."""
    positive, negative = cls
    pi, conjugates = 1, _conjugates
    if negative is None:
        # The pair loop below at y = 0, keyed by the mask alone: run through
        # that loop as (mask, 0), the S_12 table of the chartable benchmark
        # took 13% longer and its whole pass 3.6%, for the tuple keys and the
        # pair rule's work per state.
        states = {0: 1}
        for k in reversed(positive):
            if k % 2 == 0:
                pi = -pi
            rule, fixed = (1 + pi, 1, pi), (1, 1, 0)  # by o of the move: 0, 1, -1
            out: dict = {}
            get, grown = out.get, _grown.setdefault(k, {})
            for x, coef in states.items():
                if not coef:  # cancelled
                    continue
                try:
                    moves = grown[x]
                except KeyError:
                    moves = grown[x] = _grow(x, k)
                f = fixed if x == conjugates[x] else rule
                for orbit, sign, o, _ in moves:
                    out[orbit] = get(orbit, 0) + sign * f[o] * coef
            states = out
        return states
    states, turn = {(0, 0): 1}, 1
    for k, twist in _cycles(cls):
        turn *= twist
        if k % 2 == 0:
            pi = -pi
        out = {}
        get, grown = out.get, _grown.setdefault(k, {})
        for (x, y), coef in states.items():
            if not coef:  # cancelled
                continue
            xc, yc = conjugates[x], conjugates[y]
            xs = x == xc
            fixed = xs and y == yc  # its own conjugate
            # By o of a move of x: the second component where it lands, and its term.
            if y > yc:
                seconds, terms = (y, y, yc), (coef, coef, pi * coef)
            elif y < yc:
                seconds, terms = (yc, y, yc), (pi * coef, coef, pi * coef)
            else:
                seconds, terms = (y, y, y), ((coef, coef, 0) if fixed else ((1 + pi) * coef, coef, pi * coef))
            try:
                moves = grown[x]
            except KeyError:
                moves = grown[x] = _grow(x, k)
            for orbit, sign, o, _ in moves:
                state = orbit, seconds[o]
                out[state] = get(state, 0) + sign * terms[o]
            if y == x or y == xc:  # its own swap (or swapped conjugate): x's moves cover y's
                continue
            coef *= twist
            try:
                moves = grown[y]
            except KeyError:
                moves = grown[y] = _grow(y, k)
            for orbit, sign, o, sub in moves:  # onto (x, sub)
                if fixed and o < 0:
                    continue
                if orbit < x:  # (x, sub) or, x self-conjugate, (x, orbit)
                    if not xs:
                        state, f = (x, sub), 1
                    else:
                        state, f = (x, orbit), pi if o < 0 else 1 if o or fixed else 1 + pi
                elif orbit > x:  # the swap (orbit, x), or with the conjugation (orbit, xc)
                    if o < 0:
                        state, f = (orbit, xc), turn * pi
                    else:
                        state, f = (orbit, x), turn if o or fixed or not xs else turn * (1 + pi)
                elif xs:  # (x, x), all four its own
                    state, f = (x, x), 1 + turn if fixed else (1 + turn) * (1 + pi)
                elif o > 0:  # (x, x), its own swap
                    state, f = (x, x), 1 + turn
                else:  # (x, xc), its own swapped conjugate
                    state, f = (x, xc), 1 + turn * pi
                out[state] = get(state, 0) + sign * f * coef
        states = out
    return states


def read_column(cls) -> dict:
    """Value at class cls of every label of its rank, by label."""
    positive, negative = cls
    n, cycles = sum(positive) + sum(negative or ()), len(positive) + len(negative or ())
    labels, keys, signs = _labels(n, negative is not None)
    values = map(_fold(cls).get, keys, repeat(0))
    turn, pi = -1 if negative and len(negative) % 2 else 1, -1 if (n - cycles) % 2 else 1
    if turn < 0 or pi < 0:
        values = map(mul, values, signs[turn, pi])
    return dict(zip(labels, values))


COLUMN_LABELS = 10_000
"""Most labels (partitions, or bipartitions for B_n and D_n) of a rank
whose columns are walked: B_n and D_n up to n = 17, S_n up to n = 32."""

s_memo: dict = {}
"""{cycle type mu: {label: value at mu}}: the values asked of S_n."""


def checked_rank(memo: dict, key, cls) -> int:
    """Rank of the class cls, which memo keeps under key: checked by
    check_class unless memo holds it, as it does only once checked."""
    positive, negative, *_ = cls
    return sum(positive) + sum(negative or ()) if key in memo else check_class(cls)


def first_request(memo: dict, cls, label, count, n: int, single, whole) -> int:
    """A checked label's value missing from memo[cls], cls of rank n
    checked too: single() for the class's first label, else from its
    column whole(), which memo keeps, unless the rank has more than
    COLUMN_LABELS labels (count(n), counted without enumerating them,
    and only once the class holds a value); then single() answers every
    label.  The views pass single and whole as partial objects, not
    closures, so that their lookups make no cells."""
    column = memo.get(cls)
    if column and count(n) <= COLUMN_LABELS:
        memo[cls] = column = whole()
        return column[label]
    value = single()
    memo.setdefault(cls, {})[label] = value
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
    try:
        return s_memo[mu][lam]
    except KeyError:
        pass
    cls = mu, None
    n = checked_rank(s_memo, mu, cls)
    mask, size = _shape(lam)
    if size != n:
        raise ValueError(f"size mismatch: |{format_partition(lam)}| != |{format_partition(mu)}|")
    return first_request(s_memo, mu, lam, partition_count, n, partial(backward, cls, (mask, 0)), partial(read_column, cls))


def sym_centralizer_order(mu: Partition) -> int:
    """Centralizer order of a permutation of cycle type mu: prod i^m_i m_i!."""
    out = 1
    for i, m in Counter(mu).items():
        out *= i**m * factorial(m)
    return out


def sym_degree(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam."""
    return _degree(_shape(lam)[0])[1]
