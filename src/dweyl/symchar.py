"""Character values of symmetric groups.

Irreducible characters of S_n are indexed by partitions of n, with (n)
the trivial character and (1,...,1) the sign character.  Values are
exact integers from the Murnaghan-Nakayama rule on the abacus
(James-Kerber, *The Representation Theory of the Symmetric Group*, 2.7),
shared with ``dweyl.bchar`` and ``dweyl.dchar``.  It runs with no
recursion, as a loop over layers of {bead masks: coefficient}, one per
cycle: backward from a label for one value, or forward from the empty
shape for a class's whole column.

The forward walk is folded by the linear characters that permute the
labels: [lambda'] = sgn [lambda] (James-Kerber 2.1.8) for S_n, and for
B_n and D_n [beta; alpha] = delta [alpha; beta] (Geck-Pfeiffer 2000,
5.5) and [alpha'; beta'] = pi [alpha; beta], pi the sign of the
underlying permutation.  The walk keeps one state per orbit of these
label symmetries, about a half (S_n) or a quarter (B_n, D_n) of the
states of a walk keeping every label, and a column is one lookup per
label in its orbit's state, times the class's value of the character
that carries the label there: ``read_column``, for all three views,
under the keys ``column_keys`` builds from a view's labels in its order
(partitions, bipartitions, or the labels of W(D_n) at the states of
their bipartitions).  A class keeps only the values read from its walk,
not the walk's states.

Some columns need no walk at all.  The central element -1 of B_n (and
of D_n for even n) negates every point, so w(-1) has the cycles of w
with each odd one's sign flipped (``central_partner``), and as -1 acts
on an irreducible module by a scalar, its central character (-1)**|beta|
for [alpha; beta] (Geck-Pfeiffer 2000), a label's value at w(-1) is its
value at w times that sign.  So the B and D views, having walked the
column of a class with an odd cycle, store that of its partner class
too, its values times the signs ``column_keys`` keeps under "central";
a class with no odd cycle is its own partner.  S_n has no such element.

The values asked of each view are kept in its ``Store`` (``s_store``
here, keyed by the cycle type itself; ``bchar.b_store``,
``dchar.d_store``), the only code that writes them: a plain dict of
entries {class: (index, values)}, values a list and index {label: its
slot}, bound by the view at import (``s_memo``, ``b_memo``, ``d_memo``)
so that a warm value is two dict subscripts.  A class's first value is
walked back and kept under a private index; a second label walks the
column, stored with those the walk fills beside it under the one index
of its rank, so the shared one never grows.  ``dweyl.clear_caches``
empties every store.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import repeat
from math import comb, factorial, prod
from operator import itemgetter, mul

from .partitions import (
    Partition,
    as_partition,
    enumerate_partitions,
    format_class,
    format_partition,
    last_rank_within,
    partition_count,
)


@cache
def _shape(p: Partition) -> tuple[int, int]:
    """Bead mask (bit 0 clear: one per shape) and size of a partition, checked."""
    as_partition(p)
    return sum(1 << (part + len(p) - 1 - i) for i, part in enumerate(p)), sum(p)


def _given_shape(p) -> tuple[int, int]:
    """_shape of a partition given to an entry point: an unhashable p
    too is refused by as_partition, like any other non-partition."""
    try:
        return _shape(p)
    except TypeError:
        return _shape(as_partition(p))


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


def written(x, count: int | None) -> str:
    """A class or label x, however malformed, for a refusal: its first
    count fields (all for None), each a tuple as a partition, or field by
    field if it holds a tuple or list, a list as one prefixed "list", None
    as None and anything else by its type and repr: none reads as a
    partition."""
    return f"({','.join(map(_field, x[:count]))})" if isinstance(x, tuple) else _field(x)


def _field(f) -> str:
    """One field of written."""
    if type(f) is list:
        return f"list {_field(tuple(f))}"
    if type(f) is tuple:
        return written(f, None) if any(isinstance(g, (tuple, list)) for g in f) else format_partition(f)
    return "None" if f is None else f"{type(f).__name__} {f!r}"


def check_class(cls, group: str) -> int:
    """Rank of a class of the group view, S, B or D, after checking it:
    a partition mu of S_n, (positive, negative) of B_n, or (positive,
    negative, split) of D_n, with an even number of negative cycles and
    split 1 or -1 exactly when splittable.  A B or D class of any other
    shape or type, or with unhashable fields, gets one ValueError."""
    if group == "S":
        return sum(as_partition(cls))
    count, fields = (2, "two fields (positive, negative), both tuples") if group == "B" else (3, "three fields (positive, negative, split): two tuples, then None, 1 or -1")
    if not isinstance(cls, tuple) or len(cls) != count or type(cls[0]) is not tuple or type(cls[1]) is not tuple or cls[2:] not in ((), (None,), (1,), (-1,)):
        raise ValueError(f"class {written(cls, count)} is not a type {group} class: it needs {fields}")
    positive, negative, *split = cls
    n = sum(as_partition(positive)) + sum(as_partition(negative))
    if split and len(negative) % 2:
        raise ValueError(f"class {format_class(cls)} has an odd number of negative cycles")
    if split and (split[0] is None) == splittable(positive, negative):
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


def column_keys(labels, pairs) -> tuple[dict, list, dict]:
    """The keys of a rank's columns: the index, {label: slot} over labels
    in order; each label's state in _fold, that of its bipartition in
    pairs or, pairs None, of the label itself, a partition; and signs: by
    (turn, pi), the values at a class of the linear characters of the
    swap and of the conjugation, the sign of the label's value on its
    state, unless both are 1; with pairs, under "central" too, each
    label's central character at -1, (-1)**|beta| for (alpha, beta) its
    pair, which carries a column to that of its central_partner."""
    if pairs is None:
        orbits = [_orbit(_shape(x)[0], 0) for x in labels]
        keys = [first for first, _, _ in orbits]
        signs = {}
    else:
        betas = [_shape(beta) for _, beta in pairs]
        orbits = [_orbit(_shape(alpha)[0], beta) for (alpha, _), (beta, _) in zip(pairs, betas)]
        keys = [(first, second) for first, second, _ in orbits]
        signs = {"central": [-1 if size % 2 else 1 for _, size in betas]}
    vias = list(map(itemgetter(2), orbits))
    for turn, pi in ((-1, 1), (1, -1), (-1, -1)):
        signs[turn, pi] = list(map((1, turn, pi, turn * pi).__getitem__, vias))
    return {x: i for i, x in enumerate(labels)}, keys, signs


def central_partner(cls) -> tuple | None:
    """The type (positive, negative) of w(-1), w of signed cycle type cls
    = (positive, negative), -1 the central element negating every point:
    each odd cycle of w changes sign, each even one keeps it.  None when
    that is cls again, as when w has no odd cycle.  A label's value at
    w(-1) is its value at w times its central character at -1
    (Geck-Pfeiffer 2000), which column_keys keeps under "central"."""
    positive, negative = cls
    odd_positive, odd_negative = [k for k in positive if k % 2], [k for k in negative if k % 2]
    if odd_positive == odd_negative:
        return None
    return (
        tuple(sorted([k for k in positive if not k % 2] + odd_negative, reverse=True)),
        tuple(sorted([k for k in negative if not k % 2] + odd_positive, reverse=True)),
    )


@cache
def _labels(n: int) -> tuple[dict, list, dict]:
    """column_keys of the partitions of n, in enumeration order."""
    return column_keys(enumerate_partitions(n), None)


def _fold(cls) -> dict:
    """The walk at class type cls forward from the empty shape, its
    cycles added smallest first, keeping one state per orbit of the label
    symmetries (see the module docstring), the orbit's largest member: a
    bead mask x >= x' for S_n, (x, y) with x >= x' and x >= y, y' for B_n.
    A label's value at cls is its orbit's coefficient times the class's
    value of the linear character carrying the label there (column_keys).

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


def read_column(cls, labels) -> tuple[dict, list]:
    """Value at class cls of every label of its rank n, read from its
    folded walk under labels(n), the rank's column_keys: the index and
    the values in its order."""
    positive, negative = cls
    n, cycles = sum(positive) + sum(negative or ()), len(positive) + len(negative or ())
    index, keys, signs = labels(n)
    values = map(_fold(cls).get, keys, repeat(0))
    turn, pi = -1 if negative and len(negative) % 2 else 1, -1 if (n - cycles) % 2 else 1
    if turn < 0 or pi < 0:
        values = map(mul, values, signs[turn, pi])
    return index, list(values)


COLUMN_LABELS = 10_000
"""Most labels (partitions, or bipartitions for B_n and D_n) of a rank
whose columns are walked: B_n and D_n up to n = 17, S_n up to n = 32."""


class Store:
    """The values asked of the view of a group letter, S, B or D: entries
    by class, filled by walk(cls, n), the (class, column) pairs a walk at
    cls fills, cls's first, each under keys(n)[0], its rank's index;
    count(n) is the number of labels of rank n."""

    def __init__(self, group: str, count, keys, walk):
        self.group, self.count, self.keys, self.walk = group, count, keys, walk
        self.entries: dict = {}

    def rank(self, cls) -> int:
        """Rank of the class cls, checked by check_class unless held; an
        unhashable class that passes is refused by name."""
        try:
            if cls in self.entries:
                return sum(cls) if self.group == "S" else sum(cls[0]) + sum(cls[1])
        except TypeError:
            check_class(cls, self.group)
            raise ValueError(f"class {written(cls, None)} is unhashable") from None
        return check_class(cls, self.group)

    def value(self, cls, label, n: int, single) -> int:
        """A checked label's value missing at cls, of rank n, checked too:
        single() for the class's first label, under a private index, else
        its column's, unless the rank has more than COLUMN_LABELS labels
        (counted only once the class holds a value): then single() again,
        appended.  single is a partial object, so lookups make no cells."""
        if type(label).__hash__ is None:  # checked fields, but a type that cannot key an index
            raise ValueError(f"label {written(label, None)} is unhashable")
        entry = self.entries.get(cls)
        if entry and n <= last_rank_within(self.count, COLUMN_LABELS):
            return self._walked(cls, n)[self.keys(n)[0][label]]
        value = single()
        if entry:  # past the budget: append to the class's private index
            entry[0][label] = len(entry[1])
            entry[1].append(value)
        else:
            self.entries[cls] = {label: 0}, [value]
        return value

    def column(self, cls, n: int) -> list:
        """The column at cls, of rank n, walked unless held under its rank's index."""
        entry = self.entries.get(cls)
        if entry is None or entry[0] is not self.keys(n)[0]:
            return self._walked(cls, n)
        return entry[1]

    def _walked(self, cls, n: int) -> list:
        """Store the columns of the walk at cls; return cls's."""
        columns, index = self.walk(cls, n), self.keys(n)[0]
        for key, values in columns:
            self.entries[key] = index, values
        return columns[0][1]


def _columns(mu: Partition, n: int) -> tuple:
    """The walk of s_store: mu's column."""
    return ((mu, read_column((mu, None), _labels)[1]),)


s_store = Store("S", partition_count, _labels, _columns)
s_memo = s_store.entries


def sym_char_value(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character [lam] at cycle type mu."""
    try:
        index, column = s_memo[mu]
        return column[index[lam]]
    except (KeyError, TypeError):  # a miss, or an unhashable mu or lam
        pass
    n = s_store.rank(mu)
    mask, size = _given_shape(lam)
    if size != n:
        raise ValueError(f"size mismatch: |{format_partition(lam)}| != |{format_partition(mu)}|")
    return s_store.value(mu, lam, n, partial(backward, (mu, None), (mask, 0)))


def sym_centralizer_order(mu: Partition) -> int:
    """Centralizer order of a permutation of cycle type mu, checked."""
    check_class(mu, "S")
    return _z(mu)


def _z(mu: Partition) -> int:
    """sym_centralizer_order of mu, unchecked: prod i^m_i m_i!, one factor
    i * j for the j-th part equal to i.  The parts are counted in a plain
    dict, not a Counter: the first Counter of a process checks its
    argument against the Mapping ABC, which alone cost a forked child
    0.3 ms, more than the rest of this function's first call."""
    counts: dict = {}
    out = 1
    for i in mu:
        counts[i] = j = counts.get(i, 0) + 1
        out *= i * j
    return out


def sym_degree(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam."""
    return _degree(_given_shape(lam)[0])[1]
