"""One table of bad labels and classes against every public entry point
that takes them: each must raise ValueError (the CLI: exit 2) with the
offending label written in the label grammar, never as a Python tuple."""

import re

import pytest

from dweyl import clear_caches
from dweyl.bchar import BClassType, b_centralizer_order, b_char_value, b_memo
from dweyl.cli import main
from dweyl.dchar import DClassType, DIrrLabel, d_centralizer_order, d_char_column, d_char_value, d_degree, d_irr_labels, d_memo, delta_value, make_irr_label, parse_class
from dweyl.decomp import InducedQuery, branch_restriction, decompose_induced, induced_multiplicity
from dweyl.lr import lr_coefficient, lr_expand
from dweyl.symchar import s_memo, sym_centralizer_order, sym_char_value

GOOD = make_irr_label((2,), ())

# (case, text the error shows, raw label, its text form or None, whether
# make_irr_label takes it: it puts a raw label's components in order)
LABELS = [
    ("float part", "[2.5]", DIrrLabel(((2.5,), ()), 0), "([2.5],[])", True),
    ("increasing parts", "[1,3]", DIrrLabel(((1, 3), ()), 0), "([1,3],[])", True),
    ("list component", "[2]", DIrrLabel(([2], ()), 0), None, True),
    ("empty component first", "([],[2])", DIrrLabel(((), (2,)), 0), None, False),
    ("smaller component first", "([1],[3])", DIrrLabel(((1,), (3,)), 0), None, False),
    ("unsigned degenerate", "([1],[1])", DIrrLabel(((1,), (1,)), 0), "([1],[1])", True),
    ("signed non-degenerate", "([2],[])", DIrrLabel(((2,), ()), 1), "([2],[])+", True),
]

# (case, the partition in the grammar, raw partition)
PARTITIONS = [
    ("increasing parts", "[1,3]", (1, 3)),
    ("float part", "[2.5]", (2.5,)),
    ("zero part", "[1,0]", (1, 0)),
]

# (case, the class as the error shows it, class, its text form or None)
CLASSES = [
    ("tag on a class that does not split", "([3],[],+)", DClassType((3,), (), 1), "([3],[],+)"),
    ("no tag on a class that splits", "([4],[])", DClassType((4,), (), None), "([4],[])"),
    ("odd number of negative cycles", "([2],[1])", DClassType((2,), (1,), None), "([2],[1])"),
    ("one field", "([2])", ((2,),), "([2])"),
    ("an int", "class int 3 is", 3, None),
    ("a list", "class list [3] is", [3], None),
    ("None", "class None is", None, None),
    ("a string", "class str 'x' is", "x", None),
    ("one int field", "class (int 3) is", (3,), None),
    ("int positive, two fields", "class (int 3,[]) is", (3, ()), None),
    ("int positive", "class (int 3,[],None) is", (3, (), None), None),
    ("int negative", "class ([3],int 3,None) is", ((3,), 3, None), None),
    ("list negative, two fields", "class ([3],list [1]) is", ((3,), [1]), None),
    ("list negative", "class ([3],list [],None) is", ((3,), [], None), None),
    ("four fields", "class ([3],[],None) is", ((3,), (), None, 0), None),
]


def label_calls(chi, takes_components):
    calls = {
        "decompose_induced A": lambda: decompose_induced(InducedQuery(4, 2, 2, chi, GOOD)),
        "decompose_induced B": lambda: decompose_induced(InducedQuery(4, 2, 2, GOOD, chi)),
        "induced_multiplicity": lambda: induced_multiplicity(InducedQuery(4, 2, 2, GOOD, GOOD), chi),
        "branch_restriction X": lambda: branch_restriction(4, "left", chi, make_irr_label((3,), ())),
        "branch_restriction B": lambda: branch_restriction(4, "left", make_irr_label((4,), ()), chi),
        "d_char_value": lambda: d_char_value(chi, DClassType((1, 1), (), None)),
        "d_degree": lambda: d_degree(chi),
    }
    if takes_components:
        calls["make_irr_label"] = lambda: make_irr_label(*chi.label, chi.eps)
    return calls


CALLS = [
    pytest.param(call, shown, id=f"{case}: {name}")
    for case, shown, chi, _, takes_components in LABELS
    for name, call in label_calls(chi, takes_components).items()
] + [
    pytest.param(call, shown, id=f"{case}: {name}")
    for case, shown, c, text in CLASSES
    for name, call in {
        "d_char_value": lambda c=c: d_char_value(GOOD, c),
        "d_char_column": lambda c=c: d_char_column(c),
        "delta_value": lambda c=c: delta_value((1,), c),
        "d_centralizer_order": lambda c=c: d_centralizer_order(c),
        "parse_class": lambda text=text: parse_class(text),
    }.items()
    if text is not None or name != "parse_class"
] + [
    pytest.param(call, shown, id=f"{case}: {name}")
    for case, shown, p in PARTITIONS
    for name, call in {
        "lr_coefficient alpha": lambda p=p: lr_coefficient(p, (1,), (2, 2)),
        "lr_coefficient beta": lambda p=p: lr_coefficient((1,), p, (2, 2)),
        "lr_coefficient gamma": lambda p=p: lr_coefficient((2,), (1,), p),
        "lr_expand alpha": lambda p=p: lr_expand(p, (1,)),
        "lr_expand beta": lambda p=p: lr_expand((1,), p),
        "sym_centralizer_order": lambda p=p: sym_centralizer_order(p),
        "b_centralizer_order positive": lambda p=p: b_centralizer_order(BClassType(p, ())),
        "b_centralizer_order negative": lambda p=p: b_centralizer_order(BClassType((1,), p)),
    }.items()
]


def assert_grammar_message(message, shown):
    assert shown in message
    assert not re.search(r"\(\(|\(\d|\d,\)|DIrrLabel|DClassType", message), message


@pytest.mark.parametrize("call, shown", CALLS)
def test_bad_input_raises_value_error_in_the_grammar(call, shown):
    with pytest.raises(ValueError) as exc:
        call()
    assert_grammar_message(str(exc.value), shown)


CLI_CALLS = [
    pytest.param(argv, shown, id=f"{case}: {argv[0]}")
    for case, shown, _, text, _ in LABELS
    if text is not None
    for argv in (
        ["decompose", "--n", "4", "--a", "2", "--b", "2", "--A", text, "--B", "([2],[])"],
        ["branch", "--n", "4", "--X", text],
    )
] + [
    pytest.param(["lr", "--alpha", shown, "--beta", "[1]"], shown, id=f"{case}: lr")
    for case, shown, _, _, _ in LABELS[:2]
] + [
    pytest.param(["lr", "--alpha", "[2]", "--beta", "[1]", "--gamma", shown], shown, id=f"{case}: lr --gamma")
    for case, shown, _ in PARTITIONS
]


@pytest.mark.parametrize("argv, shown", CLI_CALLS)
def test_bad_input_exits_two_in_the_grammar(capsys, argv, shown):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert_grammar_message(out.err, shown)


@pytest.mark.parametrize("eps", [2, -2])
def test_sign_outside_plus_minus_one_is_refused(eps):
    """A sign other than -1, 0 or +1, on a degenerate label (whose sign is
    otherwise required), is refused by every entry point that takes a
    label, and by d_char_value both at a fresh class and at one whose
    column is stored."""
    chi, c = DIrrLabel(((1,), (1,)), eps), DClassType((1, 1), (), None)
    calls = {
        "make_irr_label": lambda: make_irr_label((1,), (1,), eps),
        "d_char_value": lambda: d_char_value(chi, c),
        "d_degree": lambda: d_degree(chi),
        "decompose_induced A": lambda: decompose_induced(InducedQuery(4, 2, 2, chi, GOOD)),
        "decompose_induced B": lambda: decompose_induced(InducedQuery(4, 2, 2, GOOD, chi)),
    }
    d_memo.pop(c, None)
    for name, call in calls.items():
        with pytest.raises(ValueError, match="eps must be -1, 0 or \\+1"):
            call()
    assert c not in d_memo
    assert len(d_char_column(c)) == len(d_irr_labels(2))
    with pytest.raises(ValueError, match="eps must be -1, 0 or \\+1"):
        d_char_value(chi, c)


# (case, raw label that is not a (pair, sign) pair, the label as the error shows it)
NOT_D_LABELS = [
    ("an int", 3, "int 3"),
    ("None", None, "None"),
    ("one field", ((3,),), "([3])"),
    ("three components", (((3,), (), ()), 0), "(([3],[],[]),int 0)"),
    ("a list", [((2,), ()), 0], "list (([2],[]),int 0)"),
]


@pytest.mark.parametrize("chi, shown", [pytest.param(chi, shown, id=case) for case, chi, shown in NOT_D_LABELS])
def test_label_without_pair_and_sign_is_refused_by_name(chi, shown):
    """A D label that is not a pair of partitions and a sign gets one
    ValueError naming it from every entry point that takes a label, at a
    fresh class and again once the class holds its column."""
    c = DClassType((1, 1), (), None)
    calls = {
        "d_char_value": lambda: d_char_value(chi, c),
        "d_degree": lambda: d_degree(chi),
        "decompose_induced A": lambda: decompose_induced(InducedQuery(4, 2, 2, chi, GOOD)),
        "decompose_induced B": lambda: decompose_induced(InducedQuery(4, 2, 2, GOOD, chi)),
        "branch_restriction X": lambda: branch_restriction(4, "left", chi, make_irr_label((3,), ())),
        "branch_restriction B": lambda: branch_restriction(4, "left", make_irr_label((4,), ()), chi),
    }
    d_memo.pop(c, None)
    for stored in (False, True):
        for name, call in calls.items():
            with pytest.raises(ValueError) as exc:
                call()
            message = str(exc.value)
            assert f"label {shown} is not a type D label" in message, name
            assert not re.search(r"\(\d|\d,\)|DIrrLabel", message), message
        assert (c in d_memo) is stored
        assert len(d_char_column(c)) == len(d_irr_labels(2))


class UnhashableInt(int):
    __hash__ = None


class UnhashableTuple(tuple):
    __hash__ = None


C3, B3 = DClassType((1, 1, 1), (), None), BClassType((3,), ())
THREE, B_THREE = [make_irr_label((3,), ()), make_irr_label((2, 1), ())], [((3,), ()), ((2, 1), ())]


def column_of(c, _):
    """d_char_column(c) in the place of a view (label, class): its
    "label" is the class asked, and the class is the one it warms."""
    return d_char_column(c)


# (case, view, its store, bad label (a bad class for d_char_column),
# class, good labels of the class, the start of its refusal)
COLD_AND_WARM = [
    ("list partition", sym_char_value, s_memo, [3], (3,), [(3,), (2, 1)], "[3] is not a partition"),
    ("S unhashable part", sym_char_value, s_memo, (UnhashableInt(3),), (3,), [(3,), (2, 1)], "[3] is not a partition"),
    ("S wrong rank", sym_char_value, s_memo, (2,), (3,), [(3,), (2, 1)], "size mismatch: |[2]| != |[3]|"),
    ("S field that is no part", sym_char_value, s_memo, (3, ()), (3,), [(3,), (2, 1)], "[3,()] is not a partition"),
    ("list alpha", b_char_value, b_memo, ([3], ()), B3, B_THREE, "[3] is not a partition"),
    ("list beta", b_char_value, b_memo, ((), [3]), B3, B_THREE, "[3] is not a partition"),
    ("B unhashable part", b_char_value, b_memo, ((UnhashableInt(3),), ()), B3, B_THREE, "[3] is not a partition"),
    ("B label of an unhashable tuple type", b_char_value, b_memo, UnhashableTuple(((3,), ())), B3, B_THREE, "label ([3],[]) is unhashable"),
    ("B one field", b_char_value, b_memo, ((3,),), B3, B_THREE, "label ([3]) is not a type B label"),
    ("B wrong rank", b_char_value, b_memo, ((2,), ()), B3, B_THREE, "size mismatch between ([2],[]) and ([3],[])"),
    ("B sign 2", b_char_value, b_memo, ((3,), (), 2), B3, B_THREE, "label ([3],[],int 2) is not a type B label"),
    ("D list part", d_char_value, d_memo, DIrrLabel(([3], ()), 0), C3, THREE, "[3] is not a partition"),
    ("D sign of an unhashable int type", d_char_value, d_memo, DIrrLabel(((3,), ()), UnhashableInt(0)), C3, THREE, "eps must be -1, 0 or +1, got UnhashableInt 0 for ([3],[])"),
    ("D label of an unhashable tuple type", d_char_value, d_memo, UnhashableTuple((((3,), ()), 0)), C3, THREE, "label ([3],[]) is unhashable"),
    ("D one field", d_char_value, d_memo, ((3,),), C3, THREE, "label ([3]) is not a type D label"),
    ("D wrong rank", d_char_value, d_memo, make_irr_label((2,), ()), C3, THREE, "size mismatch between ([2],[]) and ([1,1,1],[])"),
    ("D sign 2", d_char_value, d_memo, DIrrLabel(((3,), ()), 2), C3, THREE, "eps must be -1, 0 or +1, got int 2 for ([3],[])"),
    ("D column list parts", column_of, d_memo, DClassType([1, 1, 1], (), None), C3, [C3], "class (list [1,1,1],[],None) is not a type D class"),
    ("D column unhashable part", column_of, d_memo, DClassType((UnhashableInt(1),) * 3, (), None), C3, [C3], "[1,1,1] is not a partition"),
    ("D column class of an unhashable tuple type", column_of, d_memo, UnhashableTuple(((1, 1, 1), (), None)), C3, [C3], "class ([1,1,1],[],None) is unhashable"),
    ("D column two fields", column_of, d_memo, ((1, 1, 1), ()), C3, [C3], "class ([1,1,1],[]) is not a type D class"),
    ("D column rank 0", column_of, d_memo, DClassType((), (), 1), C3, [C3], "need n >= 1"),
    ("D column split 2", column_of, d_memo, DClassType((1, 1, 1), (), 2), C3, [C3], "class ([1,1,1],[],int 2) is not a type D class"),
]


def stored(memo, c):
    """A copy of the store entry of c, or None."""
    entry = memo.get(c)
    return entry and (dict(entry[0]), list(entry[1]))


@pytest.mark.parametrize("view, memo, label, c, good, shown", [pytest.param(*row[1:], id=row[0]) for row in COLD_AND_WARM])
def test_bad_input_is_refused_alike_cold_and_warm(view, memo, label, c, good, shown):
    """A bad S, B or D label, or a bad D class, is refused with one
    message in the label grammar, at a fresh class and again once the
    class holds its column, and nothing is stored: list parts,
    unhashable fields (an S or B one with a list for a partition gets the
    ValueError of any other non-partition), a wrong field count, a wrong
    rank and the sign 2."""
    memo.pop(c, None)
    messages = []
    for warm in (False, True):
        if warm:
            for X in good:
                view(X, c)
            assert len(memo[c][1]) > len(good)  # the column is walked
        entry = stored(memo, c)
        with pytest.raises(ValueError) as exc:
            view(label, c)
        assert_grammar_message(str(exc.value), shown)
        assert stored(memo, c) == entry
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


D2_PLUS, D2_TRUE = DClassType((2,), (), 1), DClassType((2,), (), True)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="open: a warm store answers a label equal to a stored one that its checked path refuses")
@pytest.mark.parametrize(
    "chi, fresh, warm",
    [
        pytest.param(DIrrLabel(((3.0,), ()), 0), C3, C3, id="float part"),
        pytest.param(DIrrLabel(((3,), ()), False), C3, C3, id="sign False"),
        pytest.param(make_irr_label((1,), (1,), 1), D2_TRUE, D2_PLUS, id="split tag True"),
    ],
)
def test_float_parts_and_bool_signs_are_refused_warm(chi, fresh, warm):
    """The cache-history FOUNDs of PRs 8, 23 and 26, still open, each case
    on its own: a D label with float parts equal to ints or with the sign
    False, or a class with the split tag True, is refused at a fresh
    class, but once the class, or the equal int class, holds its column
    the warm hit finds the equal int key and answers it.
    dchar._label_state's cache keys by equality too, so each case starts
    from clear_caches()."""
    clear_caches()
    with pytest.raises(ValueError):
        d_char_value(chi, fresh)
    d_char_column(warm)
    try:
        value = d_char_value(chi, fresh)
    except ValueError:
        value = None
    assert value is None


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda c: d_char_value(make_irr_label((1,), (1,), 1), c), id="d_char_value"),
        pytest.param(d_char_column, id="d_char_column"),
        pytest.param(d_centralizer_order, id="d_centralizer_order"),
        pytest.param(lambda c: delta_value((1,), c), id="delta_value"),
    ],
)
def test_bool_split_tag_is_refused(call):
    """A split tag must be None or the int 1 or -1: True, equal to 1, is
    refused at a fresh class, by its type."""
    clear_caches()
    with pytest.raises(ValueError, match=re.escape("class ([2],[],bool True) is not a type D class")):
        call(D2_TRUE)


def test_branch_restriction_refuses_an_unknown_side():
    X, B = make_irr_label((3,), (1,)), make_irr_label((3,), ())
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'middle'"):
        branch_restriction(4, "middle", X, B)


# (entry point, a call of it taking a D label, given as a DIrrLabel or as
# the equal plain tuple)
PLAIN_TUPLE_CALLS = {
    "d_degree": lambda make: d_degree(make(((3,), ()), 0)),
    "decompose_induced A": lambda make: decompose_induced(InducedQuery(5, 3, 2, make(((3,), ()), 0), make(((2,), ()), 0))).multiplicities,
    "decompose_induced B": lambda make: decompose_induced(InducedQuery(6, 2, 4, make(((1,), (1,)), 1), make(((2,), (2,)), -1))).multiplicities,
    "induced_multiplicity": lambda make: induced_multiplicity(InducedQuery(6, 2, 4, make(((1,), (1,)), 1), make(((2,), (2,)), -1)), make(((3,), (3,)), -1)),
    "branch_restriction X": lambda make: branch_restriction(4, "left", make(((4,), ()), 0), make(((3,), ()), 0)),
    "branch_restriction B": lambda make: branch_restriction(4, "left", make(((2,), (2,)), 1), make(((2,), (1,)), 0)),
    "d_char_value": lambda make: [d_char_value(make(((2,), (2,)), eps), DClassType((4,), (), 1)) for eps in (1, -1)],
}


@pytest.mark.parametrize("name", PLAIN_TUPLE_CALLS)
def test_plain_tuple_labels_answer_as_their_labels(name):
    """A plain tuple (pair, sign) that check_label passes is answered
    exactly as the equal DIrrLabel, on empty stores and warm."""
    call = PLAIN_TUPLE_CALLS[name]
    clear_caches()
    plain = call(lambda pair, eps: (pair, eps))
    assert plain == call(DIrrLabel) == call(lambda pair, eps: (pair, eps))


# (entry point, a call of it taking a class, given as a DClassType or
# BClassType or as the equal plain tuple, and that named tuple type)
PLAIN_TUPLE_CLASS_CALLS = {
    "d_char_value": (lambda make: [d_char_value(make_irr_label((1,), (1,), eps), make((2,), (), s)) for s in (1, -1) for eps in (1, -1)], DClassType),
    "d_char_column": (lambda make: [d_char_column(make((2, 2), (), s)) for s in (1, -1)], DClassType),
    "delta_value": (lambda make: [delta_value((1,), make((2,), (), s)) for s in (1, -1)], DClassType),
    "d_centralizer_order": (lambda make: [d_centralizer_order(make((2,), (), 1)), d_centralizer_order(make((2,), (1, 1), None))], DClassType),
    "b_char_value": (lambda make: [b_char_value(((1,), (1,)), make((2,), ())), b_char_value(((1,), (1,)), make((1,), (1,)))], BClassType),
    "b_centralizer_order": (lambda make: b_centralizer_order(make((2,), (1,))), BClassType),
}


@pytest.mark.parametrize("name", PLAIN_TUPLE_CLASS_CALLS)
def test_plain_tuple_classes_answer_as_their_classes(name):
    """A plain tuple that check_class passes is answered exactly as the
    equal DClassType or BClassType, on empty stores and warm."""
    call, named = PLAIN_TUPLE_CLASS_CALLS[name]
    clear_caches()
    plain = call(lambda *fields: fields)
    assert plain == call(named) == call(lambda *fields: fields)
