"""One table of bad labels and classes against every public entry point
that takes them: each must raise ValueError (the CLI: exit 2) with the
offending label written in the label grammar, never as a Python tuple."""

import re

import pytest

from dweyl.bchar import BClassType, b_char_value, b_memo
from dweyl.cli import main
from dweyl.dchar import DClassType, DIrrLabel, d_char_column, d_char_value, d_degree, d_irr_labels, d_memo, delta_value, make_irr_label, parse_class
from dweyl.decomp import InducedQuery, branch_restriction, decompose_induced, induced_multiplicity
from dweyl.lr import lr_coefficient, lr_expand
from dweyl.symchar import s_memo, sym_char_value

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


THREE = [make_irr_label((3,), ()), make_irr_label((2, 1), ())]

# (case, view, its store, unhashable label, class, two good labels of the
# class, the start of its refusal)
UNHASHABLE = [
    ("list partition", sym_char_value, s_memo, [3], (3,), [(3,), (2, 1)], "[3] is not a partition"),
    ("list alpha", b_char_value, b_memo, ([3], ()), BClassType((3,), ()), [((3,), ()), ((2, 1), ())], "[3] is not a partition"),
    ("list beta", b_char_value, b_memo, ((), [3]), BClassType((3,), ()), [((3,), ()), ((2, 1), ())], "[3] is not a partition"),
    ("D sign of an unhashable int type", d_char_value, d_memo, DIrrLabel(((3,), ()), UnhashableInt(0)), DClassType((1, 1, 1), (), None), THREE, "eps must be -1, 0 or +1, got UnhashableInt 0 for ([3],[])"),
    ("D label of an unhashable tuple type", d_char_value, d_memo, UnhashableTuple((((3,), ()), 0)), DClassType((1, 1, 1), (), None), THREE, "label ([3],[]) is unhashable"),
]


def stored(memo, c):
    """A copy of the store entry of c, or None."""
    entry = memo.get(c)
    return entry and (dict(entry[0]), list(entry[1]))


@pytest.mark.parametrize("view, memo, label, c, good, shown", [pytest.param(*row[1:], id=row[0]) for row in UNHASHABLE])
def test_unhashable_labels_are_refused_by_name(view, memo, label, c, good, shown):
    """An S, B or D label that cannot be hashed (an S or B one with a list
    for a partition gets the ValueError of any other non-partition) is
    refused by name, at a fresh class and again once the class holds its
    column, and nothing is stored."""
    memo.pop(c, None)
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
    for memo in (s_memo, b_memo, d_memo):
        memo.clear()
    plain = call(lambda pair, eps: (pair, eps))
    assert plain == call(DIrrLabel) == call(lambda pair, eps: (pair, eps))
