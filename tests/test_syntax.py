"""Core term machinery: sugar, substitution, matching, values, typing."""

import inspect
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_eval import is_value, match_pattern
from writ import (
    NAT,
    App,
    Arrow,
    Cons,
    Func,
    Lam,
    Lit,
    PCons,
    PVar,
    TypeMismatch,
    UnboundVariable,
    UndeclaredSymbol,
    Var,
    app,
    bar_rec,
    free_vars,
    list_term,
    list_value,
    numeral,
    numeral_value,
    parse_term,
    render_term,
    render_type,
    spine,
    substitute,
    symbols,
    system_t,
    system_t_list,
    typecheck,
)
from writ.syntax import LIST, fold_literal


def test_numeral_shape():
    # one node at any size, and what its constructor spine folds to
    assert numeral(0) == Lit(0)
    assert numeral(2) == Lit(2)
    assert fold_literal(Cons("zero")) == numeral(0)
    assert fold_literal(App(Cons("succ"), numeral(1))) == numeral(2)
    # only a complete application folds
    not_yet = app(Cons("succ"), numeral(0), numeral(0))
    assert fold_literal(not_yet) is not_yet
    assert fold_literal(App(Cons("succ"), Var("x"))) == App(Cons("succ"), Var("x"))
    with pytest.raises(ValueError):
        numeral(-1)


def test_numeral_decode_rejects_non_numerals():
    assert numeral_value(Var("x")) is None
    assert numeral_value(App(Cons("succ"), Var("x"))) is None
    assert numeral_value(numeral(7)) == 7


def test_list_term_nests_on_the_left():
    # cons takes the shorter list first, the new element second
    t = list_term([4, 9])
    assert t == Lit((4, 9))
    assert fold_literal(App(App(Cons("cons"), list_term([4])), numeral(9))) == t
    assert fold_literal(Cons("nil")) == list_term([])
    # the element must be a numeral and the list a list
    swapped = app(Cons("cons"), numeral(4), numeral(9))
    assert fold_literal(swapped) is swapped
    assert list_value(t) == (4, 9)


def test_list_decode_rejects_non_literals():
    assert list_value(numeral(3)) is None
    assert list_value(App(App(Cons("cons"), Var("xs")), numeral(1))) is None


@given(st.integers(min_value=0, max_value=300))
def test_numeral_round_trip(n):
    assert numeral_value(numeral(n)) == n


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=12))
def test_list_round_trip(items):
    assert list_value(list_term(items)) == tuple(items)


def test_spine_inverts_app():
    t = app(Func("add"), numeral(1), numeral(2))
    head, args = spine(t)
    assert head == Func("add")
    assert args == (numeral(1), numeral(2))
    assert app(head, *args) == t


def test_free_vars_and_symbols():
    t = Lam("x", NAT, app(Func("add"), Var("x"), Var("y")))
    assert free_vars(t) == frozenset({"y"})
    assert symbols(t) == frozenset({"add"})
    assert free_vars(numeral(3)) == frozenset()
    assert symbols(numeral(3)) == {"zero", "succ"}


def test_substitute_replaces_free_occurrences():
    t = App(Var("x"), Var("y"))
    out = substitute(t, {"x": numeral(2)})
    assert out == App(numeral(2), Var("y"))


def test_substitute_stops_at_shadowing_binder():
    t = Lam("x", NAT, Var("x"))
    assert substitute(t, {"x": numeral(5)}) == t
    # a different binder does not shadow
    u = Lam("z", NAT, Var("x"))
    assert substitute(u, {"x": numeral(5)}) == Lam("z", NAT, numeral(5))


def test_substitute_multiple_names_at_once():
    t = app(Func("add"), Var("a"), Var("b"))
    out = substitute(t, {"a": numeral(1), "b": numeral(2)})
    assert out == app(Func("add"), numeral(1), numeral(2))


def test_match_pattern_binds_rec_step_arguments():
    sig = system_t()
    decl = sig.func_decl("rec[Nat]")
    zero_rule, succ_rule = decl.impl
    binding = match_pattern(succ_rule.patterns, (numeral(7), Var("f"), numeral(3)))
    assert binding is not None
    assert numeral_value(binding["z"]) == 2
    assert match_pattern(zero_rule.patterns, (numeral(7), Var("f"), numeral(1))) is None


def test_match_pattern_arity_and_constructor_mismatch():
    p = PCons("succ", (PVar("z", NAT),))
    assert match_pattern((p,), (numeral(0),)) is None
    assert match_pattern((p,), ()) is None
    assert match_pattern((p,), (numeral(1),)) == {"z": numeral(0)}


def test_values_constructors_and_partial_functions():
    sig = system_t_list()
    assert is_value(sig, numeral(4))
    assert is_value(sig, list_term([1, 2]))
    # a fully applied function symbol is a redex, not a value
    assert not is_value(sig, app(Func("add"), numeral(2), numeral(3)))
    assert is_value(sig, App(Func("add"), numeral(2)))
    assert is_value(sig, app(Func("rec[Nat]"), numeral(0), Lam("n", NAT, Lam("p", NAT, Var("p")))))
    assert not is_value(sig, Var("x"))


def test_lambda_value_requires_closed_body():
    sig = system_t()
    assert is_value(sig, Lam("x", NAT, Var("x")))
    assert not is_value(sig, Lam("x", NAT, Var("y")))


def test_value_arguments_must_be_values_too():
    sig = system_t_list()
    redex = app(Func("add"), numeral(1), numeral(1))
    assert not is_value(sig, App(Cons("succ"), redex))
    assert not is_value(sig, App(Func("add"), redex))


def test_typecheck_basics():
    sig = system_t_list()
    assert typecheck(sig, {}, numeral(9)) == NAT
    assert typecheck(sig, {}, list_term([1])) == LIST
    assert typecheck(sig, {}, Func("len")) == Arrow(LIST, NAT)
    assert typecheck(sig, {"x": NAT}, Var("x")) == NAT


def test_typecheck_rec_family():
    sig = system_t()
    want = Arrow(NAT, Arrow(Arrow(NAT, Arrow(NAT, NAT)), Arrow(NAT, NAT)))
    assert typecheck(sig, {}, Func("rec[Nat]")) == want


def test_typecheck_search_combinator():
    sig = bar_rec()
    got = typecheck(sig, {}, Func("bar"))
    assert render_type(got) == "((Nat->Nat)->Nat)->(List->Nat)->(List->(Nat->Nat)->Nat)->List->Nat"


def test_typecheck_errors():
    sig = system_t()
    with pytest.raises(UnboundVariable):
        typecheck(sig, {}, Var("ghost"))
    with pytest.raises(TypeMismatch):
        typecheck(sig, {}, App(numeral(1), numeral(2)))
    with pytest.raises(TypeMismatch):
        typecheck(sig, {}, App(Lam("x", NAT, Var("x")), Lam("y", NAT, Var("y"))))
    with pytest.raises(UndeclaredSymbol):
        typecheck(sig, {}, Func("len"))
    with pytest.raises(UndeclaredSymbol):
        typecheck(sig, {}, Lam("xs", LIST, Var("xs")))
    # a literal is typed whole only where its constructors are declared
    with pytest.raises(UndeclaredSymbol):
        typecheck(sig, {}, list_term([1, 2]))


def test_typecheck_takes_literals_whole():
    # literals far deeper than the recursion limit, alone and as an argument
    try:
        types = (typecheck(system_t(), {}, numeral(50_000)),
                 typecheck(system_t_list(), {}, App(Func("len"), list_term([50_000] * 3))))
    except RecursionError:
        types = None  # not raised: pytest takes minutes over a traceback this deep
    assert types == (NAT, NAT)


def test_render_type_parenthesizes_arrow_domains():
    t2 = Arrow(Arrow(NAT, NAT), NAT)
    assert render_type(t2) == "(Nat->Nat)->Nat"
    assert render_type(Arrow(NAT, Arrow(NAT, NAT))) == "Nat->Nat->Nat"


def test_render_term_sugars_numerals_and_lists():
    assert render_term(numeral(6)) == "6"
    assert render_term(list_term([1, 2, 3])) == "[1,2,3]"
    assert render_term(Lam("x", NAT, Var("x"))) == "fn x:Nat => x"
    assert render_term(app(Func("add"), numeral(2), numeral(3))) == "add 2 3"


def test_render_term_takes_two_host_frames_per_level():
    n = 300
    t = Var("x")
    for _ in range(n):
        t = App(Cons("succ"), t)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 2 * n + 50)
    try:
        rendered = render_term(t)
    finally:
        sys.setrecursionlimit(limit)
    assert rendered == "succ (" * (n - 1) + "succ x" + ")" * (n - 1)


def test_render_parse_round_trip_on_samples():
    sources = [
        "add 2 3",
        "fn f:Nat->Nat => f (f 2)",
        "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3",
        "fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) [1,2,3]",
        "cons [4] 9",
        "bar (fn f:Nat->Nat => 0) (fn a:List => len a) (fn b:List => fn p:Nat->Nat => p 0) []",
    ]
    for src in sources:
        t = parse_term(src)
        assert parse_term(render_term(t)) == t
