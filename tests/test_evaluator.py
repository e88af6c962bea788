"""Step-counted evaluation against hand-derived traces."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_eval import is_value
from writ import (
    App,
    Constant,
    Fuel,
    FuelExhausted,
    Identity,
    Lam,
    Table,
    TypeMismatch,
    UnboundVariable,
    Var,
    bar_rec,
    evaluate,
    evaluate_with_oracle,
    list_value,
    numeral,
    numeral_value,
    parse_term,
    system_t,
    system_t_list,
)
from writ.evaluator import _Machine

REC3 = "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3"
FF2 = "fn f:Nat->Nat => f (f 2)"


def test_values_cost_nothing():
    sig = system_t_list()
    for src in ("5", "[]", "[1,2,3]", "fn x:Nat => x", "add 2"):
        res = evaluate(sig, parse_term(src))
        assert res.steps == 0
        assert res.value == parse_term(src)


def test_single_beta_step():
    res = evaluate(system_t(), parse_term("(fn x:Nat => x) 0"))
    assert numeral_value(res.value) == 0
    assert res.steps == 1


def test_beta_chain_counts_each_application():
    src = "(fn x:Nat => succ x) ((fn y:Nat => succ y) ((fn z:Nat => z) 4))"
    res = evaluate(system_t(), parse_term(src))
    assert numeral_value(res.value) == 6
    assert res.steps == 3


def test_rec_trace():
    # each unfold is one step, each of the two betas in a round one more
    res = evaluate(system_t(), parse_term(REC3))
    assert numeral_value(res.value) == 3
    assert res.steps == 10


def test_builtins_cost_one_step():
    sig = system_t_list()
    assert evaluate(sig, parse_term("add 2 3")) == evaluate(sig, parse_term("add 2 3"))
    res = evaluate(sig, parse_term("add 2 3"))
    assert (numeral_value(res.value), res.steps) == (5, 1)
    res = evaluate(sig, parse_term("mul 3 4"))
    assert (numeral_value(res.value), res.steps) == (12, 1)
    res = evaluate(sig, parse_term("lt 2 5"))
    assert (numeral_value(res.value), res.steps) == (0, 1)
    res = evaluate(sig, parse_term("lt 5 2"))
    assert (numeral_value(res.value), res.steps) == (1, 1)
    res = evaluate(sig, parse_term("len [7,7,7]"))
    assert (numeral_value(res.value), res.steps) == (3, 1)


def test_arguments_evaluate_before_builtin_fires():
    res = evaluate(system_t_list(), parse_term("add ((fn x:Nat => x) 1) (add 1 1)"))
    assert numeral_value(res.value) == 3
    assert res.steps == 3


def test_fold_trace():
    src = "fold[Nat] 0 (fn n:Nat => fn p:Nat => succ p) [7,7]"
    res = evaluate(system_t_list(), parse_term(src))
    assert numeral_value(res.value) == 2
    assert res.steps == 7


def test_list_valued_results():
    src = "fold[List] [] (fn n:Nat => fn p:List => cons p n) [5,6]"
    res = evaluate(system_t_list(), parse_term(src))
    assert list_value(res.value) == (5, 6)


def test_search_trace():
    src = (
        "bar (fn f:Nat->Nat => 0) (fn a:List => len a) "
        "(fn b:List => fn p:Nat->Nat => p 0) []"
    )
    res = evaluate(bar_rec(), parse_term(src))
    assert numeral_value(res.value) == 1
    assert res.steps == 15


def test_oracle_queries_logged_in_call_order():
    term = parse_term("add (alpha 3) (alpha 1)")
    res = evaluate_with_oracle(system_t_list(), term, Identity())
    assert numeral_value(res.value) == 4
    assert res.steps == 3
    assert res.queries == (3, 1)


def test_oracle_applied_functional():
    term = parse_term(f"({FF2}) alpha")
    res = evaluate_with_oracle(system_t(), term, Identity())
    assert (numeral_value(res.value), res.steps, res.queries) == (2, 3, (2, 2))
    res = evaluate_with_oracle(system_t(), term, Constant(5))
    assert (numeral_value(res.value), res.queries) == (5, (2, 5))
    res = evaluate_with_oracle(system_t(), term, Table(((0, 9), (1, 3))))
    assert (numeral_value(res.value), res.queries) == (9, (2, 0))


def test_oracle_choice_cannot_affect_oracle_free_terms():
    t = parse_term(REC3)
    plain = evaluate(system_t(), t)
    for g in (Identity(), Constant(99), Table(((1, 1),))):
        res = evaluate_with_oracle(system_t(), t, g)
        assert (res.value, res.steps) == (plain.value, plain.steps)
        assert res.queries == ()


def test_results_are_values():
    sig = bar_rec()
    for src in (REC3, "add 1 2", "(fn x:Nat->Nat => x) (fn y:Nat => succ y)"):
        res = evaluate(sig, parse_term(src))
        assert is_value(sig, res.value)


def test_fuel_exhaustion_reports_the_overflowing_step():
    with pytest.raises(FuelExhausted) as exc:
        evaluate(system_t(), parse_term(REC3), Fuel(9))
    assert exc.value.steps == 10
    # exactly enough fuel succeeds
    assert evaluate(system_t(), parse_term(REC3), Fuel(10)).steps == 10


def test_fuel_must_be_positive():
    with pytest.raises(ValueError):
        Fuel(0)
    with pytest.raises(ValueError):
        Fuel(-3)


def test_evaluate_guards_open_and_ill_typed_terms():
    with pytest.raises(UnboundVariable):
        evaluate(system_t(), Var("x"))
    with pytest.raises(TypeMismatch):
        evaluate(system_t(), parse_term("(fn x:Nat => x) (fn y:Nat => y)"))


@given(st.integers(min_value=0, max_value=40))
def test_rec_cost_is_linear_in_the_count(n):
    src = f"rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) {n}"
    res = evaluate(system_t(), parse_term(src))
    assert numeral_value(res.value) == n
    assert res.steps == 3 * n + 1


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=8))
def test_fold_cost_is_linear_in_the_length(items):
    lit = "[" + ",".join(map(str, items)) + "]"
    src = f"fold[Nat] 0 (fn n:Nat => fn p:Nat => succ p) {lit}"
    res = evaluate(system_t_list(), parse_term(src))
    assert numeral_value(res.value) == len(items)
    assert res.steps == 3 * len(items) + 1


@given(st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=25))
def test_addition_agrees_with_arithmetic(m, n):
    res = evaluate(system_t_list(), parse_term(f"add {m} {n}"))
    assert numeral_value(res.value) == m + n
    assert res.steps == 1


def test_results_may_be_far_deeper_than_any_recursion_limit():
    # one builtin step can produce a numeral a quarter million constructors
    # deep; the value check must not walk it on the host stack
    res = evaluate(system_t_list(), parse_term("mul 499 499"))
    assert res.steps == 1
    assert numeral_value(res.value) == 249001


def test_lambda_may_capture_a_huge_numeral_and_still_be_a_value():
    src = "(fn x:Nat => fn y:Nat => succ x) (mul 499 499)"
    res = evaluate(system_t_list(), parse_term(src))
    assert res.steps == 2
    assert isinstance(res.value, Lam)
    assert numeral_value(res.value.body) == 249002


def test_deep_runs_need_no_more_than_the_default_recursion_limit():
    # the machine keeps pending work on its own stack, not the host's, and
    # the typechecker takes numeral and list literals whole
    succ_recs = [parse_term(f"rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) {n}")
                 for n in (900, 3000)]
    items = [i % 10 for i in range(400)]
    fold = parse_term("fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) "
                      f"[{','.join(map(str, items))}]")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    hit_limit = False
    try:
        counted = [evaluate(system_t(), t) for t in succ_recs]
        summed = evaluate(system_t_list(), fold)
    except RecursionError:
        # flagged, not raised: reporting a traceback a thousand frames deep,
        # with deep terms in its locals, takes pytest minutes
        hit_limit = True
    finally:
        sys.setrecursionlimit(old)
    assert not hit_limit, "evaluation hit the host recursion limit"
    assert [(numeral_value(r.value), r.steps) for r in counted] == [
        (900, 3 * 900 + 1), (3000, 3 * 3000 + 1)]
    assert (numeral_value(summed.value), summed.steps) == (sum(items), 4 * 400 + 1)


def _nodes(t) -> int:
    count, todo = 0, [t]
    while todo:
        s = todo.pop()
        count += 1
        if isinstance(s, App):
            todo += (s.fun, s.arg)
        elif isinstance(s, Lam):
            todo.append(s.body)
    return count


def test_compiling_a_deep_nest_visits_each_node_once_one_frame_a_level(monkeypatch):
    # a spine's arguments are compiled once, not once to look at and again
    # to use, and each level of nesting costs the compiler one host frame
    depth = 300
    term = parse_term("(fn x:Nat => " + "succ (" * depth + "x" + ")" * depth + ") 0")
    nodes = _nodes(term)
    real = _Machine.compile
    calls, live, deepest = 0, 0, 0

    def counted(self, t, names):
        nonlocal calls, live, deepest
        calls += 1
        # stop at once: compiling each argument twice is exponential here
        assert calls <= nodes, "a node was compiled twice"
        live += 1
        deepest = max(deepest, live)
        try:
            return real(self, t, names)
        finally:
            live -= 1

    monkeypatch.setattr(_Machine, "compile", counted)
    res = evaluate(system_t(), term)
    assert (numeral_value(res.value), res.steps) == (depth, 1)
    assert nodes == 2 * depth + 4
    assert deepest <= depth + 3
