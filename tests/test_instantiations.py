"""The four shipped analyses and their report-level operations."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_pure import pure_denote
from writ import (
    BOUND,
    COST,
    EXACT,
    SEARCH_TEMPLATE,
    App,
    Base,
    BaseList,
    Constant,
    Fuel,
    FuelExhausted,
    Func,
    Identity,
    MissingInterpretation,
    ModulusReport,
    QUERIES,
    SFun,
    SPair,
    ShapeMismatch,
    Table,
    TypeMismatch,
    UndeclaredSymbol,
    UnsupportedSymbol,
    WritError,
    app,
    as_base,
    as_fun,
    bar_rec,
    bounded_cost,
    continuity_inst,
    cost_exact_inst,
    denote,
    evaluate,
    evaluate_with_oracle,
    exact_cost,
    list_term,
    list_value,
    majorant,
    modulus,
    numeral,
    numeral_value,
    oracle_from_string,
    pair_parts,
    parse_term,
    recursor,
    semantic_join,
    signature_for,
    spair,
    spector_closed_form,
    system_t,
    system_t_list,
    translate,
    verify_modulus,
    with_oracle,
)
from writ.harness import _search_recurrence
from writ.instantiations import lift_builtin, search
from writ.signatures import BUILTINS

FF2 = "fn f:Nat->Nat => f (f 2)"
REC3 = "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3"


# ---------------------------------------------------------------- modulus

def test_modulus_identity():
    rep = modulus(parse_term(FF2), Identity())
    assert rep.phi == 3
    assert rep.support == (2, 2)
    assert rep.predicted_value == 2


def test_modulus_constant():
    rep = modulus(parse_term(FF2), Constant(5))
    assert rep.phi == 6
    assert rep.support == (2, 5)
    assert rep.predicted_value == 5


def test_modulus_table():
    rep = modulus(parse_term(FF2), Table(((0, 9), (1, 3))))
    assert rep.phi == 3
    assert rep.support == (2, 0)
    assert rep.predicted_value == 9


def test_modulus_blind_functional():
    rep = modulus(parse_term("fn f:Nat->Nat => 7"), Identity())
    assert rep.phi == 0
    assert rep.support == ()
    assert rep.predicted_value == 7


def test_modulus_typechecks_its_term_once(monkeypatch):
    import writ.instantiations
    import writ.meta

    checked = []

    def counting(sig, ctx, t, _check=writ.instantiations.typecheck):
        checked.append(t)
        return _check(sig, ctx, t)

    monkeypatch.setattr(writ.instantiations, "typecheck", counting)
    monkeypatch.setattr(writ.meta, "typecheck", counting)
    t = parse_term(FF2)
    assert modulus(t, Identity()).support == (2, 2)
    assert checked == [t]


def test_modulus_support_preserves_query_order():
    src = "fn f:Nat->Nat => rec[Nat] (f 3) (fn n:Nat => fn p:Nat => succ p) (f 1)"
    rep = modulus(parse_term(src), Identity())
    assert rep.support == (3, 1)
    assert rep.phi == 4
    assert rep.predicted_value == 4


def test_modulus_agrees_with_live_evaluation():
    t = parse_term(FF2)
    for g in (Identity(), Constant(5), Table(((0, 9), (1, 3)))):
        rep = modulus(t, g)
        live = evaluate_with_oracle(system_t(), App(t, Func("alpha")), g)
        assert rep.predicted_value == numeral_value(live.value)
        assert live.queries == rep.support


def test_modulus_support_keeps_queries_on_both_sides_of_the_recursive_value():
    # each stage queries succ n before it reads the stages below it, and
    # succ (succ p) after, so its two queries sit on either side of theirs
    t = parse_term("fn f:Nat->Nat => rec[Nat] 0 (fn n:Nat => "
                   "(fn q:Nat => fn p:Nat => f (succ (succ p))) (f (succ n))) 3")
    rep = modulus(t, Identity())
    assert rep == ModulusReport(phi=7, support=(3, 2, 1, 2, 4, 6), predicted_value=6)
    live = evaluate_with_oracle(system_t(), App(t, Func("alpha")), Identity())
    assert rep.support == live.queries


def test_modulus_requires_type_two():
    with pytest.raises(TypeMismatch):
        modulus(numeral(3), Identity())
    with pytest.raises(TypeMismatch):
        modulus(parse_term("fn x:Nat => x"), Identity())


def test_modulus_rejects_symbols_outside_the_fragment():
    # the fragment is the term's own signature: lists are in it, the
    # oracle symbol is not
    with pytest.raises(UndeclaredSymbol):
        modulus(parse_term("fn f:Nat->Nat => f (alpha 1)"), Identity())
    rep = modulus(parse_term("fn f:Nat->Nat => f (len [])"), Identity())
    assert rep == ModulusReport(phi=1, support=(0,), predicted_value=0)


_STEP = "(fn v:List => fn p:Nat->Nat => p (f (len v)))"
LIST_AND_SEARCH_FUNCTIONALS = [
    # two searches whose control functional reads the oracle
    f"fn f:Nat->Nat => bar (fn g:Nat->Nat => f (g 0)) (fn u:List => len u) {_STEP} []",
    f"fn f:Nat->Nat => bar (fn g:Nat->Nat => g (f 1)) (fn u:List => ext u 0) {_STEP} []",
    *(f"fn f:Nat->Nat => {body}" for body in (
        "fold[Nat] 0 (fn n:Nat => fn p:Nat => add (f n) p) [1,4,2]",
        "ext (cons (cons [] (f 3)) (f 0)) (f 1)",
        "mul (f 2) (lt (f 1) (f 5))",
        "len (fold[List] [] (fn n:Nat => fn p:List => cons p (f n)) [0,1,2,3])",
        "f (len [])",
    )),
]


@pytest.mark.parametrize("oracle", ["identity", "constant:2", "table:0=3,1=0,2=4,default=1"])
@pytest.mark.parametrize("src", LIST_AND_SEARCH_FUNCTIONALS)
def test_modulus_of_list_and_search_functionals_is_what_the_machine_queries(src, oracle):
    t, g = parse_term(src), oracle_from_string(oracle)
    rep = modulus(t, g)
    live = evaluate_with_oracle(signature_for(t), App(t, Func("alpha")), g)
    assert (rep.support, rep.predicted_value) == (live.queries, numeral_value(live.value))
    report = verify_modulus(t, g, trials=100)
    assert report.passed, report.details


# ---------------------------------------------------------------- exact cost

def test_exact_cost_frozen_examples():
    cases = [
        ("5", 0, 5),
        ("(fn x:Nat => x) 0", 1, 0),
        (REC3, 10, 3),
        ("add 2 3", 1, 5),
        ("fold[Nat] 0 (fn n:Nat => fn p:Nat => succ p) [7,7]", 7, 2),
    ]
    for src, steps, value in cases:
        rep = exact_cost(parse_term(src))
        assert rep.mode == EXACT
        assert rep.predicted == steps, src
        assert as_base(rep.semantic).value == value, src


def test_exact_cost_search_example():
    src = (
        "bar (fn f:Nat->Nat => 0) (fn a:List => len a) "
        "(fn b:List => fn p:Nat->Nat => p 0) []"
    )
    rep = exact_cost(parse_term(src))
    assert (rep.predicted, as_base(rep.semantic).value) == (15, 1)


def test_exact_cost_list_result():
    rep = exact_cost(parse_term("cons [4] 9"))
    assert rep.predicted == 0
    assert rep.semantic.items == (4, 9)


def test_exact_cost_matches_evaluator_on_samples():
    sources = [
        "mul 3 4",
        "lt 2 5",
        "len [1,2,3]",
        "ext [4,5] 1",
        "(fn f:Nat->Nat => f (f 1)) (fn x:Nat => succ x)",
        "rec[Nat] 5 (fn n:Nat => fn p:Nat => p) 3",
        "fold[List] [] (fn n:Nat => fn p:List => cons p n) [5,6]",
        "rec[Nat->Nat] (fn x:Nat => x) (fn n:Nat => fn p:Nat->Nat => fn x:Nat => succ (p x)) 3 4",
    ]
    for src in sources:
        t = parse_term(src)
        sig = signature_for(t)
        rep = exact_cost(t)
        res = evaluate(sig, t)
        assert rep.predicted == res.steps, src
        n = numeral_value(res.value)
        if n is not None:
            assert as_base(rep.semantic).value == n, src
        else:
            items = list_value(res.value)
            if items is not None:
                assert rep.semantic.items == items, src


@given(st.integers(min_value=0, max_value=30))
def test_exact_cost_matches_evaluator_on_rec_counts(n):
    t = parse_term(f"rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) {n}")
    rep = exact_cost(t)
    res = evaluate(system_t(), t)
    assert rep.predicted == res.steps == 3 * n + 1
    assert as_base(rep.semantic).value == n


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=7))
def test_exact_cost_matches_evaluator_on_folds(items):
    lit = "[" + ",".join(map(str, items)) + "]"
    t = parse_term(f"fold[Nat] 1 (fn n:Nat => fn p:Nat => add n p) {lit}")
    rep = exact_cost(t)
    res = evaluate(system_t_list(), t)
    assert rep.predicted == res.steps
    assert as_base(rep.semantic).value == numeral_value(res.value)


def test_exact_cost_deep_numeral_is_linear():
    rep = exact_cost(numeral(2000))
    assert rep.predicted == 0
    assert as_base(rep.semantic).value == 2000


def test_the_second_search_stage_runs_only_inside_bar():
    # bar1 is the stage bar's rewrite rule calls; the machine still runs it,
    # but the analyses interpret bar whole and give bar1 no meaning of its own
    term = app(Func("bar1"), *map(parse_term, (
        "fn f:Nat->Nat => 0", "fn xs:List => len xs",
        "fn xs:List => fn k:Nat->Nat => k 0", "[4]", "0")))
    assert numeral_value(evaluate(bar_rec(), term).value) == 1
    assert issubclass(MissingInterpretation, WritError)
    with pytest.raises(MissingInterpretation):
        exact_cost(term)
    with pytest.raises(MissingInterpretation):
        pure_denote({}, term)


# ---------------------------------------------------------------- bounded cost

def test_bounded_cost_sizes():
    rep = bounded_cost(parse_term("5"))
    assert rep.mode == BOUND
    assert (rep.predicted, as_base(rep.semantic).value) == (0, 1)
    rep = bounded_cost(parse_term("[1,2,3]"))
    assert (rep.predicted, as_base(rep.semantic).value) == (0, 3)
    rep = bounded_cost(parse_term("len []"))
    assert (rep.predicted, as_base(rep.semantic).value) == (1, 1)


def test_bounded_cost_fold_bound_is_sound_and_tight_here():
    src = "fold[Nat] 0 (fn n:Nat => fn p:Nat => succ p) [7,7]"
    rep = bounded_cost(parse_term(src))
    res = evaluate(system_t_list(), parse_term(src))
    assert rep.predicted == 7
    assert res.steps <= rep.predicted
    assert as_base(rep.semantic).value >= 1


def test_bounded_cost_rejects_numeral_recursion():
    with pytest.raises(UnsupportedSymbol):
        bounded_cost(parse_term(REC3))


def test_bounded_cost_rejects_search_symbols():
    with pytest.raises(UnsupportedSymbol):
        bounded_cost(
            parse_term(
                "bar (fn f:Nat->Nat => 0) (fn a:List => 0) "
                "(fn b:List => fn p:Nat->Nat => p 0) []"
            )
        )
    with pytest.raises(UnsupportedSymbol):
        bounded_cost(parse_term("ext [1] 0"))


@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=6),
    st.integers(min_value=0, max_value=5),
)
def test_bounded_cost_dominates_fold_runs(items, base):
    lit = "[" + ",".join(map(str, items)) + "]"
    src = f"fold[Nat] {base} (fn n:Nat => fn p:Nat => add n p) {lit}"
    t = parse_term(src)
    rep = bounded_cost(t)
    res = evaluate(system_t_list(), t)
    assert res.steps <= rep.predicted
    # every numeral has size one, so any natural result is bounded by >= 1
    assert as_base(rep.semantic).value >= 1


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=6))
def test_bounded_cost_dominates_list_builders(items):
    lit = "[" + ",".join(map(str, items)) + "]"
    src = f"fold[List] [] (fn n:Nat => fn p:List => cons p n) {lit}"
    t = parse_term(src)
    rep = bounded_cost(t)
    res = evaluate(system_t_list(), t)
    assert res.steps <= rep.predicted
    built = list_value(res.value)
    assert built is not None
    assert as_base(rep.semantic).value >= len(built)


# ---------------------------------------------------------------- majorizability

def test_majorant_frozen_examples():
    assert as_base(majorant(parse_term("add 2 3"))).value == 5
    assert as_base(majorant(parse_term("lt 9 1"))).value == 1
    m = majorant(parse_term("rec[Nat] 1 (fn n:Nat => fn p:Nat => add p p) 3"))
    assert as_base(m).value == 8
    # a shrinking recursion is still dominated by the join over all stages
    m = majorant(parse_term("rec[Nat] 5 (fn n:Nat => fn p:Nat => p) 3"))
    assert as_base(m).value == 5


def test_majorant_dominates_evaluation():
    sources = [
        "add (mul 2 3) (add 1 0)",
        "rec[Nat] 1 (fn n:Nat => fn p:Nat => add p p) 4",
        "rec[Nat] 2 (fn n:Nat => fn p:Nat => mul p p) 3",
        "lt 1 2",
    ]
    for src in sources:
        t = parse_term(src)
        sig = signature_for(t)
        got = numeral_value(evaluate(sig, t).value)
        assert got is not None
        assert as_base(majorant(t)).value >= got, src


def test_majorant_of_recursion_is_monotone_in_the_count():
    src = "fn x:Nat => rec[Nat] 1 (fn n:Nat => fn p:Nat => add p p) x"
    m = as_fun(majorant(parse_term(src)))

    def at(k):
        return as_base(pair_parts(m.fn(Base(k)))[1]).value

    values = [at(k) for k in range(8)]
    assert values == sorted(values)
    # and the function dominates the true recursion pointwise
    truth = as_fun(pure_denote({}, parse_term(src)))
    for k in range(8):
        assert at(k) >= as_base(truth.fn(Base(k))).value


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_majorant_monotone_on_sampled_pairs(a, b):
    lo, hi = min(a, b), max(a, b)
    src = "fn x:Nat => rec[Nat] 2 (fn n:Nat => fn p:Nat => add p n) x"
    m = as_fun(majorant(parse_term(src)))

    def at(k):
        return as_base(pair_parts(m.fn(Base(k)))[1]).value

    assert at(lo) <= at(hi)


def test_majorant_lt_is_constant_one():
    # the exact comparison is not monotone; the constant upper bound is
    assert as_base(majorant(parse_term("lt 0 5"))).value == 1
    assert as_base(majorant(parse_term("lt 5 0"))).value == 1


# ---------------------------------------------------------------- failure order

@pytest.mark.parametrize("analysis, src, error, message", [
    # the refusal comes before the typecheck, which would fail too
    (bounded_cost, "add (rec[Nat] 0 (fn n:Nat => fn p:Nat => p) 1) []", UnsupportedSymbol,
     "analysis does not support symbol 'rec[Nat]': sizes are uniform on numerals, "
     "so numeral recursion depth is invisible"),
    # the typecheck comes before the check that the type is two
    (lambda t: modulus(t, Identity()), "fn f:Nat->Nat => f []", TypeMismatch,
     "expected Nat, got List in 'f []'"),
    (lambda t: modulus(t, Identity()), "fn x:Nat => x", TypeMismatch,
     "expected (Nat->Nat)->Nat, got Nat->Nat in 'fn x:Nat => x'"),
    (exact_cost, "add 1 []", TypeMismatch, "expected Nat, got List in 'add 1 []'"),
    (majorant, "add 1 []", TypeMismatch, "expected Nat, got List in 'add 1 []'"),
])
def test_each_analysis_fails_with_its_first_failing_phase(analysis, src, error, message):
    with pytest.raises(error) as raised:
        analysis(parse_term(src))
    assert str(raised.value) == message


# ---------------------------------------------------------------- builtins

def test_lift_builtin_charges_one_step_once_its_arguments_arrive():
    from writ.instantiations import lift_builtin
    from writ.signatures import BUILTINS, BaseList

    add = as_fun(lift_builtin(BUILTINS["add"], COST)).fn(Base(2))
    assert pair_parts(as_fun(add).fn(Base(3))) == (1, Base(5))
    length = lift_builtin(BUILTINS["len"], COST)
    assert pair_parts(as_fun(length).fn(BaseList((4, 0, 7)))) == (1, Base(3))


def test_lift_builtin_rejects_arities_other_than_one_and_two():
    from writ.instantiations import lift_builtin
    from writ.signatures import Builtin

    with pytest.raises(ValueError, match="takes 3 arguments"):
        lift_builtin(Builtin("sel", 3, lambda args: args[0]), COST)


# ---------------------------------------------------------------- joins

def test_semantic_join_naturals_and_functions():
    assert semantic_join(Base(2), Base(5), max) == Base(5)
    assert semantic_join(Base(5), Base(2), max) == Base(5)
    f = SFun(lambda v: spair(1, Base(as_base(v).value + 1)))
    g = SFun(lambda v: spair(3, Base(as_base(v).value)))
    j = semantic_join(f, g, max)
    assert pair_parts(as_fun(j).fn(Base(4))) == (3, Base(5))


def test_semantic_join_is_idempotent_on_naturals():
    for n in range(5):
        assert semantic_join(Base(n), Base(n), max) == Base(n)


def test_semantic_join_rejects_mixed_shapes():
    with pytest.raises(ShapeMismatch):
        semantic_join(Base(1), SFun(lambda v: v), max)


# ---------------------------------------------------------------- search cost

def _denoted_fun(src, sig=None):
    t = parse_term(src)
    sig = sig if sig is not None else signature_for(t)
    _, fn = pair_parts(denote(cost_exact_inst(), {}, translate(sig, {}, t)))
    return fn


def test_spector_closed_form_canonical_pair():
    omega = _denoted_fun("fn f:Nat->Nat => 5")
    beta = _denoted_fun("fn x:Nat => 0")
    assert spector_closed_form(omega, beta) == 78


def test_spector_closed_form_probing_functional():
    omega = _denoted_fun("fn f:Nat->Nat => f 0")
    beta = _denoted_fun("fn x:Nat => 2")
    # four probe rounds at two steps each, three stream fills at one step
    # each, stopping threshold reached at three
    assert spector_closed_form(omega, beta) == 10 * 3 + 5 + 4 * 2 + 3 * 1


def test_spector_closed_form_degenerate_budget():
    # a functional that never settles: the closed form, the round-by-round
    # recurrence and the search itself all stop at the budget of 30 rounds
    # and report that budget
    omega = SFun(lambda f: spair(1, Base(10 ** 9)))
    beta = SFun(lambda n: spair(1, Base(0)))
    h = SFun(lambda xs: spair(0, SFun(lambda k: as_fun(k).fn(Base(0)))))
    bar = search(COST, lift_builtin(BUILTINS["ext"], COST), Fuel(30))
    runs = (
        lambda: spector_closed_form(omega, beta, Fuel(30)),
        lambda: _search_recurrence(omega, beta, Fuel(30)),
        lambda: as_fun(as_fun(as_fun(as_fun(bar).fn(omega)).fn(beta)).fn(h)).fn(BaseList()),
    )
    for run in runs:
        with pytest.raises(FuelExhausted) as err:
            run()
        assert err.value.steps == 30


def test_search_runs_past_two_thousand_rounds_at_a_raised_limit():
    # the benchmark's search family at K = 2,500 runs 2,501 rounds in one
    # call; only the fuel and the host stack bound a call's rounds
    t = parse_term(f"({SEARCH_TEMPLATE}) (fn f:Nat->Nat => 2500) (fn x:Nat => 0) []")
    got = {}

    def run():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(40_000)
        try:
            got["predicted"] = exact_cost(t).predicted
        finally:
            sys.setrecursionlimit(old)

    size = threading.stack_size(256 << 20)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(size)
    assert got["predicted"] == evaluate(signature_for(t), t).steps == 10 * 2500 + 19


@pytest.mark.parametrize("omega, beta, log, value", [
    ("fn f:Nat->Nat => alpha (f 0)", "fn x:Nat => alpha x", (0, 0, 3, 1, 3), 2),
    ("fn f:Nat->Nat => add (f (alpha 1)) (f 2)", "fn x:Nat => alpha (succ x)", (1, 1, 1), 1),
])
def test_search_under_queries_logs_what_the_machine_queries(omega, beta, log, value):
    g = oracle_from_string("table:0=3,1=0,2=4,default=1")
    t = app(parse_term(SEARCH_TEMPLATE), parse_term(omega), parse_term(beta), list_term(()))
    mt = translate(with_oracle(bar_rec(), g), {}, t)
    queries, out = pair_parts(denote(continuity_inst(g), {}, mt))
    res = evaluate_with_oracle(bar_rec(), t, g)
    assert (tuple(queries), out) == (res.queries, Base(numeral_value(res.value)))
    assert (res.queries, numeral_value(res.value)) == (log, value)


# ---------------------------------------------------------------- the recursor

# shallow terms whose recursors unfold thousands of times
MANY_UNFOLDS_REC = "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) (mul 60 60)"
MANY_UNFOLDS_FOLD = (
    "fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) (fold[List] [1] "
    "(fn n:Nat => fn p:List => fold[List] p (fn m:Nat => fn q:List => cons q m) p) "
    "[0,0,0,0,0,0,0,0,0,0,0,0])"
)


def test_recursors_unfold_without_host_recursion():
    import sys

    rec, fold = parse_term(MANY_UNFOLDS_REC), parse_term(MANY_UNFOLDS_FOLD)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    hit_limit = False
    try:
        predicted = [exact_cost(rec).predicted, exact_cost(fold).predicted,
                     bounded_cost(fold).predicted]
    except RecursionError:
        # flagged, not raised: see the evaluator's deep-run test
        hit_limit = True
    finally:
        sys.setrecursionlimit(old)
    assert not hit_limit, "an analysis hit the host recursion limit"
    steps = [evaluate(signature_for(t), t).steps for t in (rec, fold, fold)]
    assert predicted == steps == [10_802, 28_719, 28_719]


UNFOLD5 = [
    ("exact rec", lambda fuel: exact_cost(parse_term(
        "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 5"), fuel=fuel)),
    ("exact fold", lambda fuel: exact_cost(parse_term(
        "fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) [1,2,3,4,5]"), fuel=fuel)),
    ("bounded fold", lambda fuel: bounded_cost(parse_term(
        "fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) [1,2,3,4,5]"), fuel)),
    ("majorant rec", lambda fuel: majorant(parse_term(
        "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 5"), fuel)),
    ("modulus rec", lambda fuel: modulus(parse_term(
        "fn f:Nat->Nat => rec[Nat] 0 (fn n:Nat => fn p:Nat => succ (f p)) 5"),
        Identity(), fuel)),
]


@pytest.mark.parametrize("analysis", [a for _, a in UNFOLD5], ids=[i for i, _ in UNFOLD5])
def test_fuel_bounds_the_stages_of_one_call(analysis):
    # five stages fit in five steps of fuel, but not in four
    analysis(Fuel(5))
    with pytest.raises(FuelExhausted):
        analysis(Fuel(4))


def test_a_stage_charges_the_step_before_the_stages_below_it():
    # the step queries its index before it takes the value so far, as the
    # evaluator does when it unfolds rec a f (succ n) to f n (rec a f n)
    t = parse_term(
        "fn f:Nat->Nat => rec[Nat] 0 (fn n:Nat => (fn q:Nat => fn p:Nat => succ p) (f n)) 3")
    assert modulus(t, Identity()).support == (2, 1, 0)


@pytest.mark.parametrize("step, want", [
    (Base(3), "expected a function, got Base"),
    (SFun(lambda i: Base(0)), "expected a pair, got Base"),
    (SFun(lambda i: SPair(Base(0), Base(0))), "expected a effect, got Base"),
    (SFun(lambda i: spair(0, Base(1))), "expected a function, got Base"),
    (SFun(lambda i: spair(0, SFun(lambda p: Base(1)))), "expected a pair, got Base"),
])
def test_a_misshapen_stage_raises_the_guards_mismatch(step, want):
    family = recursor(COST, lambda m: range(as_base(m).value))
    run = as_fun(as_fun(family).fn(Base(1))).fn(step)
    # with no stage to run, the step is never looked at
    assert pair_parts(as_fun(run).fn(Base(0))) == (1, Base(1))
    with pytest.raises(ShapeMismatch) as err:
        as_fun(run).fn(Base(2))
    assert str(err.value) == want


@pytest.mark.parametrize("eff, effect, name", [
    (COST, 3, "int"), (QUERIES, (4,), "tuple"), (QUERIES, (), "tuple"),
])
def test_an_effect_where_a_stage_needs_a_function_names_its_carrier(eff, effect, name):
    # an effect is its carrier element itself, so the mismatch names the
    # element's own class: as the value of a stage's pair, and as the step
    held = spair(effect, Base(0)).fst
    family = recursor(eff, lambda m: range(as_base(m).value))
    run = as_fun(as_fun(family).fn(Base(1))).fn(SFun(lambda i: spair(eff.eps, held)))
    with pytest.raises(ShapeMismatch) as err:
        as_fun(run).fn(Base(2))
    assert str(err.value) == f"expected a function, got {name}"
    with pytest.raises(ShapeMismatch) as err:
        as_fun(as_fun(as_fun(family).fn(Base(1))).fn(held)).fn(Base(2))
    assert str(err.value) == f"expected a function, got {name}"


def test_the_two_join_rules_differ_on_a_step_that_does_not_distribute():
    # the step sends small values to 9 and large ones to 0: 1, 9, 0, 9, ...
    flip = SFun(lambda i: spair(0, SFun(
        lambda p: spair(0, Base(0 if as_base(p).value >= 5 else 9)))))

    def run(n, **rule):
        family = recursor(COST, lambda m: range(as_base(m).value),
                          join=lambda x, y: semantic_join(x, y, max), **rule)
        applied = as_fun(as_fun(as_fun(family).fn(Base(1))).fn(flip)).fn(Base(n))
        return pair_parts(applied)

    # each stage reads the base joined with the stage before: 1, 9, join(1, 0)
    assert run(2) == (3, Base(1))
    # each stage reads the stage before as it is; the result joins 1, 9, 0
    assert run(2, envelope=True) == (3, Base(9))


def test_majorant_envelope_threads_the_unjoined_stages():
    # the stages are 1, 0, 0, 0; threading their running join instead would
    # reach 2 * 1 at the last stage
    t = parse_term("rec[Nat] 1 (fn n:Nat => fn p:Nat => mul n p) 3")
    assert majorant(t) == Base(1)


# ---------------------------------------------------------------- deep terms

# the benchmark's deep families (bench/families.py): n successors, n
# additions, n oracle calls, a sum over items, and the bar search stopping
# after k rounds
SUCC_REC = "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) {}"
ADD_REC = "rec[Nat] 0 (fn n:Nat => fn p:Nat => add n p) {}"
ORACLE_REC = "fn f:Nat->Nat => rec[Nat] 0 (fn n:Nat => fn p:Nat => succ (f p)) {}"
FOLD_SUM = "fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) [{}]"
SEARCH = (
    "(fn w:(Nat->Nat)->Nat => fn y:Nat->Nat => fn z:List => bar w (fn u:List => 0) "
    "(fn v:List => fn p:Nat->Nat => succ (p (y (len v)))) z) "
    "(fn f:Nat->Nat => {}) (fn x:Nat => 0) []"
)


def test_analyses_take_deep_literals_at_the_default_recursion_limit():
    import sys

    n, items = 1100, [i % 10 for i in range(400)]
    succ, add, oracle = (parse_term(f.format(n)) for f in (SUCC_REC, ADD_REC, ORACLE_REC))
    fold = parse_term(FOLD_SUM.format(",".join(map(str, items))))
    search = parse_term(SEARCH.format(120))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    hit_limit = False
    try:
        costs = [exact_cost(t) for t in (succ, add, fold, search)]
        bound = bounded_cost(fold)
        majorants = [majorant(succ), majorant(add)]
        rep = modulus(oracle, Identity())
        deep_rep = modulus(parse_term(ORACLE_REC.format(20_000)), Identity())
    except RecursionError:
        # flagged, not raised: see the evaluator's deep-run test
        hit_limit = True
    finally:
        sys.setrecursionlimit(old)
    assert not hit_limit, "an analysis hit the host recursion limit"
    triangle = n * (n - 1) // 2
    assert [(c.predicted, as_base(c.semantic).value) for c in costs] == [
        (3 * n + 1, n), (4 * n + 1, triangle), (4 * 400 + 1, sum(items)),
        (10 * 120 + 19, 121)]
    assert (bound.predicted, bound.semantic) == (4 * 400 + 1, Base(1))
    assert majorants == [Base(n), Base(triangle)]
    assert rep == ModulusReport(phi=n, support=tuple(range(n)), predicted_value=n)
    assert deep_rep == ModulusReport(phi=20_000, support=tuple(range(20_000)),
                                     predicted_value=20_000)


def test_search_cost_keeps_no_values_past_their_round():
    import tracemalloc

    search = parse_term(SEARCH.format(40))
    tracemalloc.start()
    try:
        assert exact_cost(search).predicted == 10 * 40 + 19
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
