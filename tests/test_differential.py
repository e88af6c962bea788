"""The environment machine against the substitution evaluator it replaced,
and the analyses against the machine.

Both evaluators must agree on the rendered value, the step count and the
oracle queries, and must run out of fuel at the same step. Values are
compared rendered: dataclass equality recurses and overflows on deep
numerals. On generated terms the machine finishes, the analyses must agree
with it: predicted steps and values are exact, and so are pure values;
bounds and majorants dominate; the modulus's support is the oracle
queries in order; and perturbing the oracle outside the support leaves the
value where it was.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_eval import reference_evaluate
from term_strategies import FUNCTIONAL, N2N, NAT2, closed_terms
from writ import (
    LIST,
    NAT,
    App,
    Arrow,
    Base,
    BaseList,
    Cons,
    ConsDecl,
    Constant,
    Data,
    Fuel,
    FuelExhausted,
    FuncDecl,
    Func,
    Identity,
    Lam,
    PCons,
    PVar,
    Rule,
    SEARCH_TEMPLATE,
    Signature,
    Table,
    UnsupportedSymbol,
    Var,
    as_base,
    bounded_cost,
    evaluate,
    exact_cost,
    list_value,
    majorant,
    modulus,
    numeral,
    numeral_value,
    parse_term,
    pure_denote,
    render_term,
    signature_for,
    system_t,
    system_t_list,
    typecheck,
    verify_modulus,
    with_oracle,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ORACLES = (Identity(), Constant(3), Table(((0, 4), (1, 2), (5, 0)), default=1))
SEARCH = f"({SEARCH_TEMPLATE})"


def _outcome(run, sig, term, fuel):
    try:
        res = run(sig, term, fuel)
    except FuelExhausted as err:
        return ("fuel", err.steps)
    except _TooBig:
        return ("too big",)
    return (render_term(res.value), res.steps, res.queries)


def assert_agree(sig, term, fuel=Fuel()):
    """Same outcome from both evaluators; with a result, also the same
    overflow at one step less fuel. Returns the machine's outcome."""
    got = _outcome(evaluate, sig, term, fuel)
    assert got == _outcome(reference_evaluate, sig, term, fuel), render_term(term)
    if len(got) == 3 and got[1] > 1:
        short = Fuel(got[1] - 1)
        assert _outcome(evaluate, sig, term, short) == ("fuel", got[1])
        assert _outcome(reference_evaluate, sig, term, short) == ("fuel", got[1])
    return got


# ---------------------------------------------------------------- fixed inputs

def _corpus_terms():
    return [pytest.param(parse_term(p.read_text(encoding="utf-8")), id=p.stem)
            for p in sorted(CORPUS.glob("*.wt"))]


@pytest.mark.parametrize("term", _corpus_terms())
def test_corpus_terms_agree(term):
    sig = signature_for(term)
    assert_agree(sig, term)
    if typecheck(sig, {}, term) == FUNCTIONAL:
        for g in ORACLES:
            assert_agree(with_oracle(sig, g), App(term, Func("alpha")))


FAMILIES = [
    *(f"rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) {n}" for n in (0, 1, 7, 40)),
    *(f"rec[Nat] 0 (fn n:Nat => fn p:Nat => add n p) {n}" for n in (0, 3, 25)),
    *(f"fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) {xs}"
      for xs in ("[]", "[4]", "[3,1,4,1,5,9,2,6]", "[" + ",".join("7" * 30) + "]")),
    *(f"{SEARCH} (fn f:Nat->Nat => {k}) (fn x:Nat => 0) []" for k in (0, 2, 6)),
    f"{SEARCH} (fn f:Nat->Nat => f 3) (fn x:Nat => succ x) [1]",
]


@pytest.mark.parametrize("src", FAMILIES)
def test_bench_families_agree(src):
    term = parse_term(src)
    assert_agree(signature_for(term), term)


@pytest.mark.parametrize("n", [0, 1, 5, 12])
@pytest.mark.parametrize("g", ORACLES, ids=("identity", "constant", "table"))
def test_oracle_rec_agrees(n, g):
    term = parse_term(
        f"(fn f:Nat->Nat => rec[Nat] 0 (fn n:Nat => fn p:Nat => succ (f p)) {n}) alpha")
    assert assert_agree(with_oracle(system_t(), g), term)[1] == 4 * n + 2


# the machine's less travelled paths, picked by hand
TRICKY = [
    # a cons onto a shared list literal must not show through the literal
    "(fn l:List => fold[List] l (fn n:Nat => fn p:List => cons l n) [1,2]) [5]",
    "(fn l:List => add (len (cons l 1)) (len (cons l 2))) [0]",
    # an inner binder shadows an outer one of the same name, also in a closure
    "(fn x:Nat => fn y:Nat => fn x:Nat => add x y) 7 1",
    "(fn x:Nat => fn x:Nat => fn y:Nat => x) 1 2",
    # an argument variable is looked up where it was written, not in the
    # environment of the function call that ran before it
    "(fn k:Nat->Nat->Nat => fn a:Nat => k 5 a) (fn u:Nat => fn w:Nat => w) 7",
    # a closure built inside a rule, read back with its captured values
    "rec[Nat->Nat] (fn x:Nat => x) (fn n:Nat => fn f:Nat->Nat => fn x:Nat => f (succ x)) 2",
    "fold[Nat->Nat] succ (fn n:Nat => fn k:Nat->Nat => mul n) [3,1]",
    # partial applications of every kind of head
    "cons [1]",
    "rec[List] [2]",
    "(fn f:Nat->Nat => f) (add 2)",
]


@pytest.mark.parametrize("src", TRICKY)
def test_tricky_cases_agree(src):
    term = parse_term(src)
    assert_agree(signature_for(term), term)


def test_datatype_without_host_form_agrees():
    # constructors the machine has no host form for stay symbolic
    box = Data("Box")
    sig = Signature(
        "boxes", {"Nat", "Box"},
        {"zero": ConsDecl((), "Nat"), "succ": ConsDecl(("Nat",), "Nat"),
         "box": ConsDecl(("Nat",), "Box")},
        {"unbox": FuncDecl(Arrow(box, NAT),
                           (Rule((PCons("box", (PVar("x", NAT),)),), Var("x")),))},
    )
    boxed = App(Lam("n", NAT, App(Cons("box"), App(Cons("succ"), Var("n")))), numeral(2))
    assert assert_agree(sig, boxed) == ("box 3", 1, ())
    assert assert_agree(sig, App(Func("unbox"), boxed)) == ("3", 2, ())


# ---------------------------------------------------------------- generated

class _TooBig(Exception):
    """A builtin's result outgrew what the reference can spell in unary."""


_CAP = 1000


def _capped(delta):
    def run(args):
        v = delta(args)
        if v > _CAP:
            raise _TooBig
        return v
    return run


def _generated_signature(lists: bool) -> Signature:
    """system_t, or system_t_list with builtins that give up past _CAP.

    Without builtins a value grows by one constructor at a time, which the
    fuel bounds; add and mul double and square it with one step each."""
    if not lists:
        return system_t()
    base = system_t_list()
    functions = {}
    for name in ("add", "mul", "lt", "len"):
        decl = base.func_decl(name)
        functions[name] = FuncDecl(decl.ty, replace(decl.impl, delta=_capped(decl.impl.delta)))
    constructors = {name: base.cons_decl(name) for name in ("zero", "succ", "nil", "cons")}
    return Signature(base.name, base.datatypes, constructors, functions, {"rec", "fold"})


# low fuel keeps the quadratic reference fast, and bounds how far a closure
# that calls its argument twice can double
_GEN_FUEL = Fuel(40)
_GEN = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@_GEN
@given(st.sampled_from([NAT, LIST, N2N, NAT2]).flatmap(
    lambda ty: st.tuples(st.just(ty), closed_terms(ty, lists=True))))
def test_generated_list_terms_agree(typed):
    ty, term = typed
    sig = _generated_signature(lists=True)
    assert typecheck(sig, {}, term) == ty
    assert_agree(sig, term, _GEN_FUEL)


@_GEN
@given(st.sampled_from([NAT, N2N]).flatmap(lambda ty: closed_terms(ty, lists=False)))
def test_generated_t_terms_agree(term):
    assert_agree(_generated_signature(lists=False), term, _GEN_FUEL)


@_GEN
@given(closed_terms(FUNCTIONAL, lists=False), st.sampled_from(ORACLES))
def test_generated_functionals_agree_under_oracles(term, g):
    sig = with_oracle(_generated_signature(lists=False), g)
    assert typecheck(sig, {}, term) == FUNCTIONAL
    assert_agree(sig, App(term, Func("alpha")), _GEN_FUEL)


# ---------------------------------------------------------------- analyses

def _finished(sig, term):
    """The machine's result within _GEN_FUEL, or None when it runs out or
    a builtin outgrows _CAP."""
    try:
        return evaluate(sig, term, _GEN_FUEL)
    except (FuelExhausted, _TooBig):
        return None


def assert_costs_agree(sig, term, ty, res):
    """Exact cost is the machine's step count and value, and so is the pure
    value; a bound, where the analysis accepts the term, is at least the
    step count."""
    exact = exact_cost(term, sig)
    assert exact.predicted == res.steps, render_term(term)
    if ty in (NAT, LIST):
        value = Base(numeral_value(res.value)) if ty == NAT else BaseList(list_value(res.value))
        assert exact.semantic == value == pure_denote({}, term), render_term(term)
    try:
        bound = bounded_cost(term)
    except UnsupportedSymbol:
        return
    assert bound.predicted >= res.steps, render_term(term)


@_GEN
@given(st.sampled_from([NAT, LIST, N2N, NAT2]).flatmap(
    lambda ty: st.tuples(st.just(ty), closed_terms(ty, lists=True))))
def test_generated_list_terms_analyses_agree(typed):
    ty, term = typed
    sig = _generated_signature(lists=True)
    res = _finished(sig, term)
    if res is not None:
        assert_costs_agree(sig, term, ty, res)


@_GEN
@given(st.sampled_from([NAT, N2N]).flatmap(
    lambda ty: st.tuples(st.just(ty), closed_terms(ty, lists=False))))
def test_generated_t_terms_analyses_agree(typed):
    ty, term = typed
    sig = _generated_signature(lists=False)
    res = _finished(sig, term)
    if res is None:
        return
    assert_costs_agree(sig, term, ty, res)
    if ty == NAT:
        assert as_base(majorant(term)).value >= numeral_value(res.value), render_term(term)


@_GEN
@given(closed_terms(FUNCTIONAL, lists=False), st.sampled_from(ORACLES))
def test_generated_functionals_query_their_modulus_support_in_order(term, g):
    res = _finished(with_oracle(_generated_signature(lists=False), g), App(term, Func("alpha")))
    if res is None:
        return
    rep = modulus(term, g)
    # stronger than queries within the support: the same queries in order
    assert res.queries == rep.support, render_term(term)
    assert rep.predicted_value == numeral_value(res.value), render_term(term)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms(FUNCTIONAL, lists=False), st.sampled_from(ORACLES), st.integers(0, 99))
def test_generated_functionals_pass_verify_modulus(term, g, seed):
    if _finished(with_oracle(_generated_signature(lists=False), g),
                 App(term, Func("alpha"))) is None:
        return
    rep = verify_modulus(term, g, trials=5, seed=seed)
    assert rep.passed, (render_term(term), rep.details)
