"""The environment machine against the substitution evaluator it replaced,
and the analyses against the machine.

Both evaluators must agree on the rendered value, the step count and the
oracle queries, and must run out of fuel at the same step. Values are
compared rendered: dataclass equality recurses and overflows on deep
numerals. On generated terms the machine finishes, the analyses must agree
with it: predicted steps and values are exact, and so are pure values;
bounds and majorants dominate; the modulus's support is the oracle
queries in order; and perturbing the oracle outside the support leaves the
value where it was. A term compiled once by oracle_runner and rerun under
one oracle after another must agree with a fresh machine per oracle.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_denote import reference_denote
from reference_eval import reference_evaluate
from reference_pure import pure_denote
from term_strategies import FUNCTIONAL, N2N, NAT2, closed_terms
from test_engine import SHAPES, CountingDict
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
    DEFAULT_FUEL,
    Data,
    Fuel,
    FuelExhausted,
    FuncDecl,
    Func,
    Identity,
    Lam,
    MissingInterpretation,
    PCons,
    PVar,
    Rule,
    SEARCH_TEMPLATE,
    SFun,
    SPair,
    Signature,
    StuckTerm,
    Table,
    UnsupportedSymbol,
    Var,
    WritError,
    as_base,
    as_fun,
    as_pair,
    bar_rec,
    bounded_cost,
    continuity_inst,
    cost_bounded_inst,
    cost_exact_inst,
    denote,
    evaluate,
    exact_cost,
    list_term,
    list_value,
    majorant,
    majorizability_inst,
    modulus,
    numeral,
    numeral_value,
    parse_term,
    render_semval,
    render_term,
    signature_for,
    system_t,
    translate,
    typecheck,
    verify_modulus,
    with_oracle,
)
from writ.evaluator import evaluate_typed, oracle_runner
from writ.instantiations import _exact_inst
from writ.signatures import BUILTINS

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ORACLES = (Identity(), Constant(3), Table(((0, 4), (1, 2), (5, 0)), default=1))
SEARCH = f"({SEARCH_TEMPLATE})"


def _outcome(run, sig, term, fuel):
    try:
        res = run(sig, term, fuel)
    except FuelExhausted as err:
        return ("fuel", err.steps)
    except StuckTerm as err:
        return ("stuck", str(err))
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


# ---------------------------------------------------------------- one runner, many oracles

def _runner_outcome(run, g):
    try:
        res = run(g)
    except FuelExhausted as err:
        return ("fuel", err.steps)
    return (render_term(res.value), res.steps, res.queries)


def _mixed_oracles():
    """Every kind of oracle, interleaved, with repeats; three of the tables
    are seeded random ones."""
    rng = random.Random(0)
    tables = [Table(tuple((j, rng.randrange(10)) for j in range(12)),
                    default=rng.randrange(10)) for _ in range(3)]
    return [Identity(), tables[0], Constant(5), Table(((0, 9), (1, 3))), tables[1],
            Identity(), Constant(0), tables[2], Table(((0, 9), (1, 3))), tables[0],
            Constant(5), Identity()]


MIXED_ORACLES = _mixed_oracles()


@pytest.mark.parametrize("term", [
    pytest.param(parse_term(p.read_text(encoding="utf-8")), id=p.stem)
    for p in sorted(CORPUS.glob("mod_*.wt"))
])
def test_oracle_runner_agrees_with_a_fresh_evaluation_per_oracle(term):
    """One runner, called under one oracle after another, answers each
    exactly as evaluate_typed does under that oracle alone; so does a runner
    whose fuel the dearest oracle overruns."""
    base, applied = system_t(), App(term, Func("alpha"))
    fresh = [_outcome(evaluate_typed, with_oracle(base, g), applied, DEFAULT_FUEL)
             for g in MIXED_ORACLES]
    run = oracle_runner(base, applied)
    assert [_runner_outcome(run, g) for g in MIXED_ORACLES] == fresh
    short = Fuel(max(1, max(out[1] for out in fresh) - 1))
    run = oracle_runner(base, applied, short)
    assert [_runner_outcome(run, g) for g in MIXED_ORACLES] == [
        _outcome(evaluate_typed, with_oracle(base, g), applied, short)
        for g in MIXED_ORACLES
    ]


def test_oracle_runner_is_exact_after_running_out_of_fuel():
    term = parse_term((CORPUS / "mod_rec_base_count.wt").read_text(encoding="utf-8"))
    base, applied = system_t(), App(term, Func("alpha"))
    # the recursion count is the oracle's answer at 0: 0, 5 and 9 here
    identity = evaluate_typed(with_oracle(base, Identity()), applied)
    fuel = Fuel(identity.steps + 3)
    run = oracle_runner(base, applied, fuel)
    got = [_runner_outcome(run, g)
           for g in (Constant(5), Identity(), Table(((0, 9),)), Identity())]
    assert got == [("fuel", fuel.max_steps + 1),
                   (render_term(identity.value), identity.steps, identity.queries),
                   ("fuel", fuel.max_steps + 1),
                   (render_term(identity.value), identity.steps, identity.queries)]


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
    # a rule-defined symbol on arguments that take steps, and passed unsaturated
    "rec[Nat] (add 1 2) (fn n:Nat => fn p:Nat => succ p) (mul 2 2)",
    "(fn r:Nat->Nat => r 3) (rec[Nat] 0 (fn n:Nat => fn p:Nat => add n p))",
    "(fn xs:List => fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) xs) [1,2]",
    # a call given more arguments than its arity
    "(fn a:Nat->Nat => fn g:Nat->(Nat->Nat)->Nat->Nat => rec[Nat->Nat] a g 2 5) "
    "(fn x:Nat => x) (fn n:Nat => fn f:Nat->Nat => fn x:Nat => f (succ x))",
    # a call's arguments: a constant before a variable, variables out of order
    "(fn y:Nat => add 4 y) 3",
    "(fn x:Nat => fn y:Nat => lt y x) 2 5",
    "(fn x:Nat => fn y:Nat => cons (cons [] y) x) 1 2",
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


def _nested_signature() -> Signature:
    """Rules whose patterns nest constructors two deep, on numerals, lists
    and a datatype with no host form; pred2, last2 and unbox have no rule
    for some values."""
    box = Data("Box")
    n, xs, a, b = PVar("n", NAT), PVar("xs", LIST), PVar("a", NAT), PVar("b", NAT)

    def succ(p):
        return PCons("succ", (p,))

    zero, nil = PCons("zero", ()), PCons("nil", ())
    nat_nat = Arrow(NAT, NAT)
    return Signature(
        "nested", {"Nat", "List", "Box"},
        {"zero": ConsDecl((), "Nat"), "succ": ConsDecl(("Nat",), "Nat"),
         "nil": ConsDecl((), "List"), "cons": ConsDecl(("List", "Nat"), "List"),
         "box": ConsDecl(("Nat",), "Box"), "empty": ConsDecl((), "Box")},
        {"add": FuncDecl(Arrow(NAT, nat_nat), BUILTINS["add"]),
         "pred2": FuncDecl(nat_nat, (Rule((succ(succ(n)),), Var("n")),)),
         "half": FuncDecl(nat_nat, (
             Rule((zero,), numeral(0)),
             Rule((succ(zero),), numeral(0)),
             Rule((succ(succ(n)),), App(Cons("succ"), App(Func("half"), Var("n")))))),
         "last2": FuncDecl(Arrow(LIST, NAT), (
             Rule((PCons("cons", (PCons("cons", (xs, a)), b)),),
                  App(App(Func("add"), Var("a")), Var("b"))),
             Rule((PCons("cons", (nil, b)),), Var("b")))),
         "unbox": FuncDecl(Arrow(box, NAT), (
             Rule((PCons("empty", ()),), numeral(0)),
             Rule((PCons("box", (succ(n),)),), Var("n"))))},
    )


NESTED = [
    (App(Func("pred2"), numeral(5)), ("3", 1, ())),
    (App(Func("half"), numeral(7)), ("3", 4, ())),
    (App(Lam("x", NAT, App(Func("half"), Var("x"))), numeral(6)), ("3", 5, ())),
    (App(Func("last2"), list_term((1, 2, 3))), ("5", 2, ())),
    (App(Func("last2"), list_term((4,))), ("4", 1, ())),
    (App(Func("unbox"), App(Cons("box"), numeral(3))), ("2", 1, ())),
    (App(Func("unbox"), Cons("empty")), ("0", 1, ())),
    (App(Lam("f", Arrow(NAT, NAT), App(Var("f"), numeral(4))), Func("pred2")), ("2", 2, ())),
    # no rule matches: the machine reports the stuck call as the reference does
    (App(Func("pred2"), numeral(1)), ("stuck", "no rewrite applies to 'pred2 1'")),
    (App(Lam("x", NAT, App(Func("pred2"), App(Cons("succ"), Var("x")))), numeral(0)),
     ("stuck", "no rewrite applies to 'pred2 1'")),
    (App(Func("last2"), list_term(())), ("stuck", "no rewrite applies to 'last2 []'")),
    (App(Func("unbox"), App(Cons("box"), numeral(0))),
     ("stuck", "no rewrite applies to 'unbox (box 0)'")),
]


@pytest.mark.parametrize("term, expected", NESTED, ids=[render_term(t) for t, _ in NESTED])
def test_nested_patterns_agree(term, expected):
    assert assert_agree(_nested_signature(), term) == expected


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
    """system_t, or system_t_list plus ext, with builtins that give up past
    _CAP.

    Without builtins a value grows by one constructor at a time, which the
    fuel bounds; add and mul double and square it with one step each."""
    if not lists:
        return system_t()
    base = bar_rec()
    functions = {}
    for name in ("add", "mul", "lt", "len", "ext"):
        decl = base.func_decl(name)
        functions[name] = FuncDecl(decl.ty, replace(decl.impl, delta=_capped(decl.impl.delta)))
    constructors = {name: base.cons_decl(name) for name in ("zero", "succ", "nil", "cons")}
    return Signature("system_t_list+ext", base.datatypes, constructors, functions,
                     {"rec", "fold"})


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


# a type-two functional over system_t or over the list signature, with the
# flag that says which
FUNCTIONALS = st.booleans().flatmap(
    lambda lists: st.tuples(st.just(lists), closed_terms(FUNCTIONAL, lists=lists)))


@_GEN
@given(FUNCTIONALS, st.sampled_from(ORACLES))
def test_generated_functionals_agree_under_oracles(drawn, g):
    lists, term = drawn
    sig = with_oracle(_generated_signature(lists), g)
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


def assert_majorized(term, res):
    """The majorant is at least the machine's value, wherever majorizability
    interprets every symbol of the term (no list constructor, fold or ext)."""
    try:
        maj = majorant(term)
    except MissingInterpretation:
        return
    assert as_base(maj).value >= numeral_value(res.value), render_term(term)


@_GEN
@given(st.sampled_from([NAT, LIST, N2N, NAT2]).flatmap(
    lambda ty: st.tuples(st.just(ty), closed_terms(ty, lists=True))))
def test_generated_list_terms_analyses_agree(typed):
    ty, term = typed
    sig = _generated_signature(lists=True)
    res = _finished(sig, term)
    if res is None:
        return
    assert_costs_agree(sig, term, ty, res)
    if ty == NAT:
        assert_majorized(term, res)


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
@given(closed_terms(NAT, lists=False, arithmetic=True))
def test_generated_arithmetic_terms_analyses_agree(term):
    sig = _generated_signature(lists=True)
    res = _finished(sig, term)
    if res is None:
        return
    assert_costs_agree(sig, term, NAT, res)
    assert_majorized(term, res)


@_GEN
@given(FUNCTIONALS, st.sampled_from(ORACLES))
def test_generated_functionals_query_their_modulus_support_in_order(drawn, g):
    lists, term = drawn
    res = _finished(with_oracle(_generated_signature(lists), g), App(term, Func("alpha")))
    if res is None:
        return
    rep = modulus(term, g)
    # stronger than queries within the support: the same queries in order
    assert res.queries == rep.support, render_term(term)
    assert rep.predicted_value == numeral_value(res.value), render_term(term)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(FUNCTIONALS, st.sampled_from(ORACLES), st.integers(0, 99))
def test_generated_functionals_pass_verify_modulus(drawn, g, seed):
    lists, term = drawn
    if _finished(with_oracle(_generated_signature(lists), g),
                 App(term, Func("alpha"))) is None:
        return
    rep = verify_modulus(term, g, trials=5, seed=seed)
    assert rep.passed, (render_term(term), rep.details)


# ---------------------------------------------------------------- denote

# engine.denote resolves the translation's administrative redexes when it
# flattens a scope; reference_denote gives every node an entry. Under every
# instantiation both must give the same effect and value (and the same again
# for a function value applied to probes), read the same symbols as often,
# and raise the same class of error, at the least fuel the reference needs
# and at one less.

class _Reads(CountingDict):
    """A symbol table that also counts the reads that go through get."""

    def get(self, key, default=None):
        self.reads += 1
        self.by_symbol[key] += 1
        return super().get(key, default)


# (name, instantiation for a fuel, oracle for the term's translation)
INSTS = [
    ("cost_exact", cost_exact_inst, None),
    ("cost_bounded", cost_bounded_inst, None),
    ("majorizability", majorizability_inst, None),
    *((f"continuity-{g.__class__.__name__.lower()}",
       lambda fuel, g=g: continuity_inst(g, fuel), g) for g in ORACLES),
    # SHAPES effects everywhere, in the builtins and the recursors too
    ("shapes", lambda fuel: _exact_inst("shapes", SHAPES, fuel), None),
]


def _probe(ty, eps):
    """An argument of the lifted type ty: a constant where ty is a
    function."""
    if ty == NAT:
        return Base(2)
    if ty == LIST:
        return BaseList((1, 2))
    out = _probe(ty.cod, eps)
    return SFun(lambda a: SPair(eps, out))


def _denote_outcome(run, make, mt, ty, fuel):
    """What run (a denote) makes of mt, and of its value applied to probes
    when it is a function, with the symbol reads and the class of any
    error."""
    inst = make(fuel)
    inst = replace(inst, cons_interp=_Reads(inst.cons_interp),
                   func_interp=_Reads(inst.func_interp),
                   func_families=_Reads(inst.func_families))
    shown = []
    try:
        v = run(inst, {}, mt)
        shown.append(render_semval(v))
        while isinstance(ty, Arrow):
            v = as_fun(as_pair(v).snd).fn(_probe(ty.dom, inst.effect.eps))
            shown.append(render_semval(v))
            ty = ty.cod
    except WritError as err:
        shown.append(type(err).__name__)
    reads = tuple(dict(d.by_symbol) for d in
                  (inst.cons_interp, inst.func_interp, inst.func_families))
    return shown, reads


def _least_fuel(runs_dry, cap):
    """The least fuel from 1 to cap on which runs_dry is false, or cap."""
    low, high = 0, 1
    while high < cap and runs_dry(high):
        low, high = high, min(2 * high, cap)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if runs_dry(mid) else (low, mid)
    return high


def assert_denote_agrees(sig, term, cap=DEFAULT_FUEL.max_steps):
    """denote and reference_denote agree on term under every
    instantiation, at the least fuel up to cap on which the reference does
    not run dry, and at one less."""
    ty = typecheck(sig, {}, term)
    plain = translate(sig, {}, term)
    for name, make, g in INSTS:
        mt, mty = plain, ty
        if g is not None and ty == FUNCTIONAL:
            mt = translate(with_oracle(sig, g), {}, App(term, Func("alpha")))
            mty = NAT

        def ref(k):
            return _denote_outcome(reference_denote, make, mt, mty, Fuel(k))

        k = _least_fuel(lambda k: ref(k)[0][-1] == "FuelExhausted", cap)
        for k in {k, k - 1} - {0}:
            got = _denote_outcome(denote, make, mt, mty, Fuel(k))
            assert got == ref(k), (name, k, render_term(term))


@pytest.mark.parametrize("term", _corpus_terms())
def test_corpus_terms_denote_as_the_reference(term):
    assert_denote_agrees(signature_for(term), term)


DENOTE_FAMILIES = [
    *FAMILIES,
    *(f"rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) {n}" for n in (150, 400)),
    "fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) [" + ",".join("3" * 120) + "]",
    "len (fold[List] [] (fn n:Nat => fn p:List => cons p n) [" + ",".join("5" * 60) + "])",
    *(f"fn f:Nat->Nat => rec[Nat] 0 (fn n:Nat => fn p:Nat => succ (f p)) {n}"
      for n in (0, 3, 40)),
    f"{SEARCH} (fn f:Nat->Nat => 12) (fn x:Nat => 0) []",
]


@pytest.mark.parametrize("src", DENOTE_FAMILIES)
def test_bench_families_denote_as_the_reference(src):
    term = parse_term(src)
    assert_denote_agrees(signature_for(term), term)


@_GEN
@given(st.sampled_from([NAT, LIST, N2N, NAT2]).flatmap(
    lambda ty: st.tuples(st.just(ty), closed_terms(ty, lists=True))))
def test_generated_list_terms_denote_as_the_reference(typed):
    _, term = typed
    sig = _generated_signature(lists=True)
    if _finished(sig, term) is not None:
        assert_denote_agrees(sig, term, _GEN_FUEL.max_steps)


@_GEN
@given(st.sampled_from([NAT, N2N, FUNCTIONAL]).flatmap(
    lambda ty: closed_terms(ty, lists=False, arithmetic=True)))
def test_generated_t_terms_denote_as_the_reference(term):
    sig = _generated_signature(lists=True)
    if _finished(sig, term) is not None:
        assert_denote_agrees(sig, term, _GEN_FUEL.max_steps)


# the flattener's rules at their edges: a partial application that escapes
# with a captured binder, and an inlined body whose binder is shadowed; each
# also against the machine's steps and value
DENOTE_EDGES = [
    "(fn f:Nat->Nat => f 3) (add 2)",
    "(fn g:Nat->Nat->Nat => g 1 (g 2 3)) add",
    "fold[Nat] 0 add [1,2,3]",
    "(fn x:Nat => (fn x:Nat => succ x) 3) 5",
    # the step escapes into the recursor with k bound to 5, inside a closure
    # whose own k is whatever it is applied to
    "fn k:Nat => rec[Nat] 0 ((fn k:Nat => fn n:Nat => fn p:Nat => add k p) 5) 3",
    "(fn k:Nat => rec[Nat] 0 ((fn k:Nat => fn n:Nat => fn p:Nat => add k p) 5) 3) 2",
    "fn x:Nat => (fn x:Nat => fn y:Nat => x) 3",
]


@pytest.mark.parametrize("src", DENOTE_EDGES)
def test_denote_edge_cases(src):
    term = parse_term(src)
    sig = signature_for(term)
    assert_denote_agrees(sig, term)
    res = evaluate(sig, term)
    report = exact_cost(term, sig)
    assert report.predicted == res.steps
    if typecheck(sig, {}, term) == NAT:
        assert report.semantic == Base(numeral_value(res.value))
