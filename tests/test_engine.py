"""Semantic domains, the metalanguage interpreter, and the plain semantics."""

import gc
import io
import re
import weakref
import sys
import tokenize
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from reference_denote import reference_denote
from reference_pure import pure_denote

from writ import (
    COST,
    QUERIES,
    SEARCH_TEMPLATE,
    TRIVIAL,
    Base,
    BaseList,
    Com,
    Constant,
    EffectTriple,
    Fuel,
    GAMMA,
    IOTA,
    Inc,
    FuelExhausted,
    Identity,
    MApp,
    MData,
    MetaTypeMismatch,
    MissingInterpretation,
    MLam,
    MLit,
    MPair,
    MVar,
    ProjL,
    ProjR,
    WritError,
    SFun,
    SPair,
    ShapeMismatch,
    as_base,
    as_fun,
    as_list,
    as_pair,
    compose,
    continuity_inst,
    cost_bounded_inst,
    cost_exact_inst,
    denote,
    evaluate,
    exact_cost,
    majorant,
    majorizability_inst,
    numeral,
    pair_parts,
    parse_term,
    render_semval,
    signature_for,
    spair,
    system_t,
    system_t_list,
    translate,
    verify_file,
    with_oracle,
)
from writ import engine
from writ.engine import (
    _APP, _COM, _INC, _LAM, _LEFT, _PAIR, _RIGHT, EXACT_CONS, EXACT_NAT_CONS, _flatten, _literal,
)
from writ.syntax import Lit, literal_spine

SEARCH = f"({SEARCH_TEMPLATE})"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# a binder name that would end a string and run code if it were ever
# spliced into a compiled scope's source
EVIL = "x'); import os #"


class CountingDict(dict):
    """A symbol table that counts its reads, in total and by symbol."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0
        self.by_symbol = Counter()

    def __getitem__(self, key):
        self.reads += 1
        self.by_symbol[key] += 1
        return super().__getitem__(key)


def counting_cost_inst(fuel=Fuel()):
    base = cost_exact_inst(fuel)
    return replace(base, cons_interp=CountingDict(base.cons_interp))


def test_effect_triples():
    assert COST.eps == 0
    assert COST.inc(4) == 5
    assert COST.com(1, 2, 3) == 6
    assert QUERIES.eps == ()
    assert QUERIES.inc((7,)) == (7,)
    assert QUERIES.com((1,), (), (2, 3)) == (1, 2, 3)
    assert TRIVIAL.inc(None) is None
    assert TRIVIAL.com(None, None, None) is None


def test_a_deeply_nested_query_log_reads_out_in_order():
    n = 100_000
    left = right = ()
    for k in range(n):
        left = QUERIES.com(left, (k,), ())
        right = QUERIES.com((n - 1 - k,), right, ())
    flat = tuple(range(n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        assert tuple(left) == flat == tuple(right)
        assert left == right == flat and hash(left) == hash(flat)
        assert render_semval(left) == list(flat)
        del left, right
    finally:
        sys.setrecursionlimit(limit)


def test_query_logs_combine_without_copying():
    a, b = (1, 2), (3,)
    assert QUERIES.com((), a, ()) is a
    assert QUERIES.com((), (), ()) == ()
    log = QUERIES.com(a, (), b)
    assert log.parts == (a, b) and log == (1, 2, 3) and log != (1, 2)
    assert QUERIES.com(log, b, log).parts == (log, b, log)
    assert repr(log) == "(1, 2, 3)" and {log: 0}[(1, 2, 3)] == 0


def test_pair_helpers():
    p = spair(3, Base(9))
    assert p == SPair(3, Base(9))
    assert pair_parts(p) == (3, Base(9))


def test_value_semantics():
    assert Base(3) == Base(3) and hash(Base(3)) == hash(Base(3))
    assert 3 != Base(3)
    assert spair(1, Base(2)) == SPair(1, Base(2))
    assert hash(spair(1, Base(2))) == hash(SPair(1, Base(2)))
    f = SFun(lambda v: v)
    assert f == f and f != SFun(f.fn)
    # slotted and not frozen, which would cost a __setattr__ call per field
    # on every build
    for v in (Base(3), SPair(1, Base(2)), f):
        assert not hasattr(v, "__dict__")
        assert type(v).__setattr__ is object.__setattr__


def test_shape_guards():
    with pytest.raises(ShapeMismatch):
        as_base(BaseList(()))
    with pytest.raises(ShapeMismatch):
        as_fun(Base(1))
    with pytest.raises(ShapeMismatch):
        as_list(Base(1))
    with pytest.raises(ShapeMismatch):
        as_pair(Base(1))
    with pytest.raises(ShapeMismatch):
        pair_parts(Base(1))


@pytest.mark.parametrize("make, name", [
    (cost_exact_inst, "int"), (lambda: continuity_inst(Identity()), "tuple"),
])
def test_an_effect_applied_as_a_function_names_its_carrier(make, name):
    # the effect of a literal, and a one-step extension of the empty effect,
    # each read where a compiled scope applies a function
    for effect in (ProjL(MLit(0)), Inc(IOTA)):
        with pytest.raises(ShapeMismatch) as err:
            denote(make(), {}, MApp(effect, MLit(0)))
        assert str(err.value) == f"expected a function, got {name}"


@pytest.mark.parametrize("read", [
    lambda v: Com(v, IOTA, IOTA), lambda v: Com(IOTA, IOTA, v), lambda v: Inc(v),
])
def test_a_value_in_an_effect_slot_of_a_compiled_scope_fails_its_guard(read):
    with pytest.raises(ShapeMismatch) as err:
        denote(cost_exact_inst(), {}, read(ProjR(MLit(0))))
    assert str(err.value) == "expected a effect, got Base"


def test_render_semval():
    assert render_semval(Base(5)) == 5
    assert render_semval(BaseList((1, 2))) == [1, 2]
    assert render_semval(4) == 4
    assert render_semval((2, 2)) == [2, 2]
    assert render_semval(None) is None
    assert render_semval(spair(1, Base(2))) == [1, 2]
    assert render_semval(SFun(lambda v: v)) == "<function>"


def test_instantiation_symbol_lookup():
    inst = cost_exact_inst()
    assert inst.func("rec[Nat]") is inst.func("rec[Nat->Nat]")
    assert inst.func("add") is not None
    with pytest.raises(MissingInterpretation):
        inst.func("mystery")
    with pytest.raises(MissingInterpretation):
        inst.cons("mystery")


def test_compose_combines_three_effects():
    inst = cost_exact_inst()
    f = spair(2, SFun(lambda a: spair(3, Base(as_base(a).value + 1))))
    a = spair(4, Base(5))
    assert compose(inst, f, a) == spair(9, Base(6))


def test_denote_values_have_empty_effect():
    inst = cost_exact_inst()
    sig = system_t()
    out = denote(inst, {}, translate(sig, {}, numeral(3)))
    assert pair_parts(out) == (0, Base(3))


def test_denote_environment_supplies_free_variables():
    from writ import MVar, MPair, IOTA

    inst = cost_exact_inst()
    mt = MPair(IOTA, MVar("x"))
    assert denote(inst, {"x": Base(7)}, mt) == spair(0, Base(7))


def test_denote_single_beta():
    inst = cost_exact_inst()
    sig = system_t()
    mt = translate(sig, {}, parse_term("(fn x:Nat => x) 0"))
    assert pair_parts(denote(inst, {}, mt)) == (1, Base(0))


def test_denote_rec_trace():
    inst = cost_exact_inst()
    sig = system_t()
    mt = translate(sig, {}, parse_term("rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3"))
    assert pair_parts(denote(inst, {}, mt)) == (10, Base(3))


def test_shared_nodes_interpret_once():
    """Interpretation is linear on translation DAGs.

    A numeral's constructor spine translates to one application per
    successor; without sharing the walk would double per layer and so never
    finish at this size.
    """
    inst = cost_exact_inst()
    sig = system_t()
    mt = translate(sig, {}, literal_spine(Lit(400)))
    assert pair_parts(denote(inst, {}, mt)) == (0, Base(400))


# an effect algebra that records the shape of every combination
SHAPES = EffectTriple("", lambda c: c + "+", lambda a, b, c: f"<{a}|{b}|{c}>")


def _denote_or_missing(inst, mt):
    try:
        return denote(inst, {}, mt)
    except MissingInterpretation as err:
        return str(err)


@pytest.mark.parametrize("value", [0, 3, (), (0,), (2, 0, 1)])
def test_literal_leaf_denotes_as_its_spine_translation(value):
    spine = translate(system_t_list(), {}, literal_spine(Lit(value)))
    for inst in (cost_exact_inst(), replace(cost_exact_inst(), effect=SHAPES),
                 cost_bounded_inst(), majorizability_inst(), continuity_inst(Identity())):
        assert _denote_or_missing(inst, MLit(value)) == _denote_or_missing(inst, spine)


def _literal_or_missing(inst, value):
    try:
        return _literal(inst, value)
    except MissingInterpretation as err:
        return str(err)


@pytest.mark.parametrize("value", [0, 1, 7, 1100, (), (0,), (3, 0, 5)])
@pytest.mark.parametrize("make", [
    cost_exact_inst, majorizability_inst, lambda: continuity_inst(Identity()),
    # an effect triple whose empty effects do not combine to the empty one
    lambda: replace(cost_exact_inst(), effect=SHAPES),
], ids=["cost_exact", "majorizability", "continuity", "shapes"])
def test_literal_closed_form_matches_the_general_fold(make, value):
    inst = make()
    assert inst.cons_interp is EXACT_CONS or inst.cons_interp is EXACT_NAT_CONS
    # a plain copy of the table is not the exact table, so it runs the fold
    plain = replace(inst, cons_interp=dict(inst.cons_interp))
    assert _literal_or_missing(inst, value) == _literal_or_missing(plain, value)


def test_denote_counts_symbol_lookups_once_per_shared_node():
    inst = counting_cost_inst()
    sig = system_t()
    mt = translate(sig, {}, parse_term("(fn x:Nat => succ x) 0"))
    denote(inst, {}, mt)
    # one zero plus one succ; sharing collapses the duplicate projections
    assert inst.cons_interp.reads == 2


def test_closed_pair_in_a_lambda_body_runs_once_per_denote():
    inst = counting_cost_inst()
    t = parse_term("(fn h:Nat->Nat => add (h 0) (h 1)) (fn x:Nat => 5)")
    report = exact_cost(t, inst=inst)
    assert (report.predicted, report.semantic) == (4, Base(10))
    # the body's 5 reads succ once per successor, however often h is
    # applied, plus once for the 1; running it per call read it 11 times
    assert inst.cons_interp.by_symbol["succ"] == 6


@pytest.mark.parametrize("k, reads", [(20, 45), (40, 85)])
def test_search_reads_its_constructors_linearly(k, reads):
    # the functional's numeral k is a closed pair, run once and not once per
    # search round; per round, the reads grew with k and were 506 and 1,806
    inst = counting_cost_inst()
    t = parse_term(f"{SEARCH} (fn f:Nat->Nat => {k}) (fn x:Nat => 0) []")
    report = exact_cost(t, inst=inst)
    assert (report.predicted, report.semantic) == (10 * k + 19, Base(k + 1))
    assert inst.cons_interp.reads == reads


def test_closed_pair_adds_its_queries_at_every_use():
    sig = with_oracle(system_t(), Identity())
    t = parse_term("(fn h:Nat->Nat => h (h 0)) (fn x:Nat => alpha 3)")
    out = denote(continuity_inst(Identity()), {}, translate(sig, {}, t))
    assert pair_parts(out) == ((3, 3), Base(3))


def test_closed_pair_that_runs_out_of_fuel_raises_at_every_use():
    inst = cost_exact_inst(Fuel(3))
    t = parse_term("fn x:Nat => rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 5")
    _, f = pair_parts(denote(inst, {}, translate(system_t(), {}, t)))
    for arg in (0, 1, 0):
        with pytest.raises(FuelExhausted):
            as_fun(f).fn(Base(arg))


def test_pure_denote_ground_values():
    assert pure_denote({}, numeral(6)) == Base(6)
    assert pure_denote({}, parse_term("[4,5]")) == BaseList((4, 5))
    assert pure_denote({}, parse_term("add 2 3")) == Base(5)
    assert pure_denote({}, parse_term("mul 3 4")) == Base(12)
    assert pure_denote({}, parse_term("lt 5 2")) == Base(1)
    assert pure_denote({}, parse_term("len [7,7,7]")) == Base(3)
    assert pure_denote({}, parse_term("ext [4,5] 1")) == Base(5)
    assert pure_denote({}, parse_term("ext [4,5] 9")) == Base(0)


def test_pure_denote_recursors():
    assert pure_denote({}, parse_term("rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3")) == Base(3)
    assert pure_denote(
        {}, parse_term("fold[Nat] 0 (fn n:Nat => fn p:Nat => succ p) [7,7]")
    ) == Base(2)
    # the recursor hands the step the stage index, counting up from zero
    assert pure_denote(
        {}, parse_term("rec[Nat] 0 (fn n:Nat => fn p:Nat => add n p) 4")
    ) == Base(6)


def test_pure_denote_search():
    src = (
        "bar (fn f:Nat->Nat => 0) (fn a:List => len a) "
        "(fn b:List => fn p:Nat->Nat => p 0) []"
    )
    assert pure_denote({}, parse_term(src)) == Base(1)


def test_pure_denote_lambdas_are_host_functions():
    f = pure_denote({}, parse_term("fn x:Nat => succ x"))
    assert as_fun(f).fn(Base(4)) == Base(5)
    functional = pure_denote({}, parse_term("fn f:Nat->Nat => f (f 2)"))
    doubler = SFun(lambda n: Base(as_base(n).value * 2))
    assert as_fun(functional).fn(doubler) == Base(8)


def test_pure_denote_oracle():
    t = parse_term("alpha 3")
    assert pure_denote({}, t, oracle=Identity()) == Base(3)
    assert pure_denote({}, t, oracle=Constant(9)) == Base(9)
    with pytest.raises(MissingInterpretation):
        pure_denote({}, t)


def test_pure_denote_environment():
    assert pure_denote({"x": Base(2)}, parse_term("succ x")) == Base(3)


def test_pure_denote_search_depth_guard():
    # the functional's answer dwarfs any reachable segment length, so the
    # search cannot settle and must trip the guard instead of recursing away
    src = (
        "bar (fn f:Nat->Nat => mul 100 100) (fn a:List => 0) "
        "(fn b:List => fn p:Nat->Nat => p 0) []"
    )
    with pytest.raises(FuelExhausted):
        pure_denote({}, parse_term(src), search_depth=50)


def test_exact_cons_extends_the_list_in_place():
    xs = BaseList([4, 5])
    ys = as_fun(as_fun(EXACT_CONS["cons"]).fn(xs)).fn(Base(6))
    assert ys == BaseList([4, 5, 6]) and ys.buf is xs.buf


def test_building_a_list_leaves_the_shared_empty_list_empty():
    t = parse_term("fold[List] [] (fn n:Nat => fn p:List => cons p n) [5,6,7]")
    assert exact_cost(t).semantic == BaseList([5, 6, 7])
    assert pure_denote({}, t) == BaseList([5, 6, 7])
    assert EXACT_CONS["nil"].buf == [] and len(EXACT_CONS["nil"]) == 0
    assert exact_cost(parse_term("cons [] 8")).semantic == BaseList([8])


# ---------------------------------------------------------------- flattening

NAT_TY = MData("Nat")


def _agrees_with_reference(mt, env=None):
    """denote and the unreduced reference give the same outcome on mt, an
    error with the same text; the value, or the error's class."""
    def outcome(run):
        try:
            return render_semval(run(cost_exact_inst(), dict(env or {}), mt))
        except WritError as err:
            return type(err).__name__, str(err)
    got = outcome(denote)
    assert got == outcome(reference_denote)
    return got[0] if type(got) is tuple else got


@pytest.mark.parametrize("mt, want", [
    (ProjR(MPair(IOTA, MPair(IOTA, MVar("x")))), [0, 7]),
    (ProjL(MPair(MPair(Inc(IOTA), MLit(2)), IOTA)), [1, [0, 2]]),
    (MVar("x"), 7),
    (MLit(3), [0, 3]),
    (ProjR(MApp(ProjR(MPair(IOTA, MLam("y", NAT_TY, MPair(IOTA, MVar("y")), frozenset()))),
                MVar("x"))), 7),
    (ProjR(MApp(ProjR(MPair(IOTA, MLam(EVIL, NAT_TY, MPair(IOTA, MVar(EVIL)), frozenset()))),
                MLit(4))), [0, 4]),
])
def test_hand_built_roots(mt, want):
    assert _agrees_with_reference(mt, {"x": Base(7)}) == want


@pytest.mark.parametrize("mt", [
    ProjR(IOTA),
    Inc(MLit(1)),
    MApp(IOTA, IOTA),
    Com(IOTA, MLit(1), IOTA),
    ProjL(MLam("y", NAT_TY, IOTA, frozenset())),
])
def test_ill_shaped_roots_raise_the_reference_mismatch(mt):
    assert _agrees_with_reference(mt) == "ShapeMismatch"


def test_unbound_meta_variable_still_raises():
    inlined = MApp(ProjR(MPair(IOTA, MLam("y", NAT_TY, MPair(IOTA, MVar("z")), frozenset({"z"})))),
                   MLit(1))
    for mt in (MVar("z"), inlined, ProjR(inlined)):
        assert _agrees_with_reference(mt) == "MetaTypeMismatch"
        with pytest.raises(MetaTypeMismatch):
            denote(cost_exact_inst(), {}, mt)


def test_unknown_node_in_an_inlined_body_is_reported_before_the_scope_runs():
    # the reference meets the bogus node only when the lambda is applied,
    # after it has read the constructor of the literal argument; denote
    # finds it when it flattens the top level, before any read
    inst = counting_cost_inst()
    bogus = MApp(ProjR(MPair(IOTA, MLam("y", NAT_TY, object(), frozenset()))), ProjR(MLit(1)))
    with pytest.raises(MetaTypeMismatch):
        denote(inst, {}, bogus)
    assert inst.cons_interp.reads == 0
    with pytest.raises(MetaTypeMismatch):
        reference_denote(inst, {}, bogus)
    assert inst.cons_interp.reads == 2


def _chain(depth, wrap):
    mt = MPair(IOTA, MLit(1))
    for i in range(depth):
        mt = wrap(mt, i)
    return mt


@pytest.mark.parametrize("wrap", [
    lambda mt, i: ProjR(MPair(IOTA, mt)),
    # nested in the lambda's body, so each redex runs inside the one before
    lambda mt, i: MApp(ProjR(MPair(IOTA, MLam(f"x{i % 3}", NAT_TY, mt, frozenset()))), MLit(0)),
    # nested in the argument
    lambda mt, i: MApp(ProjR(MPair(IOTA, MLam("x", GAMMA, MPair(MVar("x"), MLit(0)), frozenset()))),
                       ProjL(mt)),
], ids=["projections", "redexes-in-bodies", "redexes-in-arguments"])
def test_deep_chains_need_no_host_recursion(wrap):
    mt = _chain(5000, wrap)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = denote(cost_exact_inst(), {}, mt)
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(out, SPair)


def test_function_valued_rec_calls_each_closure_in_one_host_frame():
    # the recursor's value is a chain of 900 closures, each calling the one
    # before; at two host frames a call, both analyses ran out of stack
    # from a chain of 500
    t = parse_term("rec[Nat->Nat] (fn x:Nat => x) "
                   "(fn n:Nat => fn p:Nat->Nat => fn x:Nat => p x) 900 0")
    steps = evaluate(signature_for(t), t).steps
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        report, bound = exact_cost(t), majorant(t)
    finally:
        sys.setrecursionlimit(limit)
    assert (report.predicted, report.semantic) == (steps, Base(0))
    assert bound == Base(0)


def _outcome(run, mt, env, calls):
    """What run (denote or the reference) makes of mt under env, then what
    each of calls makes of the values so far, rendered, or the class and
    text of the error that stops them; with the constructor reads."""
    inst = counting_cost_inst()
    values, shown = [], []
    try:
        values.append(run(inst, dict(env), mt))
        shown.append(render_semval(values[-1]))
        for call in calls:
            values.append(call(values))
            shown.append(render_semval(values[-1]))
    except WritError as err:
        shown.append((type(err).__name__, str(err)))
    return shown, dict(inst.cons_interp.by_symbol)


def _agrees_through_calls(mt, env=None, calls=()):
    got = _outcome(denote, mt, env or {}, calls)
    assert got == _outcome(reference_denote, mt, env or {}, calls)
    return got[0]


def _apply(*args):
    """Calls that apply the value so far, an effect-paired function, to
    each of args in turn."""
    return [lambda vs, a=a: as_fun(as_pair(vs[-1]).snd).fn(a) for a in args]


@pytest.mark.parametrize("src, args, want", [
    # the escaping closure reads x from the inlined body around it, and
    # binds an x of its own inside
    ("(fn x:Nat => fn y:Nat => add x ((fn x:Nat => mul x y) 7)) 3", [Base(2)], 17),
    ("(fn x:Nat => fn y:Nat => fn x:Nat => add x y) 3", [Base(2), Base(5)], 7),
    ("(fn x:Nat => fn x:Nat => succ x) 3", [Base(2)], 3),
    # closures that capture the binders of inlined bodies, at two depths
    ("(fn k:Nat => fn n:Nat => fn p:Nat => add k (mul n p)) 5", [Base(2), Base(3)], 11),
    ("(fn k:Nat => (fn j:Nat => fn n:Nat => add j (add k n)) 4) 5", [Base(2)], 11),
])
def test_closures_take_their_captures_as_the_reference_scopes_do(src, args, want):
    term = parse_term(src)
    mt = translate(signature_for(term), {}, term)
    shown = _agrees_through_calls(mt, calls=_apply(*args))
    assert shown[-1][1] == want


def test_a_closure_body_reads_a_name_no_binder_binds_from_the_environment():
    inner = MLam("z", NAT_TY, MPair(IOTA, MPair(MVar("x"), MVar("z"))), frozenset({"x"}))
    mt = MPair(IOTA, MLam("y", NAT_TY, MPair(IOTA, MPair(MVar("x"), inner)), frozenset({"x"})))
    calls = [*_apply(Base(2)), lambda vs: as_fun(vs[-1].snd.snd).fn(Base(3))]
    shown = _agrees_through_calls(mt, {"x": Base(7)}, calls)
    assert shown[1:] == [[0, [7, "<function>"]], [0, [7, 3]]]


def test_an_unbound_name_reached_only_through_a_call_raises_at_the_read():
    # the body reads the constructors of its literal before the name; the
    # one lambda is built once where z is bound and once where it is not
    lam = MLam("y", NAT_TY, MPair(ProjL(MLit(2)), MVar("z")), frozenset({"z"}))
    bound = MApp(ProjR(MPair(IOTA, MLam("z", NAT_TY, MPair(IOTA, lam), frozenset()))), MLit(1))
    mt = MPair(bound, MPair(IOTA, lam))
    calls = [lambda vs: as_fun(vs[0].fst.snd).fn(Base(0)),
             lambda vs: as_fun(vs[0].snd.snd).fn(Base(0))]
    shown = _agrees_through_calls(mt, calls=calls)
    assert shown[1] == [0, [0, 1]]
    assert shown[2] == ("MetaTypeMismatch",
                        "unbound meta variable 'z' at interpretation time")


def test_a_malformed_closure_body_raises_at_each_call_and_not_before():
    mt = MPair(IOTA, MLam("y", NAT_TY, object(), frozenset()))
    shown = _agrees_through_calls(mt, calls=_apply(Base(0)))
    assert shown[0] == [0, "<function>"] and shown[1][0] == "MetaTypeMismatch"
    # a second denote of the same term, which keeps no failed scope, too
    for _ in range(2):
        f = as_pair(denote(cost_exact_inst(), {}, mt)).snd
        for _ in range(2):
            with pytest.raises(MetaTypeMismatch):
                as_fun(f).fn(Base(0))


def test_a_symbol_body_flattens_to_its_redex_free_core():
    # unresolved, the body of fn p:Nat => succ p is 18 entries, and it calls
    # succ's eta-expanded lambda, whose body is 5 more; resolved, it is 7
    # entries, and the pairs, their projections and the call are gone
    lam = translate(system_t(), {}, parse_term("fn p:Nat => succ p")).right
    code, root = _flatten(lam.body)
    ops = [entry[0] for entry in code]
    assert ops.count(_PAIR) == 1 and code[root][0] == _PAIR
    assert _LAM not in ops
    assert not [e for e in code if e[0] in (_LEFT, _RIGHT) and code[e[1]][0] == _PAIR]
    assert ops.count(_APP) == 1 and ops.count(_COM) == 1 and ops.count(_INC) == 1
    assert len(code) == 7


# ---------------------------------------------------------------- compiling

SCOPED = "rec[Nat] 1 (fn n:Nat => fn p:Nat => add p (mul n ((fn x:Nat => succ x) p))) 4"


def test_a_meta_term_is_flattened_once_for_every_instantiation(monkeypatch):
    flattened = []
    flatten = engine._flatten

    def counting(root, params=()):
        flattened.append(params)
        return flatten(root, params)

    def fresh():
        term = parse_term(SCOPED)
        return translate(signature_for(term), {}, term)

    monkeypatch.setattr(engine, "_flatten", counting)
    mt = fresh()
    insts = [cost_exact_inst(), majorizability_inst(), continuity_inst(Identity())]
    values = [render_semval(denote(insts[0], {}, mt))]
    made = len(flattened)
    assert made > 1  # the top level and the bodies of the step
    values += [render_semval(denote(inst, {}, mt)) for inst in insts[1:]]
    assert len(flattened) == made  # the second and third denote flatten nothing
    assert values == [render_semval(denote(inst, {}, fresh())) for inst in insts]
    assert values[1] == [None, 47]


def test_the_scopes_of_a_meta_term_leave_with_it():
    term = parse_term(SCOPED)
    mt = translate(signature_for(term), {}, term)
    before = set(engine._SCOPES)
    value = denote(cost_exact_inst(), {}, mt)
    kept = set(engine._SCOPES) - before
    assert id(mt) in kept and len(kept) > 1
    alive = weakref.ref(mt)
    del mt, term, value
    gc.collect()
    assert alive() is None
    assert not kept & set(engine._SCOPES)


def test_compiled_scopes_are_shared_across_names_and_sizes():
    exact_cost(parse_term("rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 5"))
    before = engine._factory.cache_info()
    report = exact_cost(parse_term("rec[Nat] 0 (fn m:Nat => fn q:Nat => succ q) 900"))
    assert report.semantic == Base(900)
    after = engine._factory.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_the_compiled_scope_cache_stays_at_its_size():
    size = engine._factory.cache_info().maxsize
    for k in range(size + 8):
        mt = IOTA
        for _ in range(k):
            mt = Inc(mt)
        assert render_semval(denote(cost_exact_inst(), {}, mt)) == k
    assert engine._factory.cache_info().currsize == size


FACTORY = "def factory(K, iota, com, inc, cons, func, literals, literal, body, env):"
# the names a compiled scope's body may read besides v<n> and K[<n>]
_SOURCE_NAMES = {
    "def", "return", "if", "is", "not", "in", "else", "or", "None", "type", "id",  # Python's own
    "make", "run",  # the maker the factory returns and the function it makes
    "iota", "com", "inc", "cons", "func", "literals", "literal", "body", "env",
    *engine._HELPERS, "get", "fn", "fst", "snd",
}
_SOURCE_OPS = {"(", ")", "[", "]", "{", "}", ",", ".", ":", "=", "**"}


def _check_source(source):
    header, body = source.split("\n", 1)
    assert header == FACTORY
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(body).readline)
              if t.type not in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER)]
    for i, tok in enumerate(tokens):
        if tok.string == "K":
            assert [t.string for t in tokens[i + 1:i + 4:2]] == ["[", "]"], tok
            assert tokens[i + 2].type == tokenize.NUMBER, tok
        elif tok.type == tokenize.NAME:
            assert tok.string in _SOURCE_NAMES or re.fullmatch(r"v\d+", tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert tok.string.isdigit(), tok
        else:
            assert tok.type == tokenize.OP and tok.string in _SOURCE_OPS, tok


@pytest.fixture
def sources(monkeypatch):
    """Every scope source denote compiles while the test runs."""
    seen = []
    compile_scope = engine._compile

    def recording(code, root):
        source, leaves = compile_scope(code, root)
        seen.append(source)
        return source, leaves

    monkeypatch.setattr(engine, "_compile", recording)
    return seen


def test_compiled_sources_hold_no_term_text(sources):
    for path in sorted(CORPUS.glob("*.wt")):
        assert all(r.passed for r in verify_file(path, trials=2)), path.name
    # a free variable, and a capture that a closure's body reads, named EVIL
    assert render_semval(denote(cost_exact_inst(), {EVIL: Base(4)},
                                MPair(IOTA, MVar(EVIL)))) == [0, 4]
    captures = MApp(ProjR(MPair(IOTA, MLam(EVIL, NAT_TY, MLam("z", NAT_TY, MPair(
        IOTA, MVar(EVIL)), frozenset({EVIL})), frozenset()))), MLit(4))
    f = denote(cost_exact_inst(), {}, captures)
    assert render_semval(as_fun(f).fn(Base(0))) == [0, [0, 4]]
    assert len(sources) > 100
    for source in sources:
        assert EVIL not in source
        _check_source(source)


def test_a_closure_captures_only_the_names_its_body_reads(sources):
    # fn x0 => fn x1 => ... => x0: every inner lambda reads x0 alone, so
    # each closure's maker takes one captured value, however deep the nest;
    # capturing every bound name would make the nest quadratic
    depth = 200
    src = "".join(f"fn x{i}:Nat => " for i in range(depth)) + "x0"
    term = parse_term(src)
    v = denote(cost_exact_inst(), {}, translate(signature_for(term), {}, term))
    for k in range(depth):
        v = as_fun(as_pair(v).snd).fn(Base(k + 7))
    assert v == SPair(1, Base(7))
    makes = [source.split("\n")[1] for source in sources]
    assert len(makes) == depth + 1  # the top level and each body
    assert all(line.startswith(" def make(") for line in makes)
    captures = [len(re.findall(r"v\d+", line)) for line in makes]
    assert max(captures) == 1 and captures.count(1) == depth - 1
