"""The effect-pairing translation and the metalanguage type system."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from term_strategies import FUNCTIONAL, N2N, closed_terms

from writ import (
    GAMMA,
    IOTA,
    NAT,
    Arrow,
    BCons,
    BFunc,
    Com,
    Inc,
    MApp,
    MData,
    MetaTypeMismatch,
    MLam,
    MLit,
    MPair,
    MVar,
    ProjL,
    ProjR,
    Prod,
    MArrow,
    Var,
    bar_rec,
    bcons_type,
    bfunc_type,
    lift,
    meta_typecheck,
    numeral,
    parse_term,
    render_meta,
    render_meta_type,
    signature_for,
    system_t,
    system_t_list,
    translate,
    typecheck,
)
from writ.meta import children
from writ.syntax import LIST, Cons, Lam, Lit, literal_spine

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def dag_size(mt):
    """Distinct metalanguage term nodes reachable from mt."""
    seen = set()
    todo = [mt]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo += children(node)
    return len(seen)


def _parts(app_node):
    """The function and argument translations of a translated application."""
    return app_node.left.first.pair, app_node.left.second.pair


def _render_app(f, a):
    call = f"({f}.r {a}.r)"
    return f"(com({f}.l, {a}.l, {call}.l), {call}.r)"


def test_lift_shapes():
    assert lift(NAT) == MData("Nat")
    assert lift(LIST) == MData("List")
    assert lift(Arrow(NAT, NAT)) == MArrow(MData("Nat"), Prod(GAMMA, MData("Nat")))
    t2 = Arrow(Arrow(NAT, NAT), NAT)
    assert lift(t2) == MArrow(lift(Arrow(NAT, NAT)), Prod(GAMMA, MData("Nat")))


def test_constructor_images_are_effect_free():
    sig = system_t_list()
    assert bcons_type(sig, "zero") == MData("Nat")
    assert bcons_type(sig, "succ") == MArrow(MData("Nat"), MData("Nat"))
    assert bcons_type(sig, "cons") == MArrow(
        MData("List"), MArrow(MData("Nat"), MData("List"))
    )


def test_function_images_pair_only_the_final_result():
    sig = system_t_list()
    assert bfunc_type(sig, "add") == MArrow(
        MData("Nat"), MArrow(MData("Nat"), Prod(GAMMA, MData("Nat")))
    )
    step = lift(Arrow(NAT, Arrow(NAT, NAT)))
    assert bfunc_type(sig, "rec[Nat]") == MArrow(
        MData("Nat"), MArrow(step, MArrow(MData("Nat"), Prod(GAMMA, MData("Nat"))))
    )


def test_translate_zero_is_the_smallest_pair():
    assert translate(system_t(), {}, numeral(0)) == MLit(0)
    # a bare constructor built by hand keeps its symbol's translation
    assert translate(system_t(), {}, Cons("zero")) == MPair(IOTA, BCons("zero"))


def test_translate_bare_constructor_wraps_each_binder():
    mt = translate(system_t(), {}, parse_term("succ"))
    assert mt == MPair(
        IOTA,
        MLam("x1", MData("Nat"), MPair(IOTA, MApp(BCons("succ"), MVar("x1"))), frozenset()),
    )


def test_translate_variable_and_identity_lambda():
    assert translate(system_t(), {"x": NAT}, Var("x")) == MPair(IOTA, MVar("x"))
    mt = translate(system_t(), {}, Lam("x", NAT, Var("x")))
    inner = MPair(IOTA, MVar("x"))
    assert mt == MPair(
        IOTA,
        MLam("x", MData("Nat"), MPair(Inc(ProjL(inner)), ProjR(inner)), frozenset()),
    )


def test_translate_application_shares_the_call_node():
    mt = translate(system_t(), {"x": NAT}, parse_term("succ x"))
    assert isinstance(mt, MPair)
    eff, val = mt.left, mt.right
    assert isinstance(eff, Com)
    assert isinstance(eff.third, ProjL)
    assert isinstance(val, ProjR)
    # both projections must hit the same object, not merely equal copies
    assert eff.third.pair is val.pair
    assert isinstance(val.pair, MApp)


def test_translate_makes_each_literal_one_leaf():
    mt = translate(system_t_list(), {}, parse_term("add (succ 0) (succ 0)"))
    add_a, b = _parts(mt)
    add, a = _parts(add_a)
    assert a == b == MLit(1)
    assert add.right.body.right.body == MApp(MApp(BFunc("add"), MVar("x1")), MVar("x2"))
    assert translate(system_t_list(), {}, parse_term("[2,0]")) == MLit((2, 0))


def test_render_meta_prints_shared_symbols_in_full():
    mt = translate(system_t_list(), {}, parse_term("add (succ 0) (succ 0)"))
    add = "(iota, fn x1:Nat => (iota, fn x2:Nat => (add' x1) x2))"
    succ_0 = _render_app("(iota, fn x1:Nat => (iota, succ' x1))", "(iota, zero')")
    assert render_meta(mt) == _render_app(_render_app(add, succ_0), succ_0)


def test_literal_translation_is_one_node_at_any_size():
    assert dag_size(translate(system_t(), {}, numeral(1000))) == 1
    assert dag_size(translate(system_t_list(), {}, parse_term("[1000,7]"))) == 1


@pytest.mark.parametrize("value", [0, 1, 4, (), (0,), (2, 0, 1)])
def test_literal_leaf_renders_as_its_spine_translation(value):
    sig = system_t_list()
    spine = translate(sig, {}, literal_spine(Lit(value)))
    assert render_meta(MLit(value)) == render_meta(spine)
    assert meta_typecheck(sig, {}, MLit(value)) == meta_typecheck(sig, {}, spine)


def test_children_are_the_direct_subterms_left_to_right():
    a, b, c = MVar("a"), MVar("b"), IOTA
    assert children(Com(a, b, c)) == (a, b, c)
    assert children(MApp(a, b)) == children(MPair(a, b)) == (a, b)
    assert children(Inc(a)) == children(ProjL(a)) == children(ProjR(a)) == (a,)
    assert children(MLam("x", MData("Nat"), a, frozenset({"a"}))) == (a,)
    assert children(a) == children(IOTA) == children(BCons("zero")) == ()


def test_translate_function_symbol_arity_three():
    mt = translate(system_t(), {}, parse_term("rec[Nat]"))
    # three nested effect-free lambda layers around the saturated symbol
    for _ in range(3):
        assert isinstance(mt, MPair) and mt.left is IOTA
        assert isinstance(mt.right, MLam)
        mt = mt.right.body
    assert mt == MApp(MApp(MApp(BFunc("rec[Nat]"), MVar("x1")), MVar("x2")), MVar("x3"))


def _lambda_reads(mt):
    """Each lambda under mt, with the names its body reads and does not
    bind, found by a children-first walk that remembers every node's names
    by id: the reference each MLam.free must equal."""
    free, lambdas = {}, []
    todo = [mt]
    while todo:
        node = todo.pop()
        if type(node) is tuple:  # a node whose children are done
            node, kids = node
            names = frozenset().union(*(free[id(kid)] for kid in kids))
            if isinstance(node, MLam):
                names -= {node.var}
                lambdas.append((node, names))
            free[id(node)] = names
        elif id(node) not in free:
            kids = children(node)
            if kids:
                todo.append((node, kids))
                todo.extend(kids)
            else:
                free[id(node)] = frozenset({node.name}) if isinstance(node, MVar) else frozenset()
    return lambdas


def _assert_lambdas_record_their_reads(mt):
    lambdas = _lambda_reads(mt)
    for lam, names in lambdas:
        assert lam.free == names, lam.var
    return len(lambdas)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([NAT, LIST, N2N, FUNCTIONAL]).flatmap(
    lambda ty: closed_terms(ty, lists=True)))
def test_each_generated_lambda_records_what_its_body_reads(term):
    _assert_lambdas_record_their_reads(translate(signature_for(term), {}, term))


def test_each_corpus_lambda_records_what_its_body_reads():
    lambdas = 0
    for path in sorted(CORPUS.glob("*.wt")):
        term = parse_term(path.read_text(encoding="utf-8"))
        lambdas += _assert_lambdas_record_their_reads(translate(signature_for(term), {}, term))
    assert lambdas > 100


def test_an_open_term_records_its_context_names_as_read():
    sig = system_t()
    term = parse_term("fn y:Nat => f (rec[Nat] x (fn n:Nat => fn p:Nat => f p) y)")
    mt = translate(sig, {"x": NAT, "f": Arrow(NAT, NAT)}, term)
    assert mt.right.free == {"x", "f"}
    assert _assert_lambdas_record_their_reads(mt) == 6
    # each binder of a symbol's lambdas reads the binders outside it
    rec = translate(sig, {}, parse_term("rec[Nat]"))
    assert [lam.free for lam, _ in _lambda_reads(rec)] == [
        {"x1", "x2"}, {"x1"}, frozenset()]


def test_translations_typecheck_at_their_lifted_type():
    cases = [
        (system_t(), "3"),
        (system_t(), "fn f:Nat->Nat => f (f 2)"),
        (system_t(), "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3"),
        (system_t_list(), "fold[Nat] 0 (fn n:Nat => fn p:Nat => add n p) [1,2]"),
        (system_t_list(), "cons [4] 9"),
        (
            bar_rec(),
            "bar (fn f:Nat->Nat => 0) (fn a:List => len a) "
            "(fn b:List => fn p:Nat->Nat => p 0) []",
        ),
    ]
    for sig, src in cases:
        t = parse_term(src)
        ty = typecheck(sig, {}, t)
        got = meta_typecheck(sig, {}, translate(sig, {}, t))
        assert got == Prod(GAMMA, lift(ty)), src


def test_translation_in_context_uses_lifted_bindings():
    sig = system_t()
    mt = translate(sig, {"x": NAT}, Var("x"))
    assert meta_typecheck(sig, {"x": MData("Nat")}, mt) == Prod(GAMMA, MData("Nat"))
    with pytest.raises(MetaTypeMismatch):
        meta_typecheck(sig, {}, mt)


def test_meta_typecheck_rejects_shape_violations():
    sig = system_t()
    with pytest.raises(MetaTypeMismatch):
        meta_typecheck(sig, {}, ProjL(IOTA))
    with pytest.raises(MetaTypeMismatch):
        meta_typecheck(sig, {}, MApp(IOTA, IOTA))
    with pytest.raises(MetaTypeMismatch):
        meta_typecheck(sig, {}, Inc(MPair(IOTA, IOTA)))
    with pytest.raises(MetaTypeMismatch):
        meta_typecheck(sig, {}, Com(IOTA, IOTA, BCons("zero")))
    with pytest.raises(MetaTypeMismatch):
        meta_typecheck(sig, {}, MApp(BCons("succ"), IOTA))


def test_effects_compose_to_effects():
    sig = system_t()
    assert meta_typecheck(sig, {}, IOTA) == GAMMA
    assert meta_typecheck(sig, {}, Inc(IOTA)) == GAMMA
    assert meta_typecheck(sig, {}, Com(IOTA, Inc(IOTA), IOTA)) == GAMMA


def test_render_meta_samples():
    sig = system_t()
    assert render_meta(translate(sig, {}, numeral(0))) == "(iota, zero')"
    got = render_meta(translate(sig, {}, Lam("x", NAT, Var("x"))))
    assert got == "(iota, fn x:Nat => (inc((iota, x).l), (iota, x).r))"


def test_render_meta_type_samples():
    assert render_meta_type(GAMMA) == "Eff"
    assert render_meta_type(Prod(GAMMA, lift(Arrow(NAT, NAT)))) == (
        "(Eff * (Nat -> (Eff * Nat)))"
    )


def test_translate_guards_ill_typed_input():
    from writ import TypeMismatch

    sig = system_t()
    with pytest.raises(TypeMismatch):
        translate(sig, {}, parse_term("(fn x:Nat => x) (fn y:Nat => y)"))
    with pytest.raises(TypeMismatch):
        translate(sig, {}, parse_term("0 1"))
