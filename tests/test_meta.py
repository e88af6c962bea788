"""The effect-pairing translation and the metalanguage type system."""

import pytest

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
    system_t,
    system_t_list,
    translate,
    typecheck,
)
from writ.meta import children
from writ.syntax import LIST, Lam


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
    mt = translate(system_t(), {}, numeral(0))
    assert mt == MPair(IOTA, BCons("zero"))


def test_translate_bare_constructor_wraps_each_binder():
    mt = translate(system_t(), {}, parse_term("succ"))
    assert mt == MPair(
        IOTA,
        MLam("x1", MData("Nat"), MPair(IOTA, MApp(BCons("succ"), MVar("x1")))),
    )


def test_translate_variable_and_identity_lambda():
    assert translate(system_t(), {"x": NAT}, Var("x")) == MPair(IOTA, MVar("x"))
    mt = translate(system_t(), {}, Lam("x", NAT, Var("x")))
    inner = MPair(IOTA, MVar("x"))
    assert mt == MPair(
        IOTA,
        MLam("x", MData("Nat"), MPair(Inc(ProjL(inner)), ProjR(inner))),
    )


def test_translate_application_shares_the_call_node():
    mt = translate(system_t(), {}, numeral(1))
    assert isinstance(mt, MPair)
    eff, val = mt.left, mt.right
    assert isinstance(eff, Com)
    assert isinstance(eff.third, ProjL)
    assert isinstance(val, ProjR)
    # both projections must hit the same object, not merely equal copies
    assert eff.third.pair is val.pair
    assert isinstance(val.pair, MApp)


def test_translate_shares_each_symbol():
    mt = translate(system_t_list(), {}, parse_term("add (succ 0) (succ 0)"))
    add_a, b = _parts(mt)
    add, a = _parts(add_a)
    succ_a, zero_a = _parts(a)
    succ_b, zero_b = _parts(b)
    assert succ_a is succ_b
    assert zero_a is zero_b
    assert add.right.body.right.body == MApp(MApp(BFunc("add"), MVar("x1")), MVar("x2"))
    # applications are not symbols: each occurrence keeps its own node
    assert a is not b and a == b


def test_render_meta_prints_shared_symbols_in_full():
    mt = translate(system_t_list(), {}, parse_term("add (succ 0) (succ 0)"))
    add = "(iota, fn x1:Nat => (iota, fn x2:Nat => (add' x1) x2))"
    succ_0 = _render_app("(iota, fn x1:Nat => (iota, succ' x1))", "(iota, zero')")
    assert render_meta(mt) == _render_app(_render_app(add, succ_0), succ_0)


def test_numeral_translation_grows_by_one_application_per_successor():
    sizes = [dag_size(translate(system_t(), {}, numeral(n))) for n in range(1, 7)]
    # nine nodes per application; a fresh succ lambda per occurrence would
    # add six more
    assert [b - a for a, b in zip(sizes, sizes[1:])] == [9] * 5


def test_children_are_the_direct_subterms_left_to_right():
    a, b, c = MVar("a"), MVar("b"), IOTA
    assert children(Com(a, b, c)) == (a, b, c)
    assert children(MApp(a, b)) == children(MPair(a, b)) == (a, b)
    assert children(Inc(a)) == children(ProjL(a)) == children(ProjR(a)) == (a,)
    assert children(MLam("x", MData("Nat"), a)) == (a,)
    assert children(a) == children(IOTA) == children(BCons("zero")) == ()


def test_translate_function_symbol_arity_three():
    mt = translate(system_t(), {}, parse_term("rec[Nat]"))
    # three nested effect-free lambda layers around the saturated symbol
    for _ in range(3):
        assert isinstance(mt, MPair) and mt.left is IOTA
        assert isinstance(mt.right, MLam)
        mt = mt.right.body
    assert mt == MApp(MApp(MApp(BFunc("rec[Nat]"), MVar("x1")), MVar("x2")), MVar("x3"))


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
