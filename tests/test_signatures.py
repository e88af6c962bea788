"""Signatures, rewrite rules, builtins, oracles, and signature selection."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_eval import match_pattern
from term_strategies import FUNCTIONAL, N2N, closed_terms
from writ import (
    NAT,
    Arrow,
    BaseList,
    Builtin,
    Constant,
    DuplicateSymbol,
    Func,
    Identity,
    Lam,
    Table,
    UndeclaredSymbol,
    Var,
    app,
    bar_rec,
    list_term,
    numeral,
    oracle_from_json,
    oracle_from_string,
    oracle_label,
    parse_term,
    render_term,
    render_type,
    signature_for,
    substitute,
    symbols,
    system_t,
    system_t_list,
    with_oracle,
)
from writ.syntax import LIST, App, Data, PCons, PVar

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_arities():
    sig = bar_rec()
    for name, n in [
        ("zero", 0), ("succ", 1), ("nil", 0), ("cons", 2),
        ("add", 2), ("mul", 2), ("lt", 2), ("len", 1), ("ext", 2),
        ("bar", 4), ("bar1", 5),
        ("rec[Nat]", 3), ("fold[Nat]", 3), ("rec[Nat->Nat]", 3),
    ]:
        assert sig.arity(name) == n, name


def test_cons_types():
    sig = system_t_list()
    assert sig.cons_type("zero") == NAT
    assert sig.cons_type("succ") == Arrow(NAT, NAT)
    assert sig.cons_type("nil") == LIST
    assert sig.cons_type("cons") == Arrow(LIST, Arrow(NAT, LIST))


def test_family_membership_per_signature():
    t = system_t()
    assert t.has_func("rec[Nat]")
    assert t.has_func("rec[(Nat->Nat)->Nat]")
    assert not t.has_func("fold[Nat]")
    assert not t.has_func("add")
    tl = system_t_list()
    assert tl.has_func("fold[List]")
    assert tl.has_func("add")
    assert not tl.has_func("bar")
    with pytest.raises(UndeclaredSymbol):
        t.func_type("fold[Nat]")


def test_rec_family_types_are_index_polymorphic():
    sig = system_t()
    idx = Arrow(NAT, NAT)
    want = Arrow(idx, Arrow(Arrow(NAT, Arrow(idx, idx)), Arrow(NAT, idx)))
    assert sig.func_type("rec[Nat->Nat]") == want


def test_rec_rule_fires_by_match_and_substitute():
    sig = system_t()
    _, succ_rule = sig.func_decl("rec[Nat]").impl
    step = Lam("n", NAT, Lam("p", NAT, Var("p")))
    binding = match_pattern(succ_rule.patterns, (numeral(4), step, numeral(2)))
    assert binding is not None
    contractum = substitute(succ_rule.rhs, binding)
    assert render_term(contractum) == (
        "(fn n:Nat => fn p:Nat => p) 1 (rec[Nat] 4 (fn n:Nat => fn p:Nat => p) 1)"
    )


def test_fold_rule_recurses_on_the_list_prefix():
    sig = system_t_list()
    _, cons_rule = sig.func_decl("fold[Nat]").impl
    step = Lam("n", NAT, Lam("p", NAT, Var("p")))
    binding = match_pattern(cons_rule.patterns, (numeral(0), step, list_term([8, 9])))
    assert binding is not None
    contractum = substitute(cons_rule.rhs, binding)
    assert render_term(contractum) == (
        "(fn n:Nat => fn p:Nat => p) 9 (fold[Nat] 0 (fn n:Nat => fn p:Nat => p) [8])"
    )


def test_builtin_deltas():
    # builtins compute on host values: ints for numerals, sequences for lists
    sig = bar_rec()

    def run(name, *args):
        impl = sig.func_decl(name).impl
        assert isinstance(impl, Builtin)
        return impl.delta(args)

    assert run("add", 2, 3) == 5
    assert run("mul", 3, 4) == 12
    assert run("lt", 2, 5) == 0
    assert run("lt", 5, 2) == 1
    assert run("lt", 3, 3) == 1
    assert run("len", (7, 7, 7)) == 3
    assert run("len", ()) == 0
    assert run("ext", (4, 5), 1) == 5
    assert run("ext", (4, 5), 0) == 4
    # out-of-range reads pad with zero
    assert run("ext", (4, 5), 9) == 0
    assert run("ext", (), 0) == 0


def test_search_combinator_rules():
    sig = bar_rec()
    bar_decl = sig.func_decl("bar")
    (rule,) = bar_decl.impl
    assert render_term(rule.rhs) == "bar1 f g h xs (lt (f (ext xs)) (len xs))"
    zero_rule, succ_rule = sig.func_decl("bar1").impl
    assert render_term(zero_rule.rhs) == "g xs"
    assert render_term(succ_rule.rhs) == (
        "h xs (fn x:Nat => bar f g h (cons xs x))"
    )
    assert isinstance(succ_rule.patterns[4], PCons)
    assert succ_rule.patterns[4].cons == "succ"


def test_rules_complete_and_orthogonal_on_sampled_values():
    """For every rules-defined symbol, any full vector of well-shaped values
    matches exactly one rule."""
    sig = bar_rec()
    rng = random.Random(7)

    def sample_value(ty):
        if ty == NAT:
            return numeral(rng.randrange(4))
        if ty == LIST:
            return list_term([rng.randrange(3) for _ in range(rng.randrange(3))])
        assert isinstance(ty, Arrow)
        return Lam("v", ty.dom, _dummy(ty.cod))

    def _dummy(ty):
        if ty == NAT:
            return numeral(0)
        if ty == LIST:
            return list_term([])
        return Lam("w", ty.dom, _dummy(ty.cod))

    def pattern_ty(p):
        if isinstance(p, PVar):
            return p.ty
        return NAT if p.cons in ("zero", "succ") else LIST

    for name in ("rec[Nat]", "fold[Nat]", "rec[Nat->Nat]", "bar", "bar1"):
        rules = sig.func_decl(name).impl
        assert not isinstance(rules, Builtin)
        tys = [pattern_ty(p) for p in rules[0].patterns]
        for _ in range(25):
            values = tuple(sample_value(ty) for ty in tys)
            hits = [r for r in rules if match_pattern(r.patterns, values) is not None]
            assert len(hits) == 1, (name, [render_term(v) for v in values])


def test_with_oracle_adds_alpha_once():
    sig = with_oracle(system_t(), Constant(5))
    decl = sig.func_decl("alpha")
    assert decl.ty == Arrow(NAT, NAT)
    assert isinstance(decl.impl, Builtin)
    assert decl.impl.is_oracle
    assert decl.impl.delta((9,)) == 5
    with pytest.raises(DuplicateSymbol):
        with_oracle(sig, Identity())


def test_with_oracle_preserves_base_symbols():
    sig = with_oracle(bar_rec(), Identity())
    assert sig.has_func("bar")
    assert sig.has_func("rec[Nat]")
    assert sig.func_decl("alpha").impl.delta((3,)) == 3


def test_oracle_specs_compute():
    assert Identity()(7) == 7
    assert Constant(4)(100) == 4
    t = Table(((0, 9), (1, 3)))
    assert (t(0), t(1), t(2)) == (9, 3, 0)
    assert Table(((0, 9),), default=6)(5) == 6


def test_oracle_json_forms():
    assert oracle_from_json('{"kind":"identity"}') == Identity()
    assert oracle_from_json({"kind": "constant", "value": 8}) == Constant(8)
    got = oracle_from_json('{"kind":"table","pairs":[[0,9],[1,3]],"default":2}')
    assert got == Table(((0, 9), (1, 3)), default=2)
    with pytest.raises(ValueError):
        oracle_from_json('{"kind":"mystery"}')
    with pytest.raises(ValueError):
        oracle_from_json("[1,2]")


def test_oracle_string_forms():
    assert oracle_from_string("identity") == Identity()
    assert oracle_from_string("constant:5") == Constant(5)
    assert oracle_from_string("table:0=9,1=3") == Table(((0, 9), (1, 3)))
    assert oracle_from_string("table:0=9,default=4") == Table(((0, 9),), default=4)
    with pytest.raises(ValueError):
        oracle_from_string("parity")
    with pytest.raises(ValueError):
        oracle_from_string("table:0")


@pytest.mark.parametrize("make", [
    lambda: Constant(-1),
    lambda: Table(((-1, 2),)),
    lambda: Table(((1, -2),)),
    lambda: Table(((1, 2),), default=-3),
    lambda: oracle_from_string("constant:-1"),
    lambda: oracle_from_string("table:0=-9"),
    lambda: oracle_from_json('{"kind":"table","pairs":[[-1,0]]}'),
])
def test_oracles_are_natural(make):
    with pytest.raises(ValueError, match="must be a natural"):
        make()


@pytest.mark.parametrize("source", [
    '{"kind":"constant"}',
    '{"kind":"constant","value":null}',
    '{"kind":"constant","value":true}',
    '{"kind":"constant","value":2.5}',
    '{"kind":"constant","value":"3"}',
    '{"kind":"table","pairs":5}',
    '{"kind":"table","pairs":[[1]]}',
    '{"kind":"table","pairs":[[1,2,3]]}',
    '{"kind":"table","pairs":[[1,false]]}',
    '{"kind":"table","pairs":[[1,2]],"default":1.0}',
    '{"kind":"table","pairs":[[2,5],[2,7]]}',
    '{"kind":"table","pairs":[[2,5]],"default":1,"default":4}',
    '{"kind":"table","kind":"constant","value":3}',
])
def test_oracle_json_rejects_malformed_shapes(source):
    with pytest.raises(ValueError):
        oracle_from_json(source)


@pytest.mark.parametrize("make", [
    lambda: Table(((2, 5), (2, 7))),
    lambda: Table(((0, 1), (3, 1), (0, 1))),
    lambda: oracle_from_string("table:2=5,2=7"),
    lambda: oracle_from_string("table:default=1,default=4"),
    lambda: oracle_from_string("table:0=1,default=0,default=0"),
])
def test_oracle_tables_reject_repeats(make):
    with pytest.raises(ValueError, match="repeats"):
        make()


def test_oracle_label_round_trips():
    for g in (Identity(), Constant(12), Table(((2, 2), (5, 0)), default=1)):
        back = oracle_from_string(oracle_label(g))
        for n in range(8):
            assert back(n) == g(n)


def test_signature_selection():
    assert signature_for(numeral(3)).name == "system_t"
    assert signature_for(parse_term("rec[Nat] 0 (fn n:Nat => fn p:Nat => p) 2")).name == "system_t"
    assert signature_for(parse_term("add 1 2")).name == "system_t_list"
    assert signature_for(parse_term("fold[Nat] 0 (fn n:Nat => fn p:Nat => p) []")).name == "system_t_list"
    assert signature_for(Lam("xs", LIST, Var("xs"))).name == "system_t_list"
    assert signature_for(parse_term("ext [1] 0")).name == "bar_rec"
    assert signature_for(parse_term("fn f:Nat->Nat => alpha 2")).name == "system_t"
    # a symbol no signature declares: the largest, which then rejects it
    assert signature_for(Func("foo")).name == "bar_rec"


def test_selection_reads_deep_annotations_without_recursion():
    ty = LIST
    for _ in range(100_000):
        ty = Arrow(NAT, ty)
    assert signature_for(Lam("f", ty, numeral(0))).name == "system_t_list"


# the selection rule signature_for had when it kept its own symbol sets,
# as a reference for the one that reads the signatures' declarations
_LIST_SYMBOLS = frozenset({"nil", "cons", "add", "mul", "lt", "len"})
_BAR_SYMBOLS = frozenset({"ext", "bar", "bar1"})


def _annotations(t):
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Lam):
            yield s.var_ty
            todo.append(s.body)
        elif isinstance(s, App):
            todo += (s.fun, s.arg)


def reference_signature_name(t) -> str:
    names = symbols(t)
    if names & _BAR_SYMBOLS:
        return "bar_rec"
    if (names & _LIST_SYMBOLS or any(n.startswith("fold[") for n in names)
            or any("List" in render_type(ty) for ty in _annotations(t))):
        return "system_t_list"
    return "system_t"


def test_selection_matches_the_reference_on_the_corpus():
    paths = sorted(CORPUS.glob("*.wt"))
    assert len(paths) == 59
    for path in paths:
        term = parse_term(path.read_text(encoding="utf-8"))
        assert signature_for(term).name == reference_signature_name(term), path.name


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.sampled_from([NAT, FUNCTIONAL, N2N]), st.booleans()).flatmap(
    lambda drawn: closed_terms(*drawn)))
def test_selection_matches_the_reference_on_generated_terms(term):
    assert signature_for(term).name == reference_signature_name(term)


def test_datatype_names_are_closed():
    sig = system_t()
    assert sig.datatypes == frozenset({"Nat"})
    assert system_t_list().datatypes == frozenset({"Nat", "List"})
    with pytest.raises(UndeclaredSymbol):
        sig.cons_decl("cons")
    assert sig.cons_decl("succ").args == ("Nat",)
    assert isinstance(Data("Nat"), Data)


# ---------------------------------------------------------------- lists

def test_list_snoc_onto_the_newest_view_appends_in_place():
    xs = BaseList([1, 2])
    ys = xs.snoc(3)
    assert ys.buf is xs.buf
    assert (xs.items, ys.items) == ((1, 2), (1, 2, 3))
    assert (len(ys), ys[2]) == (3, 3)
    with pytest.raises(IndexError):
        xs[2]


def test_list_snoc_onto_an_older_view_never_changes_a_newer_one():
    xs = BaseList([1])
    ys = xs.snoc(2)
    zs = xs.snoc(9)
    assert (xs.items, ys.items, zs.items) == ((1,), (1, 2), (1, 9))
    assert zs.buf is not ys.buf
    # the newer view's own next item is shared, not copied
    assert xs.snoc(2).buf is ys.buf
    assert ys.init().snoc(7).items == (1, 7) and ys.items == (1, 2)


def test_lists_compare_by_items():
    a, b = BaseList([1, 2]), BaseList([1]).snoc(2)
    assert a.buf is not b.buf
    assert a == b
    assert a != BaseList([1]) and a != BaseList([1, 3]) and a != (1, 2)
    assert BaseList([1, 2, 3]).init() == a
    assert repr(a) == "BaseList((1, 2))"


def test_list_constructor_copies_its_argument():
    source = [1, 2]
    xs = BaseList(source)
    assert xs.buf is not source
    source.append(3)
    xs.snoc(4)
    assert xs.items == (1, 2) and source == [1, 2, 3]
