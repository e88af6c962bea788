"""Semantic domains, the metalanguage interpreter, and the plain semantics."""

from collections import Counter
from dataclasses import replace

import pytest

from writ import (
    COST,
    QUERIES,
    SEARCH_TEMPLATE,
    TRIVIAL,
    Base,
    BaseList,
    Constant,
    Eff,
    Fuel,
    FuelExhausted,
    Identity,
    MissingInterpretation,
    SFun,
    SPair,
    ShapeMismatch,
    as_base,
    as_fun,
    as_list,
    as_pair,
    compose,
    continuity_inst,
    cost_exact_inst,
    denote,
    exact_cost,
    numeral,
    pair_parts,
    parse_term,
    pure_denote,
    render_semval,
    spair,
    system_t,
    translate,
    with_oracle,
)

SEARCH = f"({SEARCH_TEMPLATE})"


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


def test_pair_helpers():
    p = spair(3, Base(9))
    assert p == SPair(Eff(3), Base(9))
    assert pair_parts(p) == (3, Base(9))


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


def test_render_semval():
    assert render_semval(Base(5)) == 5
    assert render_semval(BaseList((1, 2))) == [1, 2]
    assert render_semval(Eff(4)) == 4
    assert render_semval(Eff((2, 2))) == [2, 2]
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

    A numeral's translation chains one application per successor; without
    sharing the walk would double per layer and so never finish at this
    size.
    """
    inst = cost_exact_inst()
    sig = system_t()
    mt = translate(sig, {}, numeral(400))
    assert pair_parts(denote(inst, {}, mt)) == (0, Base(400))


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
