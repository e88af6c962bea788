"""The shipped analyses: one instantiation of the engine per question.

- continuity: effects are query lists; the modulus of a type-two functional
  falls out of the queries its denotation makes.
- cost_exact: effects are step counts; predictions match the evaluator
  exactly. It and continuity are one table, _exact_inst, under two effects.
- cost_bounded: values are size bounds and effects are step-count upper
  bounds over the list fragment.
- majorizability: no effect at all; values dominate the true results.

Every analysis reads a term under its own signature, signature_for(e),
through one preparation, _Prepared, which makes each phase once. The public
analyses each run on one of their own; verify_file shares one per file.

Every recursor of every analysis is one combinator, recursor: a loop that
climbs from the base case and charges each unfold under the analysis's
effect triple. It unfolds at most the analysis's fuel in stages per call.
The search bar is one combinator too, search: each round charges its
fixed frame through the triple, and a call runs at most the fuel in
rounds.

Every builtin of every analysis is the signature's own, lifted by
lift_builtin: once its last argument arrives, it runs the builtin's delta
on the arguments' host values and charges one step under the analysis's
effect triple. So the machine and the analyses share one definition of
each builtin's arithmetic. Only the analyses whose values are not exact
replace a delta: under cost_bounded every size is one, and majorizability's
lt is the constant one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Optional

from .errors import FuelExhausted, ShapeMismatch, TypeMismatch, UnsupportedSymbol, WritError
from .engine import (
    COST,
    EXACT_CONS,
    EXACT_NAT_CONS,
    QUERIES,
    TRIVIAL,
    Base,
    BaseList,
    EffectTriple,
    Instantiation,
    SemVal,
    SFun,
    SPair,
    as_base,
    as_fun,
    as_list,
    compose,
    denote,
    pair_parts,
    spair,
    _VALUES,
)
from .evaluator import DEFAULT_FUEL, EvalResult, Fuel, evaluate_typed, oracle_runner
from .meta import MetaTerm, _translate
from .signatures import BUILTINS, Builtin, OracleSpec, signature_for
from .syntax import (
    NAT,
    App,
    Arrow,
    Func,
    Term,
    Ty,
    render_term,
    render_type,
    symbols,
    typecheck,
)

__all__ = [
    "ModulusReport", "CostReport", "EXACT", "BOUND",
    "continuity_inst", "cost_exact_inst", "cost_bounded_inst", "majorizability_inst",
    "modulus", "exact_cost", "bounded_cost", "majorant",
    "spector_closed_form", "semantic_join", "recursor", "search", "lift_builtin",
]

EXACT = "exact"
BOUND = "bound"


@dataclass(frozen=True)
class ModulusReport:
    """How much of the oracle a type-two term can see."""

    phi: int
    support: tuple[int, ...]
    predicted_value: int


@dataclass(frozen=True)
class CostReport:
    predicted: int
    semantic: SemVal
    mode: str


# ---------------------------------------------------------------- shared pieces

def lift_builtin(
    builtin: Builtin,
    eff: EffectTriple,
    delta: Optional[Callable[[tuple], int]] = None,
) -> SemVal:
    """A builtin of the signature as an interpretation under eff.

    Once its last argument arrives, it runs delta (the builtin's own unless
    one is given) on the arguments' host values and charges the one step
    its unfold takes, eff.inc(eff.eps). It is one or two nested closures,
    each taking its argument's host value as it arrives; every builtin of
    the signatures takes one or two arguments.
    """
    run = builtin.delta if delta is None else delta
    step = eff.inc(eff.eps)
    if builtin.arity == 1:
        return SFun(lambda a: SPair(step, Base(run((_host_value(a),)))))
    if builtin.arity != 2:
        raise ValueError(f"builtin {builtin.name!r} takes {builtin.arity} arguments, not 1 or 2")

    def first(a: SemVal) -> SemVal:
        x = _host_value(a)
        return SFun(lambda b: SPair(step, Base(run((x, _host_value(b))))))

    return SFun(first)


def _host_value(v: SemVal) -> "int | BaseList":
    # a builtin's argument as its delta takes it: a natural's int, a
    # sequence itself
    return v.value if type(v) is Base else as_list(v)


def _lifted(eff: EffectTriple, names: Iterable[str], delta=None) -> dict[str, SemVal]:
    return {name: lift_builtin(BUILTINS[name], eff, delta) for name in names}


def _one(args: tuple) -> int:
    # the delta of an analysis that reads every result as one
    return 1


def recursor(
    eff: EffectTriple,
    indices: Callable[[SemVal], Iterable[int]],
    fuel: Fuel = DEFAULT_FUEL,
    join: Optional[Callable[[SemVal, SemVal], SemVal]] = None,
    *,
    envelope: bool = False,
) -> SemVal:
    """A recursor family: base, then step, then the recursion argument.

    indices turns the argument into the stage indices, in the order the
    stages run (range(n) for rec, the items for fold). The loop starts at
    inc(eps) with the base value; each stage applies the step to its index
    and then to the value so far, and charges inc(com(c_step, c_so_far,
    c_call)), which is what the nested unfold of the rewrite rules charges.

    With a join, each stage's output is joined with the base value before
    the next stage reads it; with a join and envelope, the stages read each
    other's outputs as they are and the result is the join of every stage.
    The two differ for steps that do not distribute over joins. A call
    raises FuelExhausted before it unfolds more than fuel.max_steps stages.
    """

    def run(base: SemVal, step: SemVal, arg: SemVal) -> SemVal:
        inc, com, limit = eff.inc, eff.com, fuel.max_steps
        # a step that is no function fails at the first stage, as the guard
        # on each stage would fail it
        fn = step.fn if type(step) is SFun else lambda i: as_fun(step).fn(i)
        c = inc(eff.eps)
        cur = result = base
        for k, i in enumerate(indices(arg)):
            if k == limit:
                raise FuelExhausted(limit)
            # each pair is read inline, and through the guards when its
            # shape is off, so that every mismatch keeps its text
            p = fn(Base(i))
            if type(p) is SPair and type(p.fst) not in _VALUES:
                c_step, applied = p.fst, p.snd
            else:
                c_step, applied = pair_parts(p)
            p = (applied if type(applied) is SFun else as_fun(applied)).fn(cur)
            if type(p) is SPair and type(p.fst) not in _VALUES:
                c_call, out = p.fst, p.snd
            else:
                c_call, out = pair_parts(p)
            c = inc(com(c_step, c, c_call))
            if envelope:
                cur, result = out, join(result, out)
            else:
                cur = result = out if join is None else join(base, out)
        return spair(c, result)

    return SFun(lambda a: SFun(lambda f: SFun(lambda n: run(a, f, n))))


def _rec_indices(n: SemVal) -> range:
    return range(as_base(n).value)


def _fold_indices(xs: SemVal) -> tuple[int, ...]:
    return as_list(xs).items


def search(eff: EffectTriple, ext: SemVal, fuel: Fuel = DEFAULT_FUEL) -> SemVal:
    """The search combinator bar: the control functional, the finish, the
    step, then the segment, given ext's interpretation.

    Each round applies the functional to ext of the segment (a partial
    application, no step), then charges four inc: bar's unfold, the
    comparison, the length and bar1's unfold. Once the functional answers
    below the segment's length, the finish runs on the segment; otherwise
    the step runs on the segment and on a continuation, which charges one
    inc (its beta step) on top of the next round, on the segment extended
    by its argument. A call raises FuelExhausted past fuel.max_steps rounds.
    """
    inc, com, eps, limit = eff.inc, eff.com, eff.eps, fuel.max_steps

    def run(w: SemVal, g: SemVal, h: SemVal, xs: BaseList, rounds: int) -> SemVal:
        if rounds == limit:
            raise FuelExhausted(limit)
        c_w, decided = pair_parts(as_fun(w).fn(as_fun(ext).fn(xs)))
        lead = inc(inc(inc(inc(c_w))))
        if as_base(decided).value < len(xs):
            c_g, out = pair_parts(as_fun(g).fn(xs))
            return spair(com(lead, c_g, eps), out)

        def cont(x: SemVal) -> SemVal:
            c_next, out = pair_parts(run(w, g, h, xs.snoc(as_base(x).value), rounds + 1))
            return spair(inc(c_next), out)

        c_h, applied = pair_parts(as_fun(h).fn(xs))
        c_call, out = pair_parts(as_fun(applied).fn(SFun(cont)))
        return spair(com(lead, c_h, c_call), out)

    return SFun(lambda w: SFun(lambda g: SFun(lambda h: SFun(
        lambda a: run(w, g, h, as_list(a), 0)))))


# ---------------------------------------------------------------- exact analyses

def _exact_inst(name: str, eff: EffectTriple, fuel: Fuel, **extra: SemVal) -> Instantiation:
    """Exact values under eff: every builtin of the signatures lifted, the
    search bar, and both recursor families, plus the extra symbols given."""
    builtins = _lifted(eff, BUILTINS)
    return Instantiation(
        name=name,
        effect=eff,
        cons_interp=EXACT_CONS,
        func_interp={**builtins, "bar": search(eff, builtins["ext"], fuel),
                     "rec": recursor(eff, _rec_indices, fuel),
                     "fold": recursor(eff, _fold_indices, fuel), **extra},
    )


def continuity_inst(g: OracleSpec, fuel: Fuel = DEFAULT_FUEL) -> Instantiation:
    """Query-log effects over every shipped signature plus the oracle."""

    def alpha(n: SemVal) -> SemVal:
        k = as_base(n).value
        return spair((k,), Base(g(k)))

    return _exact_inst("continuity", QUERIES, fuel, alpha=SFun(alpha))


def cost_exact_inst(fuel: Fuel = DEFAULT_FUEL) -> Instantiation:
    """Step-count effects; predictions agree with the evaluator exactly."""
    return _exact_inst("cost_exact", COST, fuel)


# ---------------------------------------------------------------- bounded cost

def semantic_join(
    x: SemVal, y: SemVal, combine_eff: Callable[[object, object], object]
) -> SemVal:
    """Least upper bound of two semantic values of the same lifted type.

    Naturals join by max; functions join pointwise, with their effect
    amounts merged by combine_eff.
    """
    if isinstance(x, Base) and isinstance(y, Base):
        return x if x.value >= y.value else y
    if isinstance(x, SFun) and isinstance(y, SFun):

        def joined(a: SemVal) -> SemVal:
            cx, vx = pair_parts(x.fn(a))
            cy, vy = pair_parts(y.fn(a))
            return spair(combine_eff(cx, cy), semantic_join(vx, vy, combine_eff))

        return SFun(joined)
    raise ShapeMismatch("joinable pair of equal shapes", y)


def _size_indices(m: SemVal) -> Iterable[int]:
    # every element of a list of size m reads as size one
    return repeat(1, as_base(m).value)


def _join_max(x: SemVal, y: SemVal) -> SemVal:
    return semantic_join(x, y, max)


def cost_bounded_inst(fuel: Fuel = DEFAULT_FUEL) -> Instantiation:
    """Size-based step bounds over the list fragment.

    Numerals all have size one, so a list's size is its length and the
    analysis stays finite without looking at actual numbers. List
    recursion joins the base bound with each stage's bound.
    """
    return Instantiation(
        name="cost_bounded",
        effect=COST,
        cons_interp={
            "zero": Base(1),
            "succ": SFun(lambda n: Base(1)),
            "nil": Base(0),
            "cons": SFun(lambda a: SFun(lambda n: Base(as_base(a).value + 1))),
        },
        func_interp={**_lifted(COST, ("add", "mul", "lt", "len"), _one),
                     "fold": recursor(COST, _size_indices, fuel, _join_max)},
    )


# ---------------------------------------------------------------- majorizability

def _join_flat(x: SemVal, y: SemVal) -> SemVal:
    return semantic_join(x, y, lambda a, b: None)


def majorizability_inst(fuel: Fuel = DEFAULT_FUEL) -> Instantiation:
    """No effect; every value dominates the true one pointwise.

    Numeral recursion yields the join of every stage up to the argument, so
    the result dominates recursion at any smaller index too.
    """
    return Instantiation(
        name="majorizability",
        effect=TRIVIAL,
        cons_interp=EXACT_NAT_CONS,
        func_interp={
            **_lifted(TRIVIAL, ("add", "mul")),
            # comparisons only ever produce 0 or 1; the constant covers both,
            # whereas the exact comparison is not monotone and so no majorant
            **_lifted(TRIVIAL, ("lt",), _one),
            "rec": recursor(TRIVIAL, _rec_indices, fuel, _join_flat, envelope=True),
        },
    )


# ---------------------------------------------------------------- operations

_TYPE_TWO = Arrow(Arrow(NAT, NAT), NAT)


class _Prepared:
    """The work on one term that its analyses share: its signature, and, each
    made at its first use and kept, its type, its translation, its
    evaluation and its oracle runner. A WritError that making one raises is
    kept too, so each analysis that needs it again meets the same error.

    Every analysis asks for what it reads in the order it reads it, so on a
    shared preparation it fails with the text it fails with on its own."""

    def __init__(self, term: Term, fuel: Fuel) -> None:
        self.term = term
        self.fuel = fuel
        self.sig = signature_for(term)
        self._made: dict[str, object] = {}  # what -> it, or the WritError making it raised

    def _once(self, what: str, make: Callable[[], object]):
        if what not in self._made:
            try:
                self._made[what] = make()
            except WritError as err:
                self._made[what] = err
        made = self._made[what]
        if isinstance(made, WritError):
            raise made
        return made

    def type(self) -> Ty:
        return self._once("type", lambda: typecheck(self.sig, {}, self.term))

    def meta(self) -> MetaTerm:
        """The translation, behind the typecheck, as translate does it."""
        self.type()
        return self._once("meta", lambda: _translate(self.sig, self.term))

    def evaluation(self) -> EvalResult:
        """The evaluation, behind the typecheck, as evaluate does it."""
        self.type()
        return self._once("evaluation",
                          lambda: evaluate_typed(self.sig, self.term, self.fuel))

    def runner(self) -> Callable[[Callable[[int], int]], tuple]:
        """The term applied to alpha, compiled once for every oracle of
        every modulus check; only for a term of type two."""
        return self._once("runner", lambda: oracle_runner(
            self.sig, App(self.term, Func("alpha")), self.fuel))

    def cost(self, inst: Optional[Instantiation] = None) -> CostReport:
        active = inst if inst is not None else cost_exact_inst(self.fuel)
        cost, value = pair_parts(denote(active, {}, self.meta()))
        return CostReport(predicted=cost, semantic=value, mode=EXACT)

    def bound(self, inst: Optional[Instantiation] = None) -> CostReport:
        """bounded_cost; the term's symbols are refused before it is translated."""
        names = symbols(self.term)
        for banned in ("bar", "bar1", "ext"):
            if banned in names:
                raise UnsupportedSymbol(banned, "unbounded search has no size bound")
        for name in sorted(names):
            if name.startswith("rec["):
                raise UnsupportedSymbol(
                    name, "sizes are uniform on numerals, so numeral recursion depth is invisible"
                )
        active = inst if inst is not None else cost_bounded_inst(self.fuel)
        cost, value = pair_parts(denote(active, {}, self.meta()))
        return CostReport(predicted=cost, semantic=value, mode=BOUND)

    def majorant(self, inst: Optional[Instantiation] = None) -> SemVal:
        active = inst if inst is not None else majorizability_inst(self.fuel)
        _, value = pair_parts(denote(active, {}, self.meta()))
        return value

    def modulus(self, g: OracleSpec, inst: Optional[Instantiation] = None) -> ModulusReport:
        """modulus under g; the term is typechecked, then required to be of type two."""
        ty = self.type()
        if ty != _TYPE_TWO:
            raise TypeMismatch(render_type(_TYPE_TWO), render_type(ty), render_term(self.term))
        active = inst if inst is not None else continuity_inst(g, self.fuel)
        den = denote(active, {}, self.meta())
        support_raw, out = pair_parts(compose(active, den, spair((), active.func("alpha"))))
        support = tuple(support_raw)
        phi = max(support) + 1 if support else 0
        return ModulusReport(phi=phi, support=support, predicted_value=as_base(out).value)


def modulus(
    e: Term,
    g: OracleSpec,
    fuel: Fuel = DEFAULT_FUEL,
    *,
    inst: Optional[Instantiation] = None,
) -> ModulusReport:
    """Support and modulus of a closed type-two term applied to the oracle g.

    The term must have type (Nat->Nat)->Nat under its own signature, so
    it may use lists and the search bar but not the oracle symbol. It is
    applied to the instantiation's own alpha, which reads g and logs each
    query. The modulus is one past the largest queried position, or zero
    when nothing is queried.
    """
    return _Prepared(e, fuel).modulus(g, inst)


def exact_cost(
    e: Term,
    fuel: Fuel = DEFAULT_FUEL,
    *,
    inst: Optional[Instantiation] = None,
) -> CostReport:
    """Predicted step count and semantic value of a closed term."""
    return _Prepared(e, fuel).cost(inst)


def bounded_cost(
    e: Term,
    fuel: Fuel = DEFAULT_FUEL,
    *,
    inst: Optional[Instantiation] = None,
) -> CostReport:
    """Upper bounds on step count and result size over the list fragment.

    Numeral-indexed recursion and the search combinator have no sound
    size-based bound (sizes forget numeral depth), so terms using them are
    rejected.
    """
    return _Prepared(e, fuel).bound(inst)


def majorant(
    e: Term,
    fuel: Fuel = DEFAULT_FUEL,
    *,
    inst: Optional[Instantiation] = None,
) -> SemVal:
    """A semantic value dominating e's value pointwise."""
    return _Prepared(e, fuel).majorant(inst)


def spector_closed_form(omega: SemVal, g: SemVal, fuel: Fuel = DEFAULT_FUEL) -> int:
    """Total cost of the canonical sequential search, in closed form.

    omega and g are effect-paired semantic functions (the usual shape of
    denoted values): omega consumes a Nat->Nat pair function, g consumes a
    natural. The search stops at the least n where omega, shown the padded
    length-n prefix of g's value stream, answers below n. The closed form
    charges a fixed ten-step frame per round plus omega's own work on every
    prefix and g's work on every extension.
    """
    w, gf = as_fun(omega), as_fun(g)
    # reading any position costs one step; positions past the segment read zero
    ext = as_fun(lift_builtin(BUILTINS["ext"], COST))
    xs = BaseList()
    w_cost: list[int] = []
    g_cost: list[int] = []
    while True:
        # at most fuel.max_steps rounds, as search runs
        if len(xs) == fuel.max_steps:
            raise FuelExhausted(fuel.max_steps)
        c, v = pair_parts(w.fn(ext.fn(xs)))
        w_cost.append(c)
        if as_base(v).value < len(xs):
            return 10 * len(xs) + 5 + sum(w_cost) + sum(g_cost)
        c, v = pair_parts(gf.fn(Base(len(xs))))
        g_cost.append(c)
        xs = xs.snoc(as_base(v).value)
