"""Semantic domains, the metalanguage interpreter, and the plain semantics.

The metalanguage is interpreted over SemVal: naturals, finite numeral
sequences, pairs, host functions, and effect annotations drawn from one
EffectTriple (an empty effect, a one-step extension, and a three-way
combination). Swapping the triple and the symbol interpretations changes
the analysis without touching the interpreter. denote runs the top level
and each lambda body as a loop over its nodes, so literals of any size need
no host recursion, and it runs a closed effect-value pair in a lambda body
at most once per call, however often the lambda is applied (full laziness:
such a pair means the same at every application).

pure_denote is the effect-free reference semantics used as an independent
value oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, TypeAlias

from .errors import (
    FuelExhausted,
    MetaTypeMismatch,
    MissingInterpretation,
    ShapeMismatch,
)
from . import meta as M
from .signatures import OracleSpec
from .syntax import App, Cons, Func, Lam, Term, Var

__all__ = [
    "EffectTriple", "COST", "QUERIES", "TRIVIAL",
    "Eff", "Base", "BaseList", "SPair", "SFun", "SemVal", "SemEnv",
    "spair", "as_eff", "as_base", "as_list", "as_pair", "as_fun", "pair_parts",
    "render_semval",
    "Instantiation", "denote", "compose", "pure_denote",
]


# ---------------------------------------------------------------- effects

@dataclass(frozen=True)
class EffectTriple:
    """One choice of effect algebra: carrier, empty, step, combination."""

    carrier: str
    eps: object
    inc: Callable[[object], object]
    com: Callable[[object, object, object], object]


COST = EffectTriple("Nat", 0, lambda c: c + 1, lambda a, b, c: a + b + c)
QUERIES = EffectTriple("NatList", (), lambda c: c, lambda a, b, c: a + b + c)
TRIVIAL = EffectTriple("Unit", None, lambda c: None, lambda a, b, c: None)


# ---------------------------------------------------------------- values

@dataclass(frozen=True)
class Eff:
    """An effect annotation, an element of the active carrier."""

    amount: object


@dataclass(frozen=True)
class Base:
    """A natural number (or a size, under size-based analyses)."""

    value: int


@dataclass(frozen=True)
class BaseList:
    """A finite sequence of naturals."""

    items: tuple[int, ...]


@dataclass(frozen=True)
class SPair:
    fst: "SemVal"
    snd: "SemVal"


@dataclass(frozen=True, eq=False)
class SFun:
    """A host function on semantic values. Must be pure."""

    fn: Callable[["SemVal"], "SemVal"]


SemVal: TypeAlias = "Eff | Base | BaseList | SPair | SFun"
SemEnv: TypeAlias = Mapping[str, "SemVal"]


def spair(amount: object, value: SemVal) -> SPair:
    """Pair an effect amount with a value."""
    return SPair(Eff(amount), value)


def as_eff(v: SemVal) -> Eff:
    if not isinstance(v, Eff):
        raise ShapeMismatch("effect", v)
    return v


def as_base(v: SemVal) -> Base:
    if not isinstance(v, Base):
        raise ShapeMismatch("natural", v)
    return v


def as_list(v: SemVal) -> BaseList:
    if not isinstance(v, BaseList):
        raise ShapeMismatch("sequence", v)
    return v


def as_pair(v: SemVal) -> SPair:
    if not isinstance(v, SPair):
        raise ShapeMismatch("pair", v)
    return v


def as_fun(v: SemVal) -> SFun:
    if not isinstance(v, SFun):
        raise ShapeMismatch("function", v)
    return v


def pair_parts(v: SemVal) -> tuple[object, SemVal]:
    """Split an effect-value pair into (amount, value)."""
    p = as_pair(v)
    return as_eff(p.fst).amount, p.snd


def render_semval(v: SemVal) -> object:
    """JSON-friendly view: naturals and sequences verbatim, the rest opaque."""
    if isinstance(v, Base):
        return v.value
    if isinstance(v, BaseList):
        return list(v.items)
    if isinstance(v, Eff):
        return list(v.amount) if isinstance(v.amount, tuple) else v.amount
    if isinstance(v, SPair):
        return [render_semval(v.fst), render_semval(v.snd)]
    return "<function>"


# ---------------------------------------------------------------- instantiation

@dataclass(frozen=True)
class Instantiation:
    """An analysis: one effect algebra plus symbol interpretations.

    func_families interprets every member of an indexed family at once,
    keyed by the family head (e.g. "rec" covers rec[Nat], rec[Nat->Nat], ...).
    """

    name: str
    effect: EffectTriple
    cons_interp: Mapping[str, SemVal]
    func_interp: Mapping[str, SemVal]
    func_families: Mapping[str, SemVal] = field(default_factory=dict)

    def cons(self, symbol: str) -> SemVal:
        try:
            return self.cons_interp[symbol]
        except KeyError:
            raise MissingInterpretation(symbol, f"not in {self.name}") from None

    def func(self, symbol: str) -> SemVal:
        hit = self.func_interp.get(symbol)
        if hit is not None:
            return hit
        head, bracket, _ = symbol.partition("[")
        if bracket and head in self.func_families:
            return self.func_families[head]
        raise MissingInterpretation(symbol, f"not in {self.name}")


# ---------------------------------------------------------------- interpreter

_RIGHT, _LEFT, _PAIR, _APP, _COM, _INC, _IOTA, _VAR, _LAM, _CONS, _FUNC, _ONCE = range(12)

# each node kind's opcode; from _IOTA on, the node is a leaf of its scope (a
# lambda's body is a scope of its own)
_OPS: dict[type, int] = {
    M.ProjR: _RIGHT, M.ProjL: _LEFT, M.MPair: _PAIR, M.MApp: _APP, M.Com: _COM,
    M.Inc: _INC, M.Iota: _IOTA, M.MVar: _VAR, M.MLam: _LAM, M.BCons: _CONS,
    M.BFunc: _FUNC,
}

_CLOSED: frozenset[str] = frozenset()


def _free_vars(root: M.MetaTerm, free: dict[int, frozenset[str]]) -> frozenset[str]:
    """The free meta variables of root; fills free, keyed by node id, for
    every node under root, lambda bodies included, so that each node of a
    DAG is visited once however often this is called."""
    todo: list = [root]  # nodes to visit, and (node, children) to finish
    pop, push = todo.pop, todo.append
    while todo:
        node = pop()
        if type(node) is tuple:
            node, kids = node
            if type(node) is M.MLam:
                names = free[id(kids[0])] - {node.var}
            else:
                names = _CLOSED
                for kid in kids:
                    if free[id(kid)]:
                        names = names | free[id(kid)]
            free[id(node)] = names
            continue
        if id(node) in free:
            continue
        kids = M.children(node)
        if not kids:
            free[id(node)] = frozenset((node.name,)) if type(node) is M.MVar else _CLOSED
            continue
        push((node, kids))
        for kid in kids:
            if id(kid) not in free:
                push(kid)
    return free[id(root)]


def _flatten(
    root: M.MetaTerm, free: Optional[dict[int, frozenset[str]]] = None
) -> list[tuple]:
    """One scope as a children-first list, a shared node once, in the order a
    left-to-right walk that remembers shared nodes would finish them.

    Each entry is an opcode and three operands: the positions of the node's
    children in the list, or the node itself when it has none. Given free
    (see _free_vars), the scope is a lambda body, and each closed pair in it
    is one _ONCE entry holding the pair, whose own nodes stay out of the list.
    """
    code: list[tuple] = []
    at: dict[int, int] = {}
    # nodes to visit, and (op, node, children) to finish once the children
    # are placed
    todo: list = [root]
    pop, push, extend = todo.pop, todo.append, todo.extend
    op_of, children = _OPS.get, M.children
    while todo:
        node = pop()
        if type(node) is tuple:
            op, node, kids = node
            at[id(node)] = len(code)
            if len(kids) == 1:
                code.append((op, at[id(kids[0])], None, None))
            elif len(kids) == 2:
                code.append((op, at[id(kids[0])], at[id(kids[1])], None))
            else:
                code.append((op, at[id(kids[0])], at[id(kids[1])], at[id(kids[2])]))
            continue
        if id(node) in at:
            continue
        op = op_of(type(node))
        if op is None:
            raise MetaTypeMismatch(f"unknown metalanguage node {node!r}")
        if op >= _IOTA or (op == _PAIR and free is not None and not _free_vars(node, free)):
            at[id(node)] = len(code)
            code.append((_ONCE if op == _PAIR else op, node, None, None))
            continue
        kids = children(node)
        push((op, node, kids))
        extend(kids[::-1])
    return code


def denote(inst: Instantiation, env: SemEnv, mt: M.MetaTerm) -> SemVal:
    """Interpret a metalanguage term under an instantiation.

    The top level and each lambda body are scopes, each flattened at most
    once per call (a body when it first runs) into a list in which a shared
    node appears once (sound because SemVal functions are pure). A run of a
    scope is a plain loop, linear in its DAG, whose values live only as long
    as the run; the host recurses only where one lambda's run calls another,
    never per literal constructor.

    A closed effect-value pair (one with no free meta variables) in a lambda
    body runs at most once per call: lazily, where a run of the body first
    reaches it, however often the lambda is applied. Its effect is a value
    like any other, so every use still combines it into the effect of the
    run that uses it. A pair that raises keeps nothing, and raises again at
    its next use.

    The lists and pair values are kept as long as the value denote returns,
    or any function taken from it, is alive: such a function runs its body
    after denote has returned, with the same tables, and goes on filling
    them. That is sound because the instantiation is fixed for the call.
    """
    eff = inst.effect
    iota = Eff(eff.eps)
    # keyed by node id, for this call and the functions it returns
    codes: dict[int, list[tuple]] = {}  # a lambda body's list
    free: dict[int, frozenset[str]] = {}  # a node's free meta variables
    once: dict[int, SemVal] = {}  # a closed pair's value

    def closure(lam: M.MLam, scope: SemEnv) -> SFun:
        body, var = lam.body, lam.var

        def call(a: SemVal) -> SemVal:
            code = codes.get(id(body))
            if code is None:
                code = codes[id(body)] = _flatten(body, free)
            return run(code, {**scope, var: a})

        return SFun(call)

    def run(code: list[tuple], scope: SemEnv) -> SemVal:
        vals: list[SemVal] = []
        push = vals.append
        for op, x, y, z in code:
            if op == _RIGHT:
                push(as_pair(vals[x]).snd)
            elif op == _LEFT:
                push(as_pair(vals[x]).fst)
            elif op == _PAIR:
                push(SPair(vals[x], vals[y]))
            elif op == _IOTA:
                push(iota)
            elif op == _APP:
                push(as_fun(vals[x]).fn(vals[y]))
            elif op == _COM:
                push(Eff(eff.com(as_eff(vals[x]).amount, as_eff(vals[y]).amount,
                                 as_eff(vals[z]).amount)))
            elif op == _VAR:
                try:
                    push(scope[x.name])
                except KeyError:
                    raise MetaTypeMismatch(
                        f"unbound meta variable {x.name!r} at interpretation time"
                    ) from None
            elif op == _ONCE:
                v = once.get(id(x))
                if v is None:
                    v = once[id(x)] = run(_flatten(x), {})
                push(v)
            elif op == _LAM:
                push(closure(x, scope))
            elif op == _INC:
                push(Eff(eff.inc(as_eff(vals[x]).amount)))
            elif op == _CONS:
                push(inst.cons(x.symbol))
            else:
                push(inst.func(x.symbol))
        return vals[-1]

    return run(_flatten(mt), dict(env))


def compose(inst: Instantiation, f: SemVal, a: SemVal) -> SemVal:
    """Apply an effect-paired function to an effect-paired argument.

    Combines the function's effect, the argument's effect, and the call's
    effect exactly the way a translated application does.
    """
    c_fun, fun = pair_parts(f)
    c_arg, arg = pair_parts(a)
    c_call, out = pair_parts(as_fun(fun).fn(arg))
    return spair(inst.effect.com(c_fun, c_arg, c_call), out)


# ---------------------------------------------------------------- plain semantics

# depth guard for the host-level search recursion, generous for desk-scale
# searches; each round takes several host frames, so under CPython's default
# recursion limit RecursionError fires long before this does
_SEARCH_DEPTH = 2000


def pure_denote(
    env: Mapping[str, SemVal],
    t: Term,
    oracle: Optional[OracleSpec] = None,
    search_depth: int = _SEARCH_DEPTH,
) -> SemVal:
    """Standard set-theoretic semantics, with no effects anywhere.

    Numerals mean naturals, lists mean sequences, arrows mean host
    functions. The oracle argument gives alpha a meaning when supplied.
    Used to cross-check values produced by every other route.
    """
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise MetaTypeMismatch(f"unbound variable {t.name!r}") from None
    if isinstance(t, Lam):
        body, var = t.body, t.var
        frozen = dict(env)
        return SFun(lambda a: pure_denote({**frozen, var: a}, body, oracle, search_depth))
    if isinstance(t, App):
        fn = as_fun(pure_denote(env, t.fun, oracle, search_depth))
        return fn.fn(pure_denote(env, t.arg, oracle, search_depth))
    if isinstance(t, Cons):
        return _pure_cons(t.name)
    if isinstance(t, Func):
        return _pure_func(t.name, oracle, search_depth)
    raise MissingInterpretation(repr(t))


def _pure_cons(name: str) -> SemVal:
    if name == "zero":
        return Base(0)
    if name == "succ":
        return SFun(lambda n: Base(as_base(n).value + 1))
    if name == "nil":
        return BaseList(())
    if name == "cons":
        return SFun(
            lambda a: SFun(lambda n: BaseList(as_list(a).items + (as_base(n).value,)))
        )
    raise MissingInterpretation(name)


def _pure_func(name: str, oracle: Optional[OracleSpec], depth: int) -> SemVal:
    if name == "add":
        return _pure_bin(lambda m, n: m + n)
    if name == "mul":
        return _pure_bin(lambda m, n: m * n)
    if name == "lt":
        return _pure_bin(lambda m, n: 0 if m < n else 1)
    if name == "len":
        return SFun(lambda a: Base(len(as_list(a).items)))
    if name == "ext":
        return SFun(
            lambda a: SFun(lambda n: Base(_pad(as_list(a).items, as_base(n).value)))
        )
    if name == "alpha":
        if oracle is None:
            raise MissingInterpretation("alpha", "no oracle supplied")
        g = oracle
        return SFun(lambda n: Base(g(as_base(n).value)))
    if name.startswith("rec["):
        return SFun(
            lambda a: SFun(lambda f: SFun(lambda n: _pure_rec(a, f, as_base(n).value)))
        )
    if name.startswith("fold["):
        return SFun(
            lambda a: SFun(lambda f: SFun(lambda xs: _pure_fold(a, f, as_list(xs).items)))
        )
    if name == "bar":
        return SFun(
            lambda w: SFun(
                lambda g: SFun(
                    lambda h: SFun(
                        lambda a: _pure_bar(w, g, h, as_list(a).items, depth)
                    )
                )
            )
        )
    if name == "bar1":
        return SFun(
            lambda w: SFun(
                lambda g: SFun(
                    lambda h: SFun(
                        lambda a: SFun(
                            lambda b: _pure_bar1(
                                w, g, h, as_list(a).items, as_base(b).value, depth
                            )
                        )
                    )
                )
            )
        )
    raise MissingInterpretation(name)


def _pure_bin(op: Callable[[int, int], int]) -> SemVal:
    return SFun(lambda m: SFun(lambda n: Base(op(as_base(m).value, as_base(n).value))))


def _pad(items: tuple[int, ...], n: int) -> int:
    # out-of-range lookups read as zero
    return items[n] if n < len(items) else 0


def _pure_rec(a: SemVal, f: SemVal, n: int) -> SemVal:
    cur = a
    for i in range(n):
        cur = as_fun(as_fun(f).fn(Base(i))).fn(cur)
    return cur


def _pure_fold(a: SemVal, f: SemVal, items: tuple[int, ...]) -> SemVal:
    # peeling from the right nests the same way as iterating left to right
    cur = a
    for z in items:
        cur = as_fun(as_fun(f).fn(Base(z))).fn(cur)
    return cur


def _pure_bar(
    w: SemVal, g: SemVal, h: SemVal, items: tuple[int, ...], depth: int
) -> SemVal:
    if depth <= 0:
        raise FuelExhausted(_SEARCH_DEPTH)
    padded = SFun(lambda i: Base(_pad(items, as_base(i).value)))
    settled = as_base(as_fun(w).fn(padded)).value
    if settled < len(items):
        return as_fun(g).fn(BaseList(items))
    cont = SFun(lambda x: _pure_bar(w, g, h, items + (as_base(x).value,), depth - 1))
    return as_fun(as_fun(h).fn(BaseList(items))).fn(cont)


def _pure_bar1(
    w: SemVal, g: SemVal, h: SemVal, items: tuple[int, ...], b: int, depth: int
) -> SemVal:
    if b == 0:
        return as_fun(g).fn(BaseList(items))
    cont = SFun(lambda x: _pure_bar(w, g, h, items + (as_base(x).value,), depth - 1))
    return as_fun(as_fun(h).fn(BaseList(items))).fn(cont)
