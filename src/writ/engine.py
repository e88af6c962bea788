"""Semantic domains and the metalanguage interpreter.

The metalanguage is interpreted over SemVal: naturals, finite numeral
sequences (the machine's own BaseList, which the exact cons extends in
constant time), pairs, host functions, and effect annotations drawn from one
EffectTriple (an empty effect, a one-step extension, and a three-way
combination). The value classes are slotted dataclasses, immutable by
convention rather than frozen, since the analyses build several per
recursor stage. Swapping the triple and the symbol interpretations changes
the analysis without touching the interpreter. denote runs the top level
and each closure's body as a loop over its nodes, and builds each literal
leaf once per call by folding the instantiation's constructors. When it
flattens a scope into that loop it resolves the translation's
administrative redexes: a projection of a pair built in the scope reads the
component, and an application of a lambda built in the scope runs the body
inline. So no pair, closure or call is made for them at run time, while
every effect, application and symbol read still runs once, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, TypeAlias

from .errors import MetaTypeMismatch, MissingInterpretation, ShapeMismatch
from . import meta as M
from .signatures import BaseList

__all__ = [
    "EffectTriple", "COST", "QUERIES", "TRIVIAL",
    "Eff", "Base", "BaseList", "SPair", "SFun", "SemVal", "SemEnv",
    "spair", "as_eff", "as_base", "as_list", "as_pair", "as_fun", "pair_parts",
    "curried", "EXACT_CONS",
    "render_semval",
    "Instantiation", "denote", "compose",
]


# ---------------------------------------------------------------- effects

@dataclass(frozen=True)
class EffectTriple:
    """One choice of effect algebra: empty, step, combination."""

    eps: object
    inc: Callable[[object], object]
    com: Callable[[object, object, object], object]


COST = EffectTriple(0, lambda c: c + 1, lambda a, b, c: a + b + c)
QUERIES = EffectTriple((), lambda c: c, lambda a, b, c: a + b + c)
TRIVIAL = EffectTriple(None, lambda c: None, lambda a, b, c: None)


# ---------------------------------------------------------------- values

# slotted and immutable by convention: nothing writes a field after
# construction, and a frozen dataclass would pay an object.__setattr__ per
# field on every build

@dataclass(slots=True, unsafe_hash=True)
class Eff:
    """An effect annotation, an element of the active carrier."""

    amount: object


@dataclass(slots=True, unsafe_hash=True)
class Base:
    """A natural number (or a size, under size-based analyses)."""

    value: int


@dataclass(slots=True, unsafe_hash=True)
class SPair:
    fst: "SemVal"
    snd: "SemVal"


@dataclass(slots=True, eq=False)
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


def curried(arity: int, finish: Callable[[tuple], SemVal]) -> SemVal:
    """A function of arity arguments, taken one at a time: it collects each
    argument's host value (a natural's int, a sequence itself) and hands the
    full tuple to finish."""

    def take(args: tuple) -> SemVal:
        if len(args) == arity:
            return finish(args)
        return SFun(lambda a: take(
            args + (a.value if type(a) is Base else as_list(a),)))

    return take(())


# the constructors wherever numerals and lists mean themselves: the plain
# semantics and the analyses whose values are exact
EXACT_CONS: Mapping[str, SemVal] = MappingProxyType({
    "zero": Base(0),
    "succ": SFun(lambda n: Base(as_base(n).value + 1)),
    "nil": BaseList(),
    "cons": SFun(lambda a: SFun(lambda n: as_list(a).snoc(as_base(n).value))),
})


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

_RIGHT, _LEFT, _PAIR, _APP, _COM, _INC, _IOTA, _VAR, _LAM, _CONS, _FUNC, _LIT = range(12)

# each node kind's opcode; from _IOTA on, the node is a leaf of its scope (a
# lambda's body is a scope of its own unless it is inlined)
_OPS: dict[type, int] = {
    M.ProjR: _RIGHT, M.ProjL: _LEFT, M.MPair: _PAIR, M.MApp: _APP, M.Com: _COM,
    M.Inc: _INC, M.Iota: _IOTA, M.MVar: _VAR, M.MLam: _LAM, M.BCons: _CONS,
    M.BFunc: _FUNC, M.MLit: _LIT,
}


def _flatten(root: M.MetaTerm) -> tuple[list[tuple], int]:
    """One scope as a children-first list of entries, and the position of
    the root's value in it, with the translation's administrative redexes
    resolved on the way.

    Each node resolves either to a position in the list or to a static
    value: a pair (_PAIR, left, right), or a lambda (_LAM, lam, env) with
    env the static bindings in force where it was built. A projection of a
    static pair is its component. An application of a static lambda places
    the lambda's body inline, at the application's position, under env plus
    the binder bound to the argument, with a memo of its own; a variable
    bound there resolves to what it is bound to. A static value gets an
    entry only where a value is needed at run time: as an operand of any
    other node, or as the root. A lambda's entry captures the static
    bindings it was built under. A lambda is not inlined inside its own
    inlined body, which bounds the inlining on any term, typed or not; that
    application calls a closure instead.

    Every other node gets one entry per scope or inlined body (the empty
    effect one per scope), a shared node once, in the order a left-to-right
    walk that remembers shared nodes would finish it. So every effect,
    application, symbol read, literal and shape check on a value from a
    call runs as often, and in the same order, as when each lambda's body
    ran as a scope at each call. Each entry is an opcode and three
    operands: positions in the list, or the node itself when it has no
    children (a lambda's second operand is its captures, pairs of a name
    and a position).
    """
    code: list[tuple] = []
    emit = code.append
    made: dict[int, tuple] = {}  # id of a static value -> (it, its position)
    inlining: set[int] = set()  # ids of the lambdas whose bodies are being inlined
    iota = None  # the position of the scope's one empty effect

    def position(v) -> int:
        return v if type(v) is int else made[id(v)][1]

    def place(v) -> int:
        """The position of v's value, giving v, and any static value it
        holds, an entry first if v is static."""
        if type(v) is int:
            return v
        todo = [v]
        while todo:
            w = todo[-1]
            if id(w) in made:
                todo.pop()
                continue
            parts = w[1:] if w[0] == _PAIR else w[2].values()
            waiting = [p for p in parts if type(p) is not int and id(p) not in made]
            if waiting:
                todo += waiting
                continue
            todo.pop()
            made[id(w)] = (w, len(code))
            if w[0] == _PAIR:
                emit((_PAIR, position(w[1]), position(w[2]), None))
            else:
                captures = tuple((name, position(p)) for name, p in w[2].items())
                emit((_LAM, w[1], captures, None))
        return made[id(v)][1]

    # the memo of the scope or inlined body being flattened (node id -> its
    # position or static value), and its static bindings
    at: dict[int, object] = {}
    env: dict[str, object] = {}
    top = at
    # nodes to visit, (op, node, children) to finish once the children are
    # resolved, and (application, lambda, memo, bindings) to finish an
    # inlined body and return to the memo and bindings around it
    todo: list = [root]
    pop, push, extend = todo.pop, todo.append, todo.extend
    op_of, children = _OPS.get, M.children
    while todo:
        node = pop()
        if type(node) is tuple:
            if len(node) == 4:
                app, lam, outer, env = node
                inlining.discard(id(lam))
                outer[id(app)] = at[id(lam.body)]
                at = outer
                continue
            op, node, kids = node
            first = at[id(kids[0])]
            static = type(first) is tuple
            if op == _PAIR:
                at[id(node)] = (_PAIR, first, at[id(kids[1])])
            elif op <= _LEFT and static and first[0] == _PAIR:  # a projection
                at[id(node)] = first[2] if op == _RIGHT else first[1]
            elif op == _APP and static and first[0] == _LAM and id(first[1]) not in inlining:
                lam = first[1]
                inlining.add(id(lam))
                push((node, lam, at, env))
                push(lam.body)
                env = {**first[2], lam.var: at[id(kids[1])]}
                at = {}
            else:
                slots = [place(at[id(kid)]) for kid in kids]
                at[id(node)] = len(code)
                emit((op, *slots, *(None,) * (3 - len(slots))))
            continue
        key = id(node)
        if key in at:
            continue
        op = op_of(type(node))
        if op is None:
            raise MetaTypeMismatch(f"unknown metalanguage node {node!r}")
        if op == _LAM:
            at[key] = (_LAM, node, env)
        elif op == _VAR and node.name in env:
            at[key] = env[node.name]
        elif op == _IOTA:
            if iota is None:
                iota = len(code)
                emit((_IOTA, node, None, None))
            at[key] = iota
        elif op > _IOTA:
            at[key] = len(code)
            emit((op, node, None, None))
        else:
            kids = children(node)
            push((op, node, kids))
            extend(kids[::-1])
    return code, place(top[id(root)])


def _literal(inst: "Instantiation", value: "int | tuple[int, ...]") -> SemVal:
    """What the translation of the literal's constructor spine denotes: each
    application of a constructor takes its interpretation to the value so
    far, and combines the empty effect, the effect so far and the empty
    effect of the call. The interpretations are read as the spine's run
    would read them."""
    eps, com = inst.effect.eps, inst.effect.com

    def numeral(n: int) -> tuple[object, SemVal]:
        c, v = eps, inst.cons("zero")
        for _ in range(n):
            c, v = com(eps, c, eps), as_fun(inst.cons("succ")).fn(v)
        return c, v

    if type(value) is int:
        c, v = numeral(value)
    else:
        c, v = eps, inst.cons("nil")
        for n in value:
            c_n, v_n = numeral(n)
            c = com(com(eps, c, eps), c_n, eps)
            v = as_fun(as_fun(inst.cons("cons")).fn(v)).fn(v_n)
    return SPair(Eff(c), v)


def denote(inst: Instantiation, env: SemEnv, mt: M.MetaTerm) -> SemVal:
    """Interpret a metalanguage term under an instantiation.

    The top level and the body of each lambda that becomes a closure are
    scopes, each flattened at most once per call (a body when it first
    runs) into a list in which a shared node appears once (sound because
    SemVal functions are pure). The flattener resolves the translation's
    administrative redexes statically (see _flatten): a projection of a pair
    built in the same scope reads the component, and an application of a
    lambda built in the same scope runs the lambda's body inline, so no
    pair, closure or call is made for them at run time. A run of a scope is
    a plain loop, linear in its list, whose values live only as long as the
    run; the host recurses only where one closure's run calls another. A
    literal leaf is built once per call, where a run first reaches it,
    however often the lambda around it is applied.

    The lists and literal values are kept as long as the value denote
    returns, or any function taken from it, is alive: such a function runs
    its body after denote has returned, with the same tables, and goes on
    filling them. That is sound because the instantiation is fixed for the
    call.
    """
    eff = inst.effect
    iota = Eff(eff.eps)
    # keyed by node id, for this call and the functions it returns
    codes: dict[int, tuple[list[tuple], int]] = {}  # a lambda body's list and root
    literals: dict[int, SemVal] = {}  # a literal leaf's value

    def closure(lam: M.MLam, scope: SemEnv) -> SFun:
        body, var = lam.body, lam.var

        def call(a: SemVal) -> SemVal:
            code = codes.get(id(body))
            if code is None:
                code = codes[id(body)] = _flatten(body)
            return run(*code, {**scope, var: a})

        return SFun(call)

    def run(code: list[tuple], root: int, scope: SemEnv) -> SemVal:
        vals: list[SemVal] = []
        push = vals.append
        for op, x, y, z in code:
            if op == _APP:
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
            elif op == _INC:
                push(Eff(eff.inc(as_eff(vals[x]).amount)))
            elif op == _PAIR:
                push(SPair(vals[x], vals[y]))
            elif op == _IOTA:
                push(iota)
            elif op == _CONS:
                push(inst.cons(x.symbol))
            elif op == _FUNC:
                push(inst.func(x.symbol))
            elif op == _RIGHT:
                push(as_pair(vals[x]).snd)
            elif op == _LEFT:
                push(as_pair(vals[x]).fst)
            elif op == _LAM:
                # a lambda built in an inlined body takes the values bound
                # there along
                push(closure(x, {**scope, **{name: vals[i] for name, i in y}} if y else scope))
            else:
                v = literals.get(id(x))
                if v is None:
                    v = literals[id(x)] = _literal(inst, x.value)
                push(v)
        return vals[root]

    return run(*_flatten(mt), dict(env))


def compose(inst: Instantiation, f: SemVal, a: SemVal) -> SemVal:
    """Apply an effect-paired function to an effect-paired argument.

    Combines the function's effect, the argument's effect, and the call's
    effect exactly the way a translated application does.
    """
    c_fun, fun = pair_parts(f)
    c_arg, arg = pair_parts(a)
    c_call, out = pair_parts(as_fun(fun).fn(arg))
    return spair(inst.effect.com(c_fun, c_arg, c_call), out)
