"""Semantic domains and the metalanguage interpreter.

The metalanguage is interpreted over SemVal: naturals, finite numeral
sequences (the machine's own BaseList, which the exact cons extends in
constant time), pairs, host functions, and effects. An effect is an element
of the carrier of one EffectTriple (an empty effect, a one-step extension,
and a three-way combination) as it is, with no box around it: an int under
COST, a query log under QUERIES, None under TRIVIAL. The value classes are
slotted dataclasses, immutable by convention rather than frozen, since the
analyses build several per recursor stage. Swapping the triple and the
symbol interpretations changes the analysis without touching the
interpreter. denote flattens the top level and each closure's body into a
list of entries, and compiles each list into a host function with one
statement per entry rather than running a loop over its nodes. It does so
once per meta term, whatever the instantiation: the compiled scopes stay
with the meta term for as long as it lives, and only the closures' cells,
their makers over one call's tables and the literal values are made per
call. Closures are flat: a body compiles to a maker that takes the values the
lambda reads from the scopes around it (the names the translation records
in MLam.free) and returns a plain Python function of the argument, so a
call of a closure is one Python frame. denote
builds each literal leaf once per call: in closed form, in constant time,
under the exact constructors when three empty effects combine to the empty
effect, and otherwise by folding the instantiation's constructors. QUERIES
combines query logs in constant time, as a rope (QueryLog) read out in
order. When it flattens a scope it resolves the translation's administrative
redexes: a projection of a pair built in the scope reads the component, and
an application of a lambda built in the scope runs the body inline. So no
pair, closure or call is made for them at run time, while every effect,
application and symbol read still runs once, in order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, TypeAlias

from .errors import MetaTypeMismatch, MissingInterpretation, ShapeMismatch
from . import meta as M
from .signatures import BaseList

__all__ = [
    "EffectTriple", "COST", "QUERIES", "TRIVIAL",
    "Base", "SPair", "SFun", "SemVal", "SemEnv",
    "spair", "as_eff", "as_base", "as_list", "as_pair", "as_fun", "pair_parts",
    "EXACT_CONS", "EXACT_NAT_CONS", "QueryLog",
    "render_semval",
    "Instantiation", "denote", "compose",
]


# ---------------------------------------------------------------- effects

@dataclass(frozen=True)
class EffectTriple:
    """One choice of effect algebra: empty, step, combination. An effect is a
    carrier element itself, told from a value by its class alone, so no
    carrier element may be a Base, BaseList, SPair or SFun (as none of
    COST's, QUERIES' or TRIVIAL's is)."""

    eps: object
    inc: Callable[[object], object]
    com: Callable[[object, object, object], object]


class QueryLog:
    """A query log made by QUERIES.com: the concatenation of its parts, each
    a non-empty tuple or log, held as they are (a rope), so a combination
    copies nothing. It reads out in order by a loop on an explicit stack,
    however deep the nesting, and compares and hashes as the flat tuple of
    its queries."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple) -> None:
        self.parts = parts

    def __iter__(self):
        todo: list = [self]
        pop, extend = todo.pop, todo.extend
        while todo:
            part = pop()
            if type(part) is QueryLog:
                extend(part.parts[::-1])
            else:
                yield from part

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, QueryLog)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _log_com(a, b, c):
    """The query logs a, b and c one after another, in constant time: the
    one non-empty log itself, or a QueryLog of the non-empty ones."""
    if a:
        if b:
            return QueryLog((a, b, c) if c else (a, b))
        return QueryLog((a, c)) if c else a
    if b:
        return QueryLog((b, c)) if c else b
    return c


COST = EffectTriple(0, lambda c: c + 1, lambda a, b, c: a + b + c)
QUERIES = EffectTriple((), lambda c: c, _log_com)
TRIVIAL = EffectTriple(None, lambda c: None, lambda a, b, c: None)


# ---------------------------------------------------------------- values

# slotted and immutable by convention: nothing writes a field after
# construction, and a frozen dataclass would pay an object.__setattr__ per
# field on every build

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


SemVal: TypeAlias = "Base | BaseList | SPair | SFun | object"
SemEnv: TypeAlias = Mapping[str, "SemVal"]

# the classes of the values that are not effects
_VALUES = frozenset((Base, BaseList, SPair, SFun))


def spair(amount: object, value: SemVal) -> SPair:
    """Pair an effect, a carrier element, with a value."""
    return SPair(amount, value)


def as_eff(v: SemVal) -> object:
    """v itself, a carrier element, unless it is one of the other values."""
    if type(v) in _VALUES:
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
    """Split an effect-value pair into (effect, value)."""
    p = as_pair(v)
    return as_eff(p.fst), p.snd


# the constructors wherever numerals and lists mean themselves: the plain
# semantics and the analyses whose values are exact
EXACT_CONS: Mapping[str, SemVal] = MappingProxyType({
    "zero": Base(0),
    "succ": SFun(lambda n: Base(as_base(n).value + 1)),
    "nil": BaseList(),
    "cons": SFun(lambda a: SFun(lambda n: as_list(a).snoc(as_base(n).value))),
})

# the same constructors over the numerals alone
EXACT_NAT_CONS: Mapping[str, SemVal] = MappingProxyType(
    {name: EXACT_CONS[name] for name in ("zero", "succ")})


def render_semval(v: SemVal) -> object:
    """JSON-friendly view: naturals, sequences and effects verbatim, functions opaque."""
    if isinstance(v, Base):
        return v.value
    if isinstance(v, BaseList):
        return list(v.items)
    if isinstance(v, SPair):
        return [render_semval(v.fst), render_semval(v.snd)]
    if isinstance(v, SFun):
        return "<function>"
    return list(v) if isinstance(v, (tuple, QueryLog)) else v


# ---------------------------------------------------------------- instantiation

@dataclass(frozen=True)
class Instantiation:
    """An analysis: one effect algebra plus symbol interpretations.

    cons and func are the only readers of the two tables. A member of an
    indexed family with no entry of its own, such as rec[Nat->Nat], takes
    the entry of its head ("rec").
    """

    name: str
    effect: EffectTriple
    cons_interp: Mapping[str, SemVal]
    func_interp: Mapping[str, SemVal]

    def cons(self, symbol: str) -> SemVal:
        try:
            return self.cons_interp[symbol]
        except KeyError:
            raise MissingInterpretation(symbol, f"not in {self.name}") from None

    def func(self, symbol: str) -> SemVal:
        hit = self.func_interp.get(symbol)
        if hit is None and "[" in symbol:
            hit = self.func_interp.get(symbol.partition("[")[0])
        if hit is None:
            raise MissingInterpretation(symbol, f"not in {self.name}")
        return hit


# ---------------------------------------------------------------- interpreter

_RIGHT, _LEFT, _PAIR, _APP, _COM, _INC, _IOTA, _VAR, _LAM, _CONS, _FUNC, _LIT, _ARG = range(13)

# each node kind's opcode; from _IOTA on, the node is a leaf of its scope (a
# lambda's body is a scope of its own unless it is inlined). _ARG, a
# parameter of a closure's body, has no node kind
_OPS: dict[type, int] = {
    M.ProjR: _RIGHT, M.ProjL: _LEFT, M.MPair: _PAIR, M.MApp: _APP, M.Com: _COM,
    M.Inc: _INC, M.Iota: _IOTA, M.MVar: _VAR, M.MLam: _LAM, M.BCons: _CONS,
    M.BFunc: _FUNC, M.MLit: _LIT,
}

class _Body(tuple):
    """A lambda's body and the parameters it compiles under, its captured
    names then its variable: the static half of a closure's cell."""

    __slots__ = ()


def _flatten(root: M.MetaTerm, params: tuple[str, ...] = ()) -> tuple[list[tuple], int]:
    """One scope as a children-first list of entries, and the position of
    the root's value in it, with the translation's administrative redexes
    resolved on the way.

    The list starts with an _ARG entry for each of params, the names a
    closure's body takes as its parameters; a variable of one of them
    resolves to its position. Any other variable no binder in the scope
    binds gets a _VAR entry, which reads denote's environment by name.

    Each node resolves either to a position in the list or to a static
    value: a pair (_PAIR, left, right), or a lambda (_LAM, lam, env) with
    env the static bindings in force where it was built. A projection of a
    static pair is its component. An application of a static lambda places
    the lambda's body inline, at the application's position, under env plus
    the binder bound to the argument, with a memo of its own; a variable
    bound there resolves to what it is bound to. A static value gets an
    entry only where a value is needed at run time: as an operand of any
    other node, or as the root. A lambda is not inlined inside its own
    inlined body, which bounds the inlining on any term, typed or not; that
    application calls a closure instead.

    A lambda's entry makes a closure. It captures the bindings of env that
    the lambda reads (lam.free, which the translation records), in env's
    order, by position. Its first operand is a _Body, the lambda's body and
    its parameters (the captured names, then the lambda's variable); its
    second is the captured positions.

    Every other node gets one entry per scope or inlined body (the empty
    effect one per scope), a shared node once, in the order a left-to-right
    walk that remembers shared nodes would finish it. So every effect,
    application, symbol read, literal and shape check on a value from a
    call runs as often, and in the same order, as when each lambda's body
    ran as a scope at each call. Each entry is an opcode and three
    operands: positions in the list, or the node itself when it has no
    children.
    """
    code: list[tuple] = [(_ARG, name, None, None) for name in params]
    emit = code.append
    made: dict[int, tuple] = {}  # id of a static value -> (it, its position)
    inlining: set[int] = set()  # ids of the lambdas whose bodies are being inlined
    iota = None  # the position of the scope's one empty effect

    def position(v) -> int:
        return v if type(v) is int else made[id(v)][1]

    def captured(lam: tuple) -> tuple[str, ...]:
        reads = lam[1].free
        return tuple(name for name in lam[2] if name in reads)

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
            parts = w[1:] if w[0] == _PAIR else [w[2][name] for name in captured(w)]
            waiting = [p for p in parts if type(p) is not int and id(p) not in made]
            if waiting:
                todo += waiting
                continue
            todo.pop()
            made[id(w)] = (w, len(code))
            if w[0] == _PAIR:
                emit((_PAIR, position(w[1]), position(w[2]), None))
            else:
                names, lam = captured(w), w[1]
                emit((_LAM, _Body((lam.body, (*names, lam.var))),
                      tuple(position(w[2][name]) for name in names), None))
        return made[id(v)][1]

    # the memo of the scope or inlined body being flattened (node id -> its
    # position or static value), and its static bindings
    at: dict[int, object] = {}
    env: dict[str, object] = {name: i for i, name in enumerate(params)}
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
    application of a constructor takes its interpretation, read through
    inst.cons, to the value so far, and combines the empty effect, the
    effect so far and the empty effect of the call. The interpretations are
    read as the spine's run would read them, one read per application.

    Under the exact constructors (EXACT_CONS, or EXACT_NAT_CONS for a
    numeral: the very tables) a literal means itself, and when the
    combination of three empty effects is the empty effect, so is every
    effect of the spine: then the pair is made at once, in constant time,
    and no constructor is read. Anything else runs the fold."""
    eps, com, cons = inst.effect.eps, inst.effect.com, inst.cons
    table = inst.cons_interp
    exact = table is EXACT_CONS or table is EXACT_NAT_CONS and type(value) is int
    if exact and com(eps, eps, eps) == eps:
        return SPair(eps, Base(value) if type(value) is int else BaseList(value))

    def numeral(n: int) -> tuple[object, SemVal]:
        c, v = eps, cons("zero")
        for _ in range(n):
            f = cons("succ")
            c, v = com(eps, c, eps), (f if type(f) is SFun else as_fun(f)).fn(v)
        return c, v

    if type(value) is int:
        c, v = numeral(value)
    else:
        c, v = eps, cons("nil")
        for n in value:
            c_n, v_n = numeral(n)
            c = com(com(eps, c, eps), c_n, eps)
            f = cons("cons")
            f = (f if type(f) is SFun else as_fun(f)).fn(v)
            v = (f if type(f) is SFun else as_fun(f)).fn(v_n)
    return SPair(c, v)


_MISSING = object()  # what the environment gives for a name it does not bind


def _unbound(name: str) -> SemVal:
    raise MetaTypeMismatch(f"unbound meta variable {name!r} at interpretation time")


def _malformed(message: str) -> Callable[..., Callable[[SemVal], SemVal]]:
    """A maker whose closures raise MetaTypeMismatch(message) at each call."""
    def run(arg: SemVal) -> SemVal:
        raise MetaTypeMismatch(message)
    return lambda *captured: run


# the names a compiled scope's source reads besides its values v<n>, its
# leaves K[<n>] and its factory's parameters (the leaves, and the helpers of
# one denote call)
_HELPERS = {"VALUES": _VALUES, "SPair": SPair, "SFun": SFun, "as_eff": as_eff, "as_pair": as_pair,
            "as_fun": as_fun, "MISSING": _MISSING, "unbound": _unbound}

# opcodes whose value has a known class (an effect, or a value's class), which
# a reader of it need not check
_KNOWN = {_IOTA: "eff", _COM: "eff", _INC: "eff", _PAIR: "SPair", _LIT: "SPair", _LAM: "SFun"}


def _compile(code: list[tuple], root: int) -> tuple[str, tuple]:
    """The source of a factory for one flattened scope, and the leaves it
    reads. The factory returns a maker, make, that takes the values of the
    scope's _ARG entries but the last and returns run, a function of the
    last (of nothing at the top level, which has none): a closure's
    captured values, then its argument. run has one statement per other
    entry, in the list's order, then returns the root's value.

    The source holds only opcodes and positions: every name, symbol and
    lambda's _Body, and each literal's id and value, is a leaf, read from
    K, so scopes of one shape with other names or literal values have the
    same source. The leaves hold no node but lambdas' bodies. A value read
    for its shape is checked with the as_* guard, and so fails with the
    same error, unless the entry that made it fixes its class. A lambda's
    entry makes a closure, an SFun over the run its body's maker returns
    for the captured values. Its leaf in K is the lambda's cell of the
    denote call (which puts it in the _Body's place): [compiled maker or
    None, body, parameters], whose maker, when the lambda captures nothing,
    is that run itself. So a call of a closure is one call of a plain
    Python function.
    """
    leaves: list = []
    params = [f"v{n}" for n, entry in enumerate(code) if entry[0] == _ARG]
    lines = ["def factory(K, iota, com, inc, cons, func, literals, literal, body, env):",
             f" def make({', '.join(params[:-1])}):",
             f"  def run({', '.join(params[-1:])}):"]
    emit = lines.append

    def leaf(x: object) -> str:
        leaves.append(x)
        return f"K[{len(leaves) - 1}]"

    def read(i: int, cls: str, guard: str) -> str:
        if _KNOWN.get(code[i][0]) == cls:
            return f"v{i}"
        test = "not in VALUES" if cls == "eff" else f"is {cls}"
        return f"(v{i} if type(v{i}) {test} else {guard}(v{i}))"

    for n, (op, x, y, z) in enumerate(code):
        v = f"   v{n} = "
        if op == _APP:
            emit(f"{v}{read(x, 'SFun', 'as_fun')}.fn(v{y})")
        elif op == _COM:
            emit(f"{v}com({read(x, 'eff', 'as_eff')}, {read(y, 'eff', 'as_eff')}, "
                 f"{read(z, 'eff', 'as_eff')})")
        elif op == _VAR:
            name = leaf(x.name)
            emit(f"{v}env.get({name}, MISSING)")
            emit(f"   if v{n} is MISSING: unbound({name})")
        elif op == _INC:
            emit(f"{v}inc({read(x, 'eff', 'as_eff')})")
        elif op == _PAIR:
            emit(f"{v}SPair(v{x}, v{y})")
        elif op == _IOTA:
            emit(f"{v}iota")
        elif op == _CONS:
            emit(f"{v}cons({leaf(x.symbol)})")
        elif op == _FUNC:
            emit(f"{v}func({leaf(x.symbol)})")
        elif op == _RIGHT:
            emit(f"{v}{read(x, 'SPair', 'as_pair')}.snd")
        elif op == _LEFT:
            emit(f"{v}{read(x, 'SPair', 'as_pair')}.fst")
        elif op == _LAM:
            # the body is compiled when the first closure over it is built
            cell = leaf(x)
            fn = f"{cell}[0] or body({cell})"
            emit(f"{v}SFun(({fn})({', '.join(f'v{i}' for i in y)}))" if y
                 else f"{v}SFun({fn})")
        elif op == _LIT:
            key = leaf(id(x))
            emit(f"{v}literals.get({key})")
            emit(f"   if v{n} is None: v{n} = literal({key}, {leaf(x.value)})")
    emit(f"   return v{root}")
    emit("  return run")
    emit(" return make")
    return "\n".join(lines), tuple(leaves)


# the shipped corpus and the benchmark's families compile 48 shapes between
# them, so every one of them stays compiled
@lru_cache(maxsize=256)
def _factory(source: str) -> Callable[..., Callable[..., SemVal]]:
    """The factory a scope's source defines, compiled once per source text."""
    namespace = dict(_HELPERS)
    exec(compile(source, "<writ scope>", "exec"), namespace)
    return namespace["factory"]


# the compiled scopes of the live meta terms: the id of a scope's root ->
# (a weak reference to the root, {params: (factory, leaves, the positions of
# the _Body leaves)}). An entry leaves when its root dies, and a hit must
# find the root itself, so a recycled id never hits. The leaves hold no node
# but the bodies of lambdas below the root, so no entry keeps its root alive.
_SCOPES: dict[int, tuple[weakref.ref, dict]] = {}


def _scope(root: M.MetaTerm, params: tuple[str, ...]) -> tuple[Callable, tuple, tuple[int, ...]]:
    """The factory and leaves of root's scope under params, with the
    positions of its _Body leaves: flattened and compiled at the first
    request, and kept for as long as root lives. A scope whose flattening
    fails is not kept, so it fails again at each request."""
    key = id(root)
    entry = _SCOPES.get(key)
    if entry is not None and entry[0]() is root:
        hit = entry[1].get(params)
        if hit is not None:
            return hit
    source, leaves = _compile(*_flatten(root, params))
    hit = (_factory(source), leaves,
           tuple(i for i, x in enumerate(leaves) if type(x) is _Body))
    if entry is None or entry[0]() is not root:
        entry = _SCOPES[key] = (weakref.ref(root, lambda _: _SCOPES.pop(key, None)), {})
    entry[1][params] = hit
    return hit


def denote(inst: Instantiation, env: SemEnv, mt: M.MetaTerm) -> SemVal:
    """Interpret a metalanguage term under an instantiation.

    The top level and the body of each lambda that becomes a closure are
    scopes, each flattened into a list in which a shared node appears once
    (sound because SemVal functions are pure). The flattener resolves the
    translation's administrative redexes statically (see _flatten): a
    projection of a pair built in the same scope reads the component, and
    an application of a lambda built in the same scope runs the lambda's
    body inline, so no pair, closure or call is made for them at run time.
    Each list is then compiled into a flat host function with one statement
    per entry (see _compile); a cache keyed by its source text, which holds
    no names or literal values, keeps the recent shapes compiled across
    terms. So a run of a scope executes no loop over its nodes, and its
    values live only as long as the run.

    A scope is flattened and compiled once per meta term, not per call:
    its factory and leaves stay with the scope's root, keyed by the root's
    identity, for as long as the root lives (see _scope), so a second
    denote of the same meta term, under any instantiation, flattens and
    compiles nothing. Only the tables of one call are made per call: the
    closures' cells, the compiled makers over the call's instantiation and
    environment, and the literal values.

    Closures are flat (closure conversion): a lambda's body gets a maker
    once per call of denote and per set of captured names, when the first
    closure over it is built. The maker's parameters are the values the
    body reads from the scopes around it (those of lam.free that a binder
    there binds), by position. A closure is the function of its argument
    that the maker returns for its captured values, or, when it captures
    nothing, one function shared by every closure over the body. So a call
    of it is one Python frame, and the host recurses only where one
    closure's run calls another. Only a name that no binder binds is read
    by name, from env, where the body reads it, so an unbound one raises
    there. A body whose flattening fails raises at each call of its
    closures, as it would if it were flattened at its first call. A literal
    leaf is built once per call, where a run first reaches it, however
    often the lambda around it is applied.

    The makers and literal values of a call are kept as long as the value
    denote returns, or any function taken from it, is alive: such a
    function runs its body after denote has returned, with the same
    tables, and goes on filling them. That is sound because the
    instantiation is fixed for the call.
    """
    eff = inst.effect
    iota = eff.eps
    env = dict(env)
    # keyed by node id, for this call and the functions it returns
    literals: dict[int, SemVal] = {}  # a literal leaf's value
    cells: dict[tuple[int, tuple[str, ...]], list] = {}  # see _compile

    def literal(key: int, value: "int | tuple[int, ...]") -> SemVal:
        v = literals[key] = _literal(inst, value)
        return v

    def compiled(root: M.MetaTerm, params: tuple[str, ...]) -> Callable[..., Callable]:
        factory, leaves, bodies = _scope(root, params)
        if bodies:
            leaves = list(leaves)
            for i in bodies:
                lam_body, lam_params = leaves[i]
                key = (id(lam_body), lam_params)
                cell = cells.get(key)
                if cell is None:
                    cell = cells[key] = [None, lam_body, lam_params]
                leaves[i] = cell
        return factory(leaves, iota, eff.com, eff.inc, inst.cons, inst.func,
                       literals, literal, body, env)

    def body(cell: list) -> Callable:
        _, lam_body, params = cell
        try:
            make = compiled(lam_body, params)
        except MetaTypeMismatch as err:
            make = _malformed(str(err))
        # a lambda that captures nothing has its variable alone for params
        cell[0] = make if len(params) > 1 else make()
        return cell[0]

    return compiled(mt, ())()()


def compose(inst: Instantiation, f: SemVal, a: SemVal) -> SemVal:
    """Apply an effect-paired function to an effect-paired argument.

    Combines the function's effect, the argument's effect, and the call's
    effect exactly the way a translated application does.
    """
    c_fun, fun = pair_parts(f)
    c_arg, arg = pair_parts(a)
    c_call, out = pair_parts(as_fun(fun).fn(arg))
    return spair(inst.effect.com(c_fun, c_arg, c_call), out)
