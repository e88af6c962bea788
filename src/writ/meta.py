"""The writer-style metalanguage and the instrumenting translation into it.

Every object term t of type r translates to a pair |t| : Gamma x lift(r):
an effect component and a value component. Arrows lift so that calling a
lifted function also yields an effect (lift(a->b) = lift(a) -> Gamma x
lift(b)). The translation is emitted literally, redexes and all; shared
subterms are built once and referenced twice, so consumers can treat the
output as a DAG. A literal translates to one leaf, MLit, which stands for
the translation of its constructor spine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, TypeAlias

from .errors import MetaTypeMismatch
from .signatures import Signature, system_t_list
from .syntax import (
    App, Arrow, Cons, Data, Func, Lam, Lit, Term, Ty, TyContext, Var, literal_spine,
    typecheck,
)

__all__ = [
    "Gamma", "GAMMA", "MData", "Prod", "MArrow", "MetaType",
    "Iota", "IOTA", "Inc", "Com", "MVar", "BCons", "BFunc",
    "MLam", "MApp", "MPair", "ProjL", "ProjR", "MLit", "MetaTerm",
    "children", "lift", "bcons_type", "bfunc_type", "translate", "meta_typecheck",
    "render_meta", "render_meta_type",
]


# ---------------------------------------------------------------- meta types

@dataclass(frozen=True)
class Gamma:
    """The effect type: cost or query annotations live here."""


@dataclass(frozen=True)
class MData:
    """A lifted base datatype."""

    name: str


@dataclass(frozen=True)
class Prod:
    left: "MetaType"
    right: "MetaType"


@dataclass(frozen=True)
class MArrow:
    dom: "MetaType"
    cod: "MetaType"


MetaType: TypeAlias = "Gamma | MData | Prod | MArrow"

GAMMA = Gamma()


def lift(ty: Ty) -> MetaType:
    """Lift an object type: arrows gain an effect on their result."""
    if isinstance(ty, Data):
        return MData(ty.name)
    return MArrow(lift(ty.dom), Prod(GAMMA, lift(ty.cod)))


# ---------------------------------------------------------------- meta terms

@dataclass(frozen=True)
class Iota:
    """The empty effect."""


@dataclass(frozen=True)
class Inc:
    """One more step on top of an effect."""

    body: "MetaTerm"


@dataclass(frozen=True)
class Com:
    """Combine the three effects of an application: function part, argument
    part, and the call itself."""

    first: "MetaTerm"
    second: "MetaTerm"
    third: "MetaTerm"


@dataclass(frozen=True)
class MVar:
    name: str


@dataclass(frozen=True)
class BCons:
    """Lifted constructor: plain arrows over lifted base types."""

    symbol: str


@dataclass(frozen=True)
class BFunc:
    """Lifted function symbol: plain argument arrows, effect-paired result."""

    symbol: str


@dataclass(frozen=True)
class MLam:
    """A lambda. free holds the names its body reads and does not bind,
    its own variable left out; the translation knows them as it makes every
    binder, and engine.denote captures exactly these."""

    var: str
    var_ty: "MetaType"
    body: "MetaTerm"
    free: frozenset[str] = field(compare=False)


@dataclass(frozen=True)
class MApp:
    fun: "MetaTerm"
    arg: "MetaTerm"


@dataclass(frozen=True)
class MPair:
    left: "MetaTerm"
    right: "MetaTerm"


@dataclass(frozen=True)
class ProjL:
    pair: "MetaTerm"


@dataclass(frozen=True)
class ProjR:
    pair: "MetaTerm"


@dataclass(frozen=True)
class MLit:
    """The translation of a literal's constructor spine, an effect-value pair."""

    value: "int | tuple[int, ...]"


MetaTerm: TypeAlias = (
    "Iota | Inc | Com | MVar | BCons | BFunc | MLam | MApp | MPair | ProjL | ProjR | MLit"
)

IOTA = Iota()
_LITERAL_SIG = system_t_list()  # declares every constructor of a literal's spine

# the direct subterms of each node kind that has any, left to right
_CHILDREN: dict[type, Callable[[MetaTerm], tuple[MetaTerm, ...]]] = {
    Inc: lambda n: (n.body,),
    Com: lambda n: (n.first, n.second, n.third),
    MLam: lambda n: (n.body,),
    MApp: lambda n: (n.fun, n.arg),
    MPair: lambda n: (n.left, n.right),
    ProjL: lambda n: (n.pair,),
    ProjR: lambda n: (n.pair,),
}


def children(mt: MetaTerm) -> tuple[MetaTerm, ...]:
    """The direct subterms of mt, left to right; a lambda's body is one."""
    kids = _CHILDREN.get(type(mt))
    return () if kids is None else kids(mt)


# ---------------------------------------------------------------- symbol types

def bcons_type(sig: Signature, symbol: str) -> MetaType:
    decl = sig.cons_decl(symbol)
    ty: MetaType = MData(decl.result)
    for arg in reversed(decl.args):
        ty = MArrow(MData(arg), ty)
    return ty


def _peel(ty: Ty, arity: int) -> tuple[list[Ty], Ty]:
    doms: list[Ty] = []
    for _ in range(arity):
        if not isinstance(ty, Arrow):
            raise MetaTypeMismatch("function symbol type shorter than its arity")
        doms.append(ty.dom)
        ty = ty.cod
    return doms, ty


def bfunc_type(sig: Signature, symbol: str) -> MetaType:
    decl = sig.func_decl(symbol)
    doms, result = _peel(decl.ty, decl.arity)
    ty: MetaType = Prod(GAMMA, lift(result))
    for dom in reversed(doms):
        ty = MArrow(lift(dom), ty)
    return ty


# ---------------------------------------------------------------- translation

def _lam_star(binders: list[tuple[str, MetaType]], body: MetaTerm) -> MetaTerm:
    # an iterated effect-free lambda: each layer is the pair (empty effect,
    # one binder), and reads the binders outside it; with no binders it is
    # the body itself
    for i, (name, mty) in reversed(list(enumerate(binders))):
        body = MPair(IOTA, MLam(name, mty, body, frozenset(n for n, _ in binders[:i])))
    return body


def translate(sig: Signature, ctx: TyContext, t: Term) -> MetaTerm:
    """Translate a well-typed term; the result pairs an effect with a value.

    Typechecks first as a guard, then proceeds structurally. The output is
    un-normalized on purpose: the pair/projection and beta redexes are left
    standing, and engine._flatten resolves them when denote flattens a
    scope.
    """
    typecheck(sig, ctx, t)
    return _translate(sig, t)


def _translate(sig: Signature, t: Term) -> MetaTerm:
    """Children first, on an explicit stack; each result sits on done with
    the term's free variables, which are its translation's too."""
    todo: list[tuple[Term, bool]] = [(t, False)]
    done: list[tuple[MetaTerm, frozenset[str]]] = []
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Lam):
            if not ready:
                todo += ((node, True), (node.body, False))
                continue
            body, free = done.pop()
            if node.var in free:
                free = free - {node.var}
            # crossing a lambda charges the pending beta step to the call site
            charged = MPair(Inc(ProjL(body)), ProjR(body))
            done.append((MPair(IOTA, MLam(node.var, lift(node.var_ty), charged, free)), free))
        elif isinstance(node, App):
            if not ready:
                todo += ((node, True), (node.arg, False), (node.fun, False))
                continue
            arg, arg_free = done.pop()
            fun, free = done.pop()
            if arg_free:
                free = free | arg_free if free else arg_free
            call = MApp(ProjR(fun), ProjR(arg))  # shared: referenced twice below
            done.append((MPair(Com(ProjL(fun), ProjL(arg), ProjL(call)), ProjR(call)), free))
        elif isinstance(node, Lit):
            done.append((MLit(node.value), frozenset()))
        else:
            free = frozenset((node.name,)) if isinstance(node, Var) else frozenset()
            done.append((_translate_leaf(sig, node), free))
    return done[0][0]


def _translate_leaf(sig: Signature, t: Term) -> MetaTerm:
    if isinstance(t, Var):
        return MPair(IOTA, MVar(t.name))
    if isinstance(t, Cons):
        decl = sig.cons_decl(t.name)
        binders = [(f"x{i + 1}",MData(d)) for i, d in enumerate(decl.args)]
        core: MetaTerm = BCons(t.name)
        for name, _ in binders:
            core = MApp(core, MVar(name))
        return _lam_star(binders, MPair(IOTA, core))
    if isinstance(t, Func):
        decl = sig.func_decl(t.name)
        doms, _ = _peel(decl.ty, decl.arity)
        binders = [(f"x{i + 1}", lift(d)) for i, d in enumerate(doms)]
        core = BFunc(t.name)
        for name, _ in binders:
            core = MApp(core, MVar(name))
        return _lam_star(binders, core)
    raise MetaTypeMismatch(f"cannot translate open variable-free term {t!r}")


# ---------------------------------------------------------------- meta typing

def meta_typecheck(
    sig: Signature, ctx: Mapping[str, MetaType], mt: MetaTerm
) -> MetaType:
    """Type a metalanguage term; shared subterms are typed once."""
    memo: dict[tuple[int, int], tuple[object, object, MetaType]] = {}

    def go(node: MetaTerm, env: Mapping[str, MetaType]) -> MetaType:
        key = (id(node), id(env))
        hit = memo.get(key)
        if hit is not None and hit[0] is node and hit[1] is env:
            return hit[2]
        ty = _check(node, env)
        memo[key] = (node, env, ty)
        return ty

    def _check(node: MetaTerm, env: Mapping[str, MetaType]) -> MetaType:
        if isinstance(node, Iota):
            return GAMMA
        if isinstance(node, Inc):
            _require(go(node.body, env), GAMMA, "the effect being extended")
            return GAMMA
        if isinstance(node, Com):
            for part in (node.first, node.second, node.third):
                _require(go(part, env), GAMMA, "an effect in a combination")
            return GAMMA
        if isinstance(node, MVar):
            if node.name not in env:
                raise MetaTypeMismatch(f"unbound meta variable {node.name!r}")
            return env[node.name]
        if isinstance(node, BCons):
            return bcons_type(sig, node.symbol)
        if isinstance(node, BFunc):
            return bfunc_type(sig, node.symbol)
        if isinstance(node, MLam):
            inner = dict(env)
            inner[node.var] = node.var_ty
            return MArrow(node.var_ty, go(node.body, inner))
        if isinstance(node, MApp):
            fun_ty = go(node.fun, env)
            if not isinstance(fun_ty, MArrow):
                raise MetaTypeMismatch(
                    f"applied a non-function of type {render_meta_type(fun_ty)}"
                )
            arg_ty = go(node.arg, env)
            _require(arg_ty, fun_ty.dom, "the argument of an application")
            return fun_ty.cod
        if isinstance(node, MPair):
            return Prod(go(node.left, env), go(node.right, env))
        if isinstance(node, (ProjL, ProjR)):
            pair_ty = go(node.pair, env)
            if not isinstance(pair_ty, Prod):
                raise MetaTypeMismatch(
                    f"projected from a non-pair of type {render_meta_type(pair_ty)}"
                )
            return pair_ty.left if isinstance(node, ProjL) else pair_ty.right
        if isinstance(node, MLit):
            return Prod(GAMMA, MData("Nat" if type(node.value) is int else "List"))
        raise MetaTypeMismatch(f"unknown metalanguage node {node!r}")

    def _require(actual: MetaType, expected: MetaType, where: str) -> None:
        if actual != expected:
            raise MetaTypeMismatch(
                f"{where} has type {render_meta_type(actual)}, "
                f"expected {render_meta_type(expected)}"
            )

    return go(mt, dict(ctx))


# ---------------------------------------------------------------- rendering

def render_meta_type(ty: MetaType) -> str:
    if isinstance(ty, Gamma):
        return "Eff"
    if isinstance(ty, MData):
        return ty.name
    if isinstance(ty, Prod):
        return f"({render_meta_type(ty.left)} * {render_meta_type(ty.right)})"
    return f"({render_meta_type(ty.dom)} -> {render_meta_type(ty.cod)})"


def render_meta(mt: MetaTerm) -> str:
    """Linear rendering for display; shared subterms print twice."""
    if isinstance(mt, MLit):
        return render_meta(_translate(_LITERAL_SIG, literal_spine(Lit(mt.value))))
    if isinstance(mt, Iota):
        return "iota"
    if isinstance(mt, Inc):
        return f"inc({render_meta(mt.body)})"
    if isinstance(mt, Com):
        parts = ", ".join(render_meta(p) for p in (mt.first, mt.second, mt.third))
        return f"com({parts})"
    if isinstance(mt, MVar):
        return mt.name
    if isinstance(mt, BCons):
        return f"{mt.symbol}'"
    if isinstance(mt, BFunc):
        return f"{mt.symbol}'"
    if isinstance(mt, MLam):
        return f"fn {mt.var}:{render_meta_type(mt.var_ty)} => {render_meta(mt.body)}"
    if isinstance(mt, MApp):
        return f"{_meta_atom(mt.fun)} {_meta_atom(mt.arg)}"
    if isinstance(mt, MPair):
        return f"({render_meta(mt.left)}, {render_meta(mt.right)})"
    if isinstance(mt, ProjL):
        return f"{_meta_atom(mt.pair)}.l"
    return f"{_meta_atom(mt.pair)}.r"


def _meta_atom(mt: MetaTerm) -> str:
    s = render_meta(mt)
    if isinstance(mt, (MLam, MApp)):
        return f"({s})"
    return s
