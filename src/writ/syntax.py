"""Types, terms, patterns, and typing of the object language.

Terms are immutable trees. The evaluator computes on host forms of values
and reads its result back as a closed term, substituting the values a
closure holds into its lambda. A numeral or list literal is one node, Lit,
holding its Python int or tuple of ints: it stands for the closed constructor
spine zero/succ or nil/cons, and fold_literal turns such a spine, built one
application at a time, into the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, TypeAlias

from .errors import TypeMismatch, UnboundVariable, UndeclaredSymbol

if TYPE_CHECKING:
    from .signatures import Signature

__all__ = [
    "Data", "Arrow", "Ty", "NAT", "LIST",
    "Var", "Cons", "Func", "Lam", "App", "Lit", "Term",
    "PVar", "PCons", "Pattern", "TyContext",
    "app", "spine", "free_vars", "symbols",
    "numeral", "numeral_value", "list_term", "list_value", "fold_literal", "literal_spine",
    "render_type", "render_term",
    "substitute", "typecheck",
]


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
class Data:
    """A declared base datatype such as Nat or List."""

    name: str


@dataclass(frozen=True)
class Arrow:
    """Function type; arrows associate to the right."""

    dom: "Ty"
    cod: "Ty"


Ty: TypeAlias = "Data | Arrow"

NAT = Data("Nat")
LIST = Data("List")


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Cons:
    """An occurrence of a constructor symbol."""

    name: str


@dataclass(frozen=True)
class Func:
    """An occurrence of a defined function symbol."""

    name: str


@dataclass(frozen=True)
class Lam:
    var: str
    var_ty: "Ty"
    body: "Term"


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Lit:
    """A numeral (an int) or a list literal (a tuple of ints)."""

    value: "int | tuple[int, ...]"


Term: TypeAlias = "Var | Cons | Func | Lam | App | Lit"

TyContext: TypeAlias = Mapping[str, "Ty"]


# ---------------------------------------------------------------- patterns

@dataclass(frozen=True)
class PVar:
    """Pattern variable; matches any value of the annotated type."""

    name: str
    ty: "Ty"


@dataclass(frozen=True)
class PCons:
    """Constructor pattern with sub-patterns for each argument."""

    cons: str
    args: tuple["Pattern", ...]


Pattern: TypeAlias = "PVar | PCons"


# ---------------------------------------------------------------- helpers

def app(fun: Term, *args: Term) -> Term:
    """Left-nested application of fun to args."""
    for a in args:
        fun = App(fun, a)
    return fun


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Decompose nested applications into (head, arguments)."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    return t, tuple(reversed(args))


def free_vars(t: Term) -> frozenset[str]:
    # iterative: values read back into terms can be deep
    free: set[str] = set()
    todo: list[tuple[Term, frozenset[str]]] = [(t, frozenset())]
    while todo:
        s, bound = todo.pop()
        if isinstance(s, Var):
            if s.name not in bound:
                free.add(s.name)
        elif isinstance(s, Lam):
            todo.append((s.body, bound | {s.var}))
        elif isinstance(s, App):
            todo.append((s.fun, bound))
            todo.append((s.arg, bound))
    return frozenset(free)


def symbols(t: Term) -> frozenset[str]:
    """All constructor and function symbol names occurring in t."""
    # iterative for the same reason as free_vars
    names: set[str] = set()
    todo: list[Term] = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, (Cons, Func)):
            names.add(s.name)
        elif isinstance(s, Lit) and type(s.value) is tuple:
            names.update(("nil", "cons") if s.value else ("nil",))
            todo.extend(map(Lit, set(s.value)))
        elif isinstance(s, Lit):
            names.update(("zero", "succ") if s.value else ("zero",))
        elif isinstance(s, Lam):
            todo.append(s.body)
        elif isinstance(s, App):
            todo.append(s.fun)
            todo.append(s.arg)
    return frozenset(names)


def numeral(n: int) -> Term:
    """The numeral for n."""
    if n < 0:
        raise ValueError("numerals are naturals")
    return Lit(n)


def numeral_value(t: Term) -> Optional[int]:
    """The number a numeral holds, or None if t is not one."""
    return t.value if isinstance(t, Lit) and type(t.value) is int else None


def list_term(items: Iterable[int]) -> Term:
    """The list literal for items, extended element by element on the right."""
    items = tuple(items)
    if any(n < 0 for n in items):
        raise ValueError("numerals are naturals")
    return Lit(items)


def list_value(t: Term) -> Optional[tuple[int, ...]]:
    """The items a list literal holds, or None if t is not one."""
    return t.value if isinstance(t, Lit) and type(t.value) is tuple else None


def fold_literal(t: Term) -> Term:
    """t as a literal if it is zero, nil, succ of a numeral, or cons of a list
    literal and a numeral; t itself otherwise. Only t's own node is looked
    at: its children are taken as folded already."""
    if isinstance(t, Cons):
        if t.name == "zero":
            return Lit(0)
        return Lit(()) if t.name == "nil" else t
    if not (isinstance(t, App) and isinstance(t.arg, Lit) and type(t.arg.value) is int):
        return t
    fun = t.fun
    if isinstance(fun, Cons) and fun.name == "succ":
        return Lit(t.arg.value + 1)
    if (isinstance(fun, App) and isinstance(fun.fun, Cons) and fun.fun.name == "cons"
            and isinstance(fun.arg, Lit) and type(fun.arg.value) is tuple):
        return Lit(fun.arg.value + (t.arg.value,))
    return t


def literal_spine(t: Lit) -> Term:
    """The whole constructor spine t stands for, built without recursion."""

    def spell(n: int) -> Term:
        out: Term = Cons("zero")
        for _ in range(n):
            out = App(Cons("succ"), out)
        return out

    v = t.value
    if type(v) is int:
        return spell(v)
    out: Term = Cons("nil")
    for n in v:
        out = App(App(Cons("cons"), out), spell(n))
    return out


def _unfold_literal(t: Lit) -> Term:
    """The outermost constructor application of the spine t stands for."""
    v = t.value
    if type(v) is int:
        return App(Cons("succ"), Lit(v - 1)) if v else Cons("zero")
    return App(App(Cons("cons"), Lit(v[:-1])), Lit(v[-1])) if v else Cons("nil")


# ---------------------------------------------------------------- rendering

def render_type(ty: Ty) -> str:
    if isinstance(ty, Data):
        return ty.name
    dom = render_type(ty.dom)
    if isinstance(ty.dom, Arrow):
        dom = f"({dom})"
    return f"{dom}->{render_type(ty.cod)}"


def render_term(t: Term) -> str:
    if isinstance(t, Lit):
        v = t.value
        return str(v) if type(v) is int else "[" + ",".join(map(str, v)) + "]"
    if isinstance(t, (Var, Cons, Func)):
        return t.name
    if isinstance(t, Lam):
        return f"fn {t.var}:{render_type(t.var_ty)} => {render_term(t.body)}"
    head, args = spine(t)
    # a list, not a generator, which would add a host frame per level
    return " ".join([f"({render_term(s)})" if isinstance(s, (Lam, App)) else render_term(s)
                     for s in (head, *args)])


# ---------------------------------------------------------------- substitution

def substitute(t: Term, binding: Mapping[str, Term]) -> Term:
    """Replace free occurrences of the bound names.

    Replacement terms must be closed, so capture cannot occur; a shadowing
    binder just stops the walk for its own name. Names without occurrences
    are silently ignored. An application with no replaced name under it is
    kept as it is; one that is rebuilt is folded (see fold_literal).
    """
    if not binding:
        return t
    if isinstance(t, Var):
        return binding.get(t.name, t)
    if isinstance(t, (Cons, Func, Lit)):
        return t
    if isinstance(t, Lam):
        if t.var in binding:
            inner = {k: v for k, v in binding.items() if k != t.var}
            if not inner:
                return t
            return Lam(t.var, t.var_ty, substitute(t.body, inner))
        return Lam(t.var, t.var_ty, substitute(t.body, binding))
    fun, arg = substitute(t.fun, binding), substitute(t.arg, binding)
    if fun is t.fun and arg is t.arg:
        return t
    return fold_literal(App(fun, arg))


# ---------------------------------------------------------------- typing

def _check_datatypes(sig: "Signature", ty: Ty) -> None:
    if isinstance(ty, Data):
        if ty.name not in sig.datatypes:
            raise UndeclaredSymbol(ty.name)
        return
    _check_datatypes(sig, ty.dom)
    _check_datatypes(sig, ty.cod)


# the constructors a literal is built from, with the types that let it be
# typed whole
_NAT_CONS = (("zero", NAT), ("succ", Arrow(NAT, NAT)))
_LIST_CONS = _NAT_CONS + (("nil", LIST), ("cons", Arrow(LIST, Arrow(NAT, LIST))))


def typecheck(sig: "Signature", ctx: TyContext, t: Term) -> Ty:
    """Type a term in context; raises on any violation."""
    if isinstance(t, Lit):
        ty, cons = (NAT, _NAT_CONS) if type(t.value) is int else (LIST, _LIST_CONS)
        if all(sig.has_cons(name) and sig.cons_type(name) == want for name, want in cons):
            return ty
        # a signature without the usual constructors types the spine
        return typecheck(sig, ctx, _unfold_literal(t))
    if isinstance(t, Var):
        if t.name not in ctx:
            raise UnboundVariable(t.name)
        return ctx[t.name]
    if isinstance(t, Cons):
        return sig.cons_type(t.name)
    if isinstance(t, Func):
        return sig.func_type(t.name)
    if isinstance(t, Lam):
        _check_datatypes(sig, t.var_ty)
        inner = dict(ctx)
        inner[t.var] = t.var_ty
        return Arrow(t.var_ty, typecheck(sig, inner, t.body))
    fun_ty = typecheck(sig, ctx, t.fun)
    if not isinstance(fun_ty, Arrow):
        raise TypeMismatch("a function type", render_type(fun_ty), render_term(t))
    arg_ty = typecheck(sig, ctx, t.arg)
    if arg_ty != fun_ty.dom:
        raise TypeMismatch(render_type(fun_ty.dom), render_type(arg_ty), render_term(t))
    return fun_ty.cod
