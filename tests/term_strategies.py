"""Hypothesis strategies for small closed well-typed terms.

Terms are built top-down from the type they must have. Every node is a
variable in scope, a literal, a lambda, an application of a generated
function to a generated argument, or a symbol of the signature applied to
as many generated arguments as leave the wanted type. The symbols are those
of system_t, plus the numeral builtins add, mul and lt when arithmetic or
lists are on, plus the rest of system_t_list and the list lookup ext when
lists are on, with the recursor families at first-order (Nat, List) and
second-order (Nat->Nat) indices.
Binders reuse a few names, so shadowing comes up too.
"""

from __future__ import annotations

from hypothesis import strategies as st

from writ import LIST, NAT, Arrow, Cons, Func, Lam, Var, app, list_term, numeral
from writ.syntax import Term, Ty, render_type

N2N = Arrow(NAT, NAT)
NAT2 = Arrow(NAT, N2N)
FUNCTIONAL = Arrow(N2N, NAT)

_NAMES = ("x", "y", "z")


def _family(kind: str, index: Ty) -> tuple[Term, Ty]:
    domain = LIST if kind == "fold" else NAT
    step = Arrow(NAT, Arrow(index, index))
    return Func(f"{kind}[{render_type(index)}]"), Arrow(index, Arrow(step, Arrow(domain, index)))


def _symbols(lists: bool, arithmetic: bool) -> list[tuple[Term, Ty]]:
    out = [(Cons("succ"), N2N), _family("rec", NAT), _family("rec", N2N)]
    if lists or arithmetic:
        out += [(Func("add"), NAT2), (Func("mul"), NAT2), (Func("lt"), NAT2)]
    if lists:
        out += [
            (Cons("cons"), Arrow(LIST, Arrow(NAT, LIST))),
            (Func("len"), Arrow(LIST, NAT)),
            (Func("ext"), Arrow(LIST, N2N)),
            _family("rec", LIST),
            _family("fold", NAT),
            _family("fold", LIST),
            _family("fold", N2N),
        ]
    return out


def _term(draw, ty: Ty, ctx: dict[str, Ty], depth: int, syms: list, arg_types: tuple) -> Term:
    # each option is a thunk; drawing its index lets hypothesis shrink the
    # choice towards the earlier, simpler options
    options = []
    in_scope = sorted(name for name, t in ctx.items() if t == ty)
    if in_scope:
        options.append(lambda: Var(draw(st.sampled_from(in_scope))))
    if ty == NAT:
        options.append(lambda: numeral(draw(st.integers(0, 3))))
    if ty == LIST:
        options.append(lambda: list_term(draw(st.lists(st.integers(0, 3), max_size=3))))
    if isinstance(ty, Arrow):
        def lam() -> Term:
            name = draw(st.sampled_from(_NAMES))
            body = _term(draw, ty.cod, {**ctx, name: ty.dom}, max(depth - 1, 0), syms, arg_types)
            return Lam(name, ty.dom, body)
        options.append(lam)
    for sym, sym_ty in syms:
        doms = []
        while True:
            if sym_ty == ty and (depth > 0 or not doms):
                options.append(lambda sym=sym, doms=tuple(doms): app(
                    sym, *(_term(draw, d, ctx, depth - 1, syms, arg_types) for d in doms)))
            if not isinstance(sym_ty, Arrow):
                break
            doms.append(sym_ty.dom)
            sym_ty = sym_ty.cod
    if depth > 0:
        def apply() -> Term:
            a = draw(st.sampled_from(arg_types))
            fun = _term(draw, Arrow(a, ty), ctx, depth - 1, syms, arg_types)
            return app(fun, _term(draw, a, ctx, depth - 1, syms, arg_types))
        options.append(apply)
    return options[draw(st.integers(0, len(options) - 1))]()


@st.composite
def closed_terms(
    draw, ty: Ty, lists: bool = True, max_depth: int = 3, arithmetic: bool = False
) -> Term:
    """A closed term of type ty over system_t, with add, mul and lt if
    arithmetic, or over system_t_list and ext if lists."""
    arg_types = (NAT, N2N, LIST) if lists else (NAT, N2N)
    return _term(draw, ty, {}, max_depth, _symbols(lists, arithmetic), arg_types)
