"""The effect-free reference semantics, kept as the value oracle every other
route must match.

pure_denote interprets source terms directly, without going through the
translation. Like the exact analyses, it takes its constructors from
EXACT_CONS and runs the signature's own builtin deltas.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from writ.engine import (
    EXACT_CONS,
    Base,
    BaseList,
    SemVal,
    SFun,
    as_base,
    as_fun,
    as_list,
)
from writ.errors import FuelExhausted, MetaTypeMismatch, MissingInterpretation
from writ.signatures import BUILTINS, OracleSpec
from writ.syntax import App, Cons, Func, Lam, Lit, Term, Var

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
        try:
            return EXACT_CONS[t.name]
        except KeyError:
            raise MissingInterpretation(t.name) from None
    if isinstance(t, Func):
        return _pure_func(t.name, oracle, search_depth)
    if isinstance(t, Lit):
        v = t.value
        return Base(v) if type(v) is int else BaseList(v)
    raise MissingInterpretation(repr(t))


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


def _pure_func(name: str, oracle: Optional[OracleSpec], depth: int) -> SemVal:
    builtin = BUILTINS.get(name)
    if builtin is not None:
        return curried(builtin.arity, lambda args: Base(builtin.delta(args)))
    if name == "alpha":
        if oracle is None:
            raise MissingInterpretation("alpha", "no oracle supplied")
        g = oracle
        return SFun(lambda n: Base(g(as_base(n).value)))
    if name.startswith(("rec[", "fold[")):
        # rec runs its stages at 0..n-1, fold at the items; peeling a list
        # from the right nests the same way as iterating left to right
        def stages(a: SemVal, f: SemVal, arg: SemVal) -> SemVal:
            for i in range(as_base(arg).value) if name[0] == "r" else as_list(arg).items:
                a = as_fun(as_fun(f).fn(Base(i))).fn(a)
            return a

        return SFun(lambda a: SFun(lambda f: SFun(lambda arg: stages(a, f, arg))))
    if name == "bar":
        return SFun(lambda w: SFun(lambda g: SFun(lambda h: SFun(
            lambda a: _pure_bar(w, g, h, as_list(a), depth)))))
    raise MissingInterpretation(name)


def _pure_bar(w: SemVal, g: SemVal, h: SemVal, xs: BaseList, depth: int) -> SemVal:
    if depth <= 0:
        raise FuelExhausted(_SEARCH_DEPTH)
    ext = BUILTINS["ext"].delta
    padded = SFun(lambda i: Base(ext((xs, as_base(i).value))))
    settled = as_base(as_fun(w).fn(padded)).value
    if settled < len(xs):
        return as_fun(g).fn(xs)
    cont = SFun(lambda x: _pure_bar(w, g, h, xs.snoc(as_base(x).value), depth - 1))
    return as_fun(as_fun(h).fn(xs)).fn(cont)
