"""The substitution evaluator, kept as the reference the machine must match.

It rewrites terms directly: a beta step substitutes the argument into the
body, a rule unfold substitutes the match into the right-hand side, and
every intermediate result is checked against the value grammar again. That
makes it quadratic in the step count, so only small inputs go through it.
Every value it builds is folded (syntax.fold_literal), so a constructor
spine over literals is a literal, as the machine reads its values back.
Builtins compute on the literals' host values. A value is a closed term of
restricted shape (is_value), and a rule fires on the values that match its
patterns (match_pattern).
"""

from __future__ import annotations

from typing import Optional

from writ.errors import FuelExhausted, StuckTerm
from writ.evaluator import DEFAULT_FUEL, EvalResult, Fuel
from writ.signatures import Builtin, Signature
from writ.syntax import (
    App,
    Cons,
    Func,
    Lam,
    Lit,
    Pattern,
    PVar,
    Term,
    Var,
    _unfold_literal,
    fold_literal,
    free_vars,
    list_term,
    list_value,
    numeral,
    numeral_value,
    render_term,
    spine,
    substitute,
    typecheck,
)


def match_pattern(
    patterns: tuple[Pattern, ...] | list[Pattern],
    values: tuple[Term, ...] | list[Term],
) -> Optional[dict[str, Term]]:
    """Match a vector of values against a vector of patterns.

    Returns the substitution on success, None on mismatch. Patterns are
    linear, so assignments never clash.
    """
    if len(patterns) != len(values):
        return None
    out: dict[str, Term] = {}
    for p, v in zip(patterns, values):
        if not _match_one(p, v, out):
            return None
    return out


def _match_one(p: Pattern, v: Term, out: dict[str, Term]) -> bool:
    if isinstance(p, PVar):
        out[p.name] = v
        return True
    head, args = spine(_unfold_literal(v) if isinstance(v, Lit) else v)
    return (
        isinstance(head, Cons)
        and head.name == p.cons
        and len(args) == len(p.args)
        and all(_match_one(q, a, out) for q, a in zip(p.args, args))
    )


def is_value(sig: Signature, t: Term) -> bool:
    """Decide the value grammar.

    Values are: constructors applied to at most their arity, function symbols
    applied to strictly fewer arguments than their arity (all arguments again
    values), and lambdas whose body has no free variable beyond the binder.
    """
    # iterative: values read back into terms can be deep
    todo: list[Term] = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Var):
            return False
        if isinstance(s, Lit):
            continue
        if isinstance(s, Lam):
            if not free_vars(s.body) <= {s.var}:
                return False
            continue
        head, args = spine(s)
        if isinstance(head, Cons):
            if len(args) > sig.arity(head.name):
                return False
        elif isinstance(head, Func):
            if len(args) >= sig.arity(head.name):
                return False
        else:
            return False
        todo.extend(args)
    return True


def _host(t: Term):
    n = numeral_value(t)
    return n if n is not None else list_value(t)


def _term(v) -> Term:
    return numeral(v) if isinstance(v, int) else list_term(v)


class _Run:
    """Mutable state for a single evaluation."""

    __slots__ = ("sig", "steps", "limit", "queries")

    def __init__(self, sig: Signature, fuel: Fuel):
        self.sig = sig
        self.steps = 0
        self.limit = fuel.max_steps
        self.queries: list[int] = []

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.limit:
            raise FuelExhausted(self.steps)

    def eval(self, t: Term) -> Term:
        # an application that is a value already is rebuilt by apply, at no
        # cost, so that it is folded
        if isinstance(t, App):
            return self.apply(self.eval(t.fun), self.eval(t.arg))
        if is_value(self.sig, t):
            return fold_literal(t)
        raise StuckTerm(render_term(t))

    def apply(self, fun: Term, arg: Term) -> Term:
        # both sides are values; the application either is itself a value,
        # is a beta redex, or completes a function symbol's argument vector
        t = App(fun, arg)
        if is_value(self.sig, t):
            return fold_literal(t)
        if isinstance(fun, Lam):
            self.tick()
            return self.eval(substitute(fun.body, {fun.var: arg}))
        head, args = spine(t)
        if not isinstance(head, Func):
            raise StuckTerm(render_term(t))
        impl = self.sig.func_decl(head.name).impl
        if isinstance(impl, Builtin):
            if impl.is_oracle:
                n = numeral_value(args[0])
                if n is not None:
                    self.queries.append(n)
            self.tick()
            return self.eval(_term(impl.delta(tuple(_host(a) for a in args))))
        for rule in impl:
            binding = match_pattern(rule.patterns, args)
            if binding is not None:
                self.tick()
                return self.eval(substitute(rule.rhs, binding))
        raise StuckTerm(render_term(t))


def reference_evaluate(sig: Signature, e: Term, fuel: Fuel = DEFAULT_FUEL) -> EvalResult:
    """Run a closed well-typed term to its value by substitution."""
    typecheck(sig, {}, e)
    run = _Run(sig, fuel)
    v = run.eval(e)
    return EvalResult(v, run.steps, tuple(run.queries))
