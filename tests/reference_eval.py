"""The substitution evaluator, kept as the reference the machine must match.

It rewrites terms directly: a beta step substitutes the argument into the
body, a rule unfold substitutes the match into the right-hand side, and
every intermediate result is checked against the value grammar again. That
makes it quadratic in the step count, so only small inputs go through it.
Every value it builds is folded (syntax.fold_literal), so a constructor
spine over literals is a literal, as the machine reads its values back.
Builtins compute on the literals' host values.
"""

from __future__ import annotations

from writ.errors import FuelExhausted, StuckTerm
from writ.evaluator import DEFAULT_FUEL, EvalResult, Fuel
from writ.signatures import Builtin, Signature
from writ.syntax import (
    App,
    Func,
    Lam,
    Term,
    fold_literal,
    is_value,
    list_term,
    list_value,
    match_pattern,
    numeral,
    numeral_value,
    render_term,
    spine,
    substitute,
    typecheck,
)


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
