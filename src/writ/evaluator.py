"""Call-by-value evaluation with exact step counts and a query log.

Terms run on an environment machine. A closure is a lambda plus the values
in scope where it was made, and pending work sits on an explicit
continuation stack, so evaluation never recurses on the host stack and each
step costs time independent of the size of the values around it. Numerals
are host ints, lists are signatures.BaseList (so cons and the split of a
cons pattern take constant time), and a partial application is its head
plus the arguments so far; values become terms only once, for the result.

Only two things cost a step: a beta reduction and a rule/builtin unfold.
The function of an application is evaluated before its argument, so steps
are charged, and oracle queries logged, in the order of the substitution
semantics; finished values cost zero.

A term is compiled once per machine. oracle_runner keeps one machine and its
code for a term applied to alpha and reruns that code for each oracle it is
given, so a modulus check compiles once and runs once per oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import FuelExhausted, StuckTerm
from .signatures import BaseList, Builtin, OracleSpec, Signature, with_oracle
from .syntax import (
    App,
    Cons,
    Lam,
    Lit,
    Pattern,
    PVar,
    Term,
    Var,
    app,
    free_vars,
    list_term,
    numeral,
    render_term,
    substitute,
    typecheck,
)

__all__ = [
    "Fuel", "DEFAULT_FUEL", "EvalResult", "evaluate", "evaluate_with_oracle",
    "oracle_runner",
]


@dataclass(frozen=True)
class Fuel:
    """Safety budget on rewrite steps."""

    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


DEFAULT_FUEL = Fuel()


@dataclass(frozen=True)
class EvalResult:
    """Final value, exact step count, and oracle queries in call order."""

    value: Term
    steps: int
    queries: tuple[int, ...] = ()


# ---------------------------------------------------------------- values

class _Head:
    """A constructor or function symbol, resolved once per run.

    rules is None for symbols computed on the host (constructors and
    builtins); charged tells the builtins, which cost a step, apart."""

    __slots__ = ("term", "arity", "delta", "charged", "oracle", "rules")

    def __init__(self, term: Term, arity: int):
        self.term = term
        self.arity = arity
        self.delta = None
        self.charged = False
        self.oracle = False
        self.rules: Optional[tuple] = None


class _PApp:
    """A head applied to fewer arguments than its arity, or a constructor of
    a datatype with no host form applied to all of them."""

    __slots__ = ("head", "args")

    def __init__(self, head: _Head, args: tuple):
        self.head = head
        self.args = args


class _Clo:
    """A lambda's code with the environment it was made in."""

    __slots__ = ("code", "env")

    def __init__(self, code: tuple, env: tuple):
        self.code = code
        self.env = env


# ---------------------------------------------------------------- code
# A term compiles to nested tuples whose first field is a tag:
#   (_VAR, position)   (_CONST, value)   (_APP, function, argument)
#   (_LAM, body, the lambda itself, the names in scope)
# A position indexes the environment, a tuple holding one value per
# enclosing binder, outermost first.

_VAR, _CONST, _LAM, _APP = range(4)


def _cons_delta(head: _Head):
    name = head.term.name
    if name == "zero":
        return lambda args: 0
    if name == "succ":
        return lambda args: args[0] + 1
    if name == "nil":
        return lambda args: BaseList()
    if name == "cons":
        return lambda args: args[0].snoc(args[1])
    return lambda args: _PApp(head, args)


def _pattern_names(patterns: tuple[Pattern, ...], out: list[str]) -> list[str]:
    for p in patterns:
        if isinstance(p, PVar):
            out.append(p.name)
        else:
            _pattern_names(p.args, out)
    return out


def _bind(p: Pattern, v, out: list) -> bool:
    """Match one value against one pattern, appending what the pattern's
    variables bind in the order _pattern_names lists them."""
    if type(p) is PVar:
        out.append(v)
        return True
    if type(v) is int:
        if p.cons == "zero":
            return v == 0
        return v > 0 and _bind(p.args[0], v - 1, out)
    if type(v) is BaseList:
        n = v.n
        if p.cons == "nil":
            return n == 0
        return (n > 0 and _bind(p.args[0], v.init(), out)
                and _bind(p.args[1], v.buf[n - 1], out))
    return (v.head.term.name == p.cons
            and all(_bind(q, a, out) for q, a in zip(p.args, v.args)))


def _read_back(v) -> Term:
    """The term a machine value stands for."""
    if type(v) is int:
        return numeral(v)
    if type(v) is BaseList:
        return list_term(v.items)
    if type(v) is _PApp:
        return app(v.head.term, *(_read_back(a) for a in v.args))
    _, _, lam, names = v.code
    free = free_vars(lam)
    # a later binder shadows an earlier one of the same name
    scope = {name: val for name, val in zip(names, v.env) if name in free}
    return substitute(lam, {name: _read_back(val) for name, val in scope.items()})


class _Machine:
    """Mutable state for a single evaluation."""

    __slots__ = ("sig", "steps", "limit", "queries", "heads")

    def __init__(self, sig: Signature, fuel: Fuel):
        self.sig = sig
        self.steps = 0
        self.limit = fuel.max_steps
        self.queries: list[int] = []
        self.heads: dict[Term, object] = {}

    # ---- compilation

    def compile(self, t: Term, names: tuple[str, ...]) -> tuple:
        if isinstance(t, App):
            return (_APP, self.compile(t.fun, names), self.compile(t.arg, names))
        if isinstance(t, Lam):
            return (_LAM, self.compile(t.body, names + (t.var,)), t, names)
        if isinstance(t, Var):
            # the innermost binder of the name; typechecking ruled out none
            return (_VAR, len(names) - 1 - names[::-1].index(t.name))
        if isinstance(t, Lit):
            v = t.value
            return (_CONST, v if type(v) is int else BaseList(v))
        return (_CONST, self.symbol(t))

    def symbol(self, t: Term):
        """The value of a bare constructor or function symbol."""
        value = self.heads.get(t)
        if value is not None:
            return value
        head = _Head(t, self.sig.arity(t.name))
        # a symbol's rules may mention it, so it is known before they compile
        value = self.heads[t] = _PApp(head, ())
        if isinstance(t, Cons):
            head.delta = _cons_delta(head)
            if head.arity == 0:
                value = self.heads[t] = head.delta(())
            return value
        impl = self.sig.func_decl(t.name).impl
        if isinstance(impl, Builtin):
            head.delta = impl.delta
            head.charged = True
            head.oracle = impl.is_oracle
        else:
            head.rules = tuple(
                (rule.patterns,
                 self.compile(rule.rhs, tuple(_pattern_names(rule.patterns, []))))
                for rule in impl
            )
        return value

    # ---- running

    def unfold(self, head: _Head, args: tuple) -> tuple[tuple, tuple]:
        """The right-hand side and environment of the rule that fires."""
        for patterns, rhs in head.rules:
            env: list = []
            for p, v in zip(patterns, args):
                if not _bind(p, v, env):
                    break
            else:
                return rhs, tuple(env)
        raise StuckTerm(render_term(_read_back(_PApp(head, args))))

    def run(self, code: tuple, env: tuple):
        """The value of code in env.

        The stack holds two kinds of frame: a pair (argument code, its
        environment) waits for the function of an application, and a
        function value waits for its argument."""
        stack: list = []
        push, pop = stack.append, stack.pop
        queries, steps, limit = self.queries, self.steps, self.limit
        while True:
            while code[0] == _APP:
                push((code[2], env))
                code = code[1]
            tag = code[0]
            if tag == _VAR:
                v = env[code[1]]
            elif tag == _CONST:
                v = code[1]
            else:
                v = _Clo(code, env)
            while stack:
                f = pop()
                if type(f) is tuple:
                    # v is a function; an argument that needs no work is
                    # fetched at once, any other is evaluated first
                    arg_code, arg_env = f
                    tag = arg_code[0]
                    if tag == _VAR:
                        f, v = v, arg_env[arg_code[1]]
                    elif tag == _CONST:
                        f, v = v, arg_code[1]
                    else:
                        push(v)
                        code, env = f
                        break
                # apply f to v
                if type(f) is _Clo:
                    code, env = f.code[1], f.env + (v,)
                else:
                    head = f.head
                    args = f.args + (v,)
                    if len(args) < head.arity:
                        v = _PApp(head, args)
                        continue
                    if head.rules is None:
                        # a constructor is free, a builtin unfold one step
                        if head.charged:
                            if head.oracle:
                                queries.append(args[0])
                            steps += 1
                            if steps > limit:
                                raise FuelExhausted(steps)
                        v = head.delta(args)
                        continue
                    code, env = self.unfold(head, args)
                # one step, a beta or a rule unfold, to run code in env
                steps += 1
                if steps > limit:
                    raise FuelExhausted(steps)
                break
            else:
                self.steps = steps
                return v


def evaluate(sig: Signature, e: Term, fuel: Fuel = DEFAULT_FUEL) -> EvalResult:
    """Run a closed well-typed term to its value, counting steps exactly.

    Typechecks first as a guard; evaluation itself then cannot get stuck.
    Raises FuelExhausted if the budget runs out.
    """
    typecheck(sig, {}, e)
    return evaluate_typed(sig, e, fuel)


def evaluate_typed(sig: Signature, e: Term, fuel: Fuel = DEFAULT_FUEL) -> EvalResult:
    """evaluate without the guard, for a term the caller has typechecked
    under a signature that types every symbol as sig does."""
    machine = _Machine(sig, fuel)
    v = machine.run(machine.compile(e, ()), ())
    return EvalResult(_read_back(v), machine.steps, tuple(machine.queries))


def oracle_runner(
    sig: Signature, e: Term, fuel: Fuel = DEFAULT_FUEL
) -> Callable[[Callable[[int], int]], EvalResult]:
    """A function taking each oracle g, any function on naturals, to
    evaluate_typed(with_oracle(sig, g), e, fuel), with e and every rule it
    reaches compiled once for all of them.

    alpha's delta reads the oracle from a cell that each call sets before
    it runs the code."""
    current: list = [None]
    machine = _Machine(with_oracle(sig, lambda n: current[0](n)), fuel)
    code = machine.compile(e, ())

    def run(g: Callable[[int], int]) -> EvalResult:
        current[0] = g
        machine.steps = 0
        machine.queries = []
        v = machine.run(code, ())
        return EvalResult(_read_back(v), machine.steps, tuple(machine.queries))

    return run


def evaluate_with_oracle(
    sig: Signature, e: Term, g: OracleSpec, fuel: Fuel = DEFAULT_FUEL
) -> EvalResult:
    """Evaluate under sig extended with the oracle g; every alpha unfold is
    logged in the result's queries."""
    return evaluate(with_oracle(sig, g), e, fuel)
