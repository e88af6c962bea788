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

A term is compiled once per machine, and so is each rule, when its head is
first met: its patterns become a matcher that takes the arguments apart by
their host form and returns the rule's code with its environment. A symbol
given its arity in arguments that are variables or constants compiles to
one instruction, which reads them from the environment and fires the
builtin or unfolds the rule at once; given fewer, it makes the partial
application at once. oracle_runner keeps one machine and its code for a
term applied to alpha and reruns that code for each oracle it is given,
handing back the value as the machine holds it, so the modulus checks of
a file compile the term once between them and each oracle costs one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from .errors import FuelExhausted, StuckTerm
from .signatures import BaseList, Builtin, OracleSpec, Rule, Signature, with_oracle
from .syntax import (
    App,
    Cons,
    Func,
    Lam,
    Lit,
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

    rules, one matcher per rule, is None for symbols computed on the host
    (constructors and builtins); charged tells the builtins, which cost a
    step, apart."""

    __slots__ = ("term", "arity", "delta", "charged", "rules")

    def __init__(self, term: Term, arity: int):
        self.term = term
        self.arity = arity
        self.delta = None
        self.charged = False
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
#   (_CALL, head, read, constants)
# A position indexes the environment, a tuple holding one value per
# enclosing binder, outermost first. _CALL is a symbol applied to its
# leading arguments that are variables or constants, at most its arity of
# them: read takes the environment followed by the constants to their
# values.

_VAR, _CONST, _LAM, _APP, _CALL = range(5)


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


def _take_apart(cons: str):
    """A function from a value to the arguments of the constructor cons it
    was built by, or to None if another constructor built it."""
    if cons == "zero":
        return lambda v: () if v == 0 else None
    if cons == "succ":
        return lambda v: (v - 1,) if v else None
    if cons == "nil":
        return lambda v: None if v.n else ()
    if cons == "cons":
        return lambda v: (v.init(), v.buf[v.n - 1]) if v.n else None
    return lambda v: v.args if v.head.term.name == cons else None


def _reader(positions: list[int]):
    """A function from a tuple to the tuple of its items at positions."""
    lo = positions[0] if positions else 0
    if positions == list(range(lo, lo + len(positions))):
        return itemgetter(slice(lo, lo + len(positions)))
    return itemgetter(*positions)


def _matcher(rule: Rule, compile: Callable[[Term, tuple[str, ...]], tuple]):
    """A function from a rule's argument values to its code and environment,
    or to None if its patterns do not match them.

    The values sit in slots, the arguments first. Each constructor pattern
    takes its slot's value apart into the next free slots, and the
    environment reads the pattern variables' slots. compile gives the code
    of the rule's right-hand side under the variables' names, in that
    order."""
    takes, picks, names = [], [], []
    # the pattern of each slot; a constructor pattern's arguments are
    # appended as it is walked, so the list grows while it is read
    slots = list(rule.patterns)
    for slot, p in enumerate(slots):
        if type(p) is PVar:
            picks.append(slot)
            names.append(p.name)
        else:
            takes.append((slot, _take_apart(p.cons)))
            slots += p.args
    read = _reader(picks)
    code = compile(rule.rhs, tuple(names))

    def match(args: tuple):
        for slot, take in takes:
            parts = take(args[slot])
            if parts is None:
                return None
            args += parts
        return code, read(args)

    return match


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
            # the spine is taken apart here, so each node compiles once
            args = []
            while isinstance(t, App):
                args.append(t.arg)
                t = t.fun
            code = self.compile(t, names)
            codes = []
            for a in reversed(args):
                codes.append(self.compile(a, names))
            n = 0
            if type(code[1]) is _PApp:
                head = code[1].head
                # the tags of a variable and a constant come first
                while n < min(head.arity, len(codes)) and codes[n][0] <= _CONST:
                    n += 1
            if n:
                positions, consts = [], []
                for c in codes[:n]:
                    if c[0] == _VAR:
                        positions.append(c[1])
                    else:
                        positions.append(len(names) + len(consts))
                        consts.append(c[1])
                code = (_CALL, head, _reader(positions), tuple(consts))
            for c in codes[n:]:
                code = (_APP, code, c)
            return code
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
            head.delta = self.logged(impl.delta) if impl.is_oracle else impl.delta
            head.charged = True
        else:
            head.rules = tuple(_matcher(rule, self.compile) for rule in impl)
        return value

    def logged(self, delta):
        """delta, logging its argument in the current run's queries."""
        def run(args):
            self.queries.append(args[0])
            return delta(args)
        return run

    # ---- running

    def unfold(self, head: _Head, args: tuple) -> tuple[tuple, tuple]:
        """The right-hand side and environment of the rule that fires."""
        for match in head.rules:
            hit = match(args)
            if hit is not None:
                return hit
        raise StuckTerm(render_term(_read_back(_PApp(head, args))))

    def run(self, code: tuple, env: tuple):
        """The value of code in env.

        The stack holds two kinds of frame: a pair (argument code, its
        environment) waits for the function of an application, and a
        function value waits for its argument."""
        stack: list = []
        push, pop = stack.append, stack.pop
        steps, limit, unfold = self.steps, self.limit, self.unfold
        while True:
            while code[0] == _APP:
                push((code[2], env))
                code = code[1]
            tag = code[0]
            if tag == _VAR:
                v = env[code[1]]
            elif tag == _CONST:
                v = code[1]
            elif tag == _LAM:
                v = _Clo(code, env)
            else:
                head = code[1]
                args = code[2](env + code[3])
                if len(args) < head.arity:
                    v = _PApp(head, args)
                elif head.rules is None:
                    if head.charged:
                        steps += 1
                        if steps > limit:
                            raise FuelExhausted(steps)
                    v = head.delta(args)
                else:
                    code, env = unfold(head, args)
                    steps += 1
                    if steps > limit:
                        raise FuelExhausted(steps)
                    continue
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
                            steps += 1
                            if steps > limit:
                                raise FuelExhausted(steps)
                        v = head.delta(args)
                        continue
                    code, env = unfold(head, args)
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
) -> Callable[[Callable[[int], int]], tuple[int, int, tuple[int, ...]]]:
    """A function taking each oracle g, any function on naturals, to the run
    of e under with_oracle(sig, g) and fuel, as evaluate_typed makes it: the
    value, the steps and the queries in call order. e must have type Nat,
    and the value is its host int, not read back into a numeral. e and
    every rule it reaches are compiled once for all the oracles.

    Each call sets alpha's delta to a function that logs its argument and
    asks g, so a query is one host call besides g's own."""
    machine = _Machine(with_oracle(sig, None), fuel)  # alpha's delta is set per run
    code = machine.compile(e, ())
    alpha = machine.heads.get(Func("alpha"))  # None when e never reaches alpha

    def run(g: Callable[[int], int]) -> tuple[int, int, tuple[int, ...]]:
        queries: list[int] = []
        if alpha is not None:
            log = queries.append

            def ask(args: tuple) -> int:
                log(args[0])
                return g(args[0])

            alpha.head.delta = ask
        machine.steps = 0
        v = machine.run(code, ())
        return v, machine.steps, tuple(queries)

    return run


def evaluate_with_oracle(
    sig: Signature, e: Term, g: OracleSpec, fuel: Fuel = DEFAULT_FUEL
) -> EvalResult:
    """Evaluate under sig extended with the oracle g; every alpha unfold is
    logged in the result's queries."""
    return evaluate(with_oracle(sig, g), e, fuel)
