"""Language instances: constructors, function symbols, rewrite rules, builtins.

A Signature fixes the datatypes, the constructor arities, and for each
function symbol either a complete orthogonal set of rewrite rules or a
builtin (a schematic rule family computed on the host, one step per unfold).
The recursor families rec[t] and fold[t] are synthesized on demand, one
monomorphic symbol per index type.

Three signatures ship, each extending the one before: system_t, system_t_list
and bar_rec. signature_for picks the first whose own declarations cover a term.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from .errors import DuplicateSymbol, UndeclaredSymbol
from .parser import parse_type
from .syntax import (
    LIST,
    NAT,
    App,
    Arrow,
    Cons,
    Data,
    Func,
    Lam,
    PCons,
    Pattern,
    PVar,
    Term,
    Ty,
    Var,
    _check_datatypes,
    app,
    render_type,
    symbols,
)

__all__ = [
    "Rule", "Builtin", "ConsDecl", "FuncDecl", "Signature", "BaseList", "BUILTINS",
    "system_t", "system_t_list", "bar_rec", "with_oracle",
    "OracleSpec", "Identity", "Constant", "Table",
    "oracle_from_json", "oracle_from_string", "oracle_label",
    "signature_for",
]


# ---------------------------------------------------------------- declarations

@dataclass(frozen=True)
class Rule:
    """One rewrite rule: the symbol applied to matching values becomes rhs
    under the matching substitution."""

    patterns: tuple[Pattern, ...]
    rhs: Term


@dataclass(frozen=True)
class Builtin:
    """A schematic rule family computed on the host.

    delta maps a full vector of argument values to the result value, both
    in host form, whichever layer calls it: a numeral is an int and a list
    a BaseList. The unfold costs exactly one step, like any rule. Oracle
    builtins additionally log their numeric argument when unfolded.
    """

    name: str
    arity: int
    delta: Callable[[Sequence[Any]], Any]
    is_oracle: bool = False


@dataclass(frozen=True)
class ConsDecl:
    """Constructor declaration: argument datatypes and result datatype."""

    args: tuple[str, ...]
    result: str


@dataclass(frozen=True)
class FuncDecl:
    """Function symbol declaration: full curried type plus implementation."""

    ty: Ty
    impl: Union[tuple[Rule, ...], Builtin]

    @property
    def arity(self) -> int:
        if isinstance(self.impl, Builtin):
            return self.impl.arity
        return len(self.impl[0].patterns)


_FAMILY_RE = re.compile(r"(rec|fold)\[(.+)\]\Z")


class Signature:
    """Immutable symbol table for one language instance."""

    def __init__(
        self,
        name: str,
        datatypes: frozenset[str] | set[str],
        constructors: Mapping[str, ConsDecl],
        functions: Mapping[str, FuncDecl],
        families: frozenset[str] | set[str] = frozenset(),
    ):
        self.name = name
        self.datatypes = frozenset(datatypes)
        self._cons = dict(constructors)
        self._funcs = dict(functions)
        self._families = frozenset(families)

    # ---- constructors

    def has_cons(self, name: str) -> bool:
        return name in self._cons

    def cons_decl(self, name: str) -> ConsDecl:
        decl = self._cons.get(name)
        if decl is None:
            raise UndeclaredSymbol(name)
        return decl

    def cons_type(self, name: str) -> Ty:
        decl = self.cons_decl(name)
        ty: Ty = Data(decl.result)
        for arg in reversed(decl.args):
            ty = Arrow(Data(arg), ty)
        return ty

    # ---- function symbols

    def has_func(self, name: str) -> bool:
        try:
            self.func_decl(name)
        except UndeclaredSymbol:
            return False
        return True

    def func_decl(self, name: str) -> FuncDecl:
        """The declaration of name. A member of a declared recursor family
        exists only when every datatype of its type is declared too."""
        decl = self._funcs.get(name)
        if decl is not None:
            return decl
        m = _FAMILY_RE.match(name)
        if m is None or m.group(1) not in self._families:
            raise UndeclaredSymbol(name)
        decl = _family_decl(name)
        _check_datatypes(self, decl.ty)
        return decl

    def func_type(self, name: str) -> Ty:
        return self.func_decl(name).ty

    # ---- shared

    def arity(self, name: str) -> int:
        if name in self._cons:
            return len(self._cons[name].args)
        return self.func_decl(name).arity

    def extend(self, name: str, functions: Mapping[str, FuncDecl]) -> "Signature":
        """A signature called name with these function symbols added."""
        return Signature(name, self.datatypes, self._cons, {**self._funcs, **functions},
                         self._families)


# ---------------------------------------------------------------- recursors

@lru_cache(maxsize=None)
def _family_decl(name: str) -> FuncDecl:
    """The member of a recursor family named rec[t] or fold[t], with its
    index type parsed once per name.

    rec[t] : t -> (Nat -> t -> t) -> Nat -> t recurses on the numeral, and
    fold[t] : t -> (Nat -> t -> t) -> List -> t on the list. Both have one
    rule for the empty case and one that hands the step the last numeral z
    and the recursion on the rest.
    """
    kind, index = _FAMILY_RE.match(name).groups()
    t = parse_type(index)
    sym = Func(f"{kind}[{render_type(t)}]")
    step_ty = Arrow(NAT, Arrow(t, t))
    z = PVar("z", NAT)
    if kind == "rec":
        arg_ty, empty, split, rest = NAT, "zero", PCons("succ", (z,)), "z"
    else:
        arg_ty, empty, split, rest = LIST, "nil", PCons("cons", (PVar("zs", LIST), z)), "zs"
    x, y = PVar("x", t), PVar("y", step_ty)
    rules = (
        Rule((x, y, PCons(empty, ())), Var("x")),
        Rule((x, y, split), app(Var("y"), Var("z"), app(sym, Var("x"), Var("y"), Var(rest)))),
    )
    return FuncDecl(Arrow(t, Arrow(step_ty, Arrow(arg_ty, t))), rules)


# ---------------------------------------------------------------- builtins

class BaseList:
    """A finite sequence of naturals, the one list value of the machine and of
    every analysis: the first n items of a buffer that only ever grows. Views
    share buffers freely, so snoc and dropping the last item take constant
    time, and no snoc changes what an existing view sees."""

    __slots__ = ("buf", "n")

    def __init__(self, items: Iterable[int] = ()):
        self.buf = list(items)
        self.n = len(self.buf)

    @property
    def items(self) -> tuple[int, ...]:
        return tuple(self.buf[:self.n])

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.buf[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseList) and self.items == other.items

    def __repr__(self) -> str:
        return f"BaseList({self.items!r})"

    def snoc(self, z: int) -> "BaseList":
        """The list extended by z on the right, in place where it can be."""
        buf, n = self.buf, self.n
        if n and len(buf) == n:
            buf.append(z)
        elif not n or buf[n] != z:
            # an empty list may be a shared constant: never grow its buffer
            buf = buf[:n] + [z]
        return _view(buf, n + 1)

    def init(self) -> "BaseList":
        """The list without its last item, on the same buffer."""
        return _view(self.buf, self.n - 1)


def _view(buf: list[int], n: int) -> BaseList:
    v = object.__new__(BaseList)
    v.buf, v.n = buf, n
    return v


def _delta_add(args: Sequence[int]) -> int:
    return args[0] + args[1]


def _delta_mul(args: Sequence[int]) -> int:
    return args[0] * args[1]


def _delta_lt(args: Sequence[int]) -> int:
    # numeral 0 means "yes, less than"; anything else is refuted by 1
    return 0 if args[0] < args[1] else 1


def _delta_len(args: Sequence[BaseList]) -> int:
    return len(args[0])


def _delta_ext(args: Sequence[Any]) -> int:
    # an out-of-range lookup reads zero
    items, n = args
    return items[n] if n < len(items) else 0


# the builtins of the shipped signatures, by name: the machine runs these
# deltas, and every analysis lifts the same ones into its interpretations
BUILTINS: Mapping[str, Builtin] = MappingProxyType({
    b.name: b
    for b in (
        Builtin("add", 2, _delta_add),
        Builtin("mul", 2, _delta_mul),
        Builtin("lt", 2, _delta_lt),
        Builtin("len", 1, _delta_len),
        Builtin("ext", 2, _delta_ext),
    )
})

_NAT2 = Arrow(NAT, Arrow(NAT, NAT))


# ---------------------------------------------------------------- instances

def system_t() -> Signature:
    """Numerals and the numeral recursor family, nothing else."""
    return Signature(
        name="system_t",
        datatypes={"Nat"},
        constructors={
            "zero": ConsDecl((), "Nat"),
            "succ": ConsDecl(("Nat",), "Nat"),
        },
        functions={},
        families={"rec"},
    )


def system_t_list() -> Signature:
    """system_t plus lists, the list recursor family, and arithmetic builtins."""
    return Signature(
        name="system_t_list",
        datatypes={"Nat", "List"},
        constructors={
            "zero": ConsDecl((), "Nat"),
            "succ": ConsDecl(("Nat",), "Nat"),
            "nil": ConsDecl((), "List"),
            # a list grows on the right: cons takes the list first
            "cons": ConsDecl(("List", "Nat"), "List"),
        },
        functions={
            "add": FuncDecl(_NAT2, BUILTINS["add"]),
            "mul": FuncDecl(_NAT2, BUILTINS["mul"]),
            "lt": FuncDecl(_NAT2, BUILTINS["lt"]),
            "len": FuncDecl(Arrow(LIST, NAT), BUILTINS["len"]),
        },
        families={"rec", "fold"},
    )


# argument types of the sequential search combinator
_RHO1 = Arrow(Arrow(NAT, NAT), NAT)
_RHO2 = Arrow(LIST, NAT)
_RHO3 = Arrow(LIST, Arrow(Arrow(NAT, NAT), NAT))


def bar_rec() -> Signature:
    """system_t_list plus ext and the two-stage search combinator bar/bar1."""
    f, g, h, xs = (
        PVar("f", _RHO1),
        PVar("g", _RHO2),
        PVar("h", _RHO3),
        PVar("xs", LIST),
    )
    fv, gv, hv, xsv = Var("f"), Var("g"), Var("h"), Var("xs")
    bar_ty = Arrow(_RHO1, Arrow(_RHO2, Arrow(_RHO3, Arrow(LIST, NAT))))
    bar1_ty = Arrow(_RHO1, Arrow(_RHO2, Arrow(_RHO3, Arrow(LIST, Arrow(NAT, NAT)))))
    # bar defers to bar1 on the decided comparison: has the functional
    # settled on this initial segment yet?
    bar_rule = Rule(
        (f, g, h, xs),
        app(
            Func("bar1"),
            fv,
            gv,
            hv,
            xsv,
            app(Func("lt"), App(fv, App(Func("ext"), xsv)), App(Func("len"), xsv)),
        ),
    )
    bar1_rules = (
        Rule((f, g, h, xs, PCons("zero", ())), App(gv, xsv)),
        Rule(
            (f, g, h, xs, PCons("succ", (PVar("z", NAT),))),
            app(
                hv,
                xsv,
                Lam("x", NAT, app(Func("bar"), fv, gv, hv, app(Cons("cons"), xsv, Var("x")))),
            ),
        ),
    )
    return system_t_list().extend("bar_rec", {
        "ext": FuncDecl(Arrow(LIST, Arrow(NAT, NAT)), BUILTINS["ext"]),
        "bar": FuncDecl(bar_ty, (bar_rule,)),
        "bar1": FuncDecl(bar1_ty, bar1_rules),
    })


def with_oracle(sig: Signature, g: "OracleSpec") -> Signature:
    """Extend sig with the oracle symbol alpha computing g, one step per call."""
    if sig.has_func("alpha") or sig.has_cons("alpha"):
        raise DuplicateSymbol("alpha")

    def delta(args: Sequence[int]) -> int:
        return g(args[0])

    return sig.extend(f"{sig.name}+oracle", {
        "alpha": FuncDecl(Arrow(NAT, NAT), Builtin("alpha", 1, delta, is_oracle=True)),
    })


# ---------------------------------------------------------------- oracles

class OracleSpec:
    """A total function on naturals, used as the oracle alpha."""

    def __call__(self, n: int) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(OracleSpec):
    def __call__(self, n: int) -> int:
        return n


def _check_natural(n: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"oracle {what} must be a natural, got {n}")


@dataclass(frozen=True)
class Constant(OracleSpec):
    value: int

    def __post_init__(self) -> None:
        _check_natural(self.value, "value")

    def __call__(self, n: int) -> int:
        return self.value


@dataclass(frozen=True)
class Table(OracleSpec):
    """Finite table with a default for every unlisted argument; keys and
    values are naturals, and no key appears twice."""

    pairs: tuple[tuple[int, int], ...]
    default: int = 0

    def __post_init__(self) -> None:
        # one test per pair on the good path, for a table read from the
        # command line or an annotation (the modulus check's perturbation
        # trials use harness._listed oracles, not tables)
        seen = set()
        for k, v in self.pairs:
            if k < 0 or v < 0 or k in seen:
                _check_natural(k, "key")
                _check_natural(v, "value")
                raise ValueError(f"oracle table repeats key {k}")
            seen.add(k)
        _check_natural(self.default, "default")

    def __call__(self, n: int) -> int:
        for k, v in self.pairs:
            if k == n:
                return v
        return self.default


def oracle_from_json(source: str | Mapping) -> OracleSpec:
    """Load an oracle from its JSON object form.

    Shapes: {"kind":"identity"}, {"kind":"constant","value":K},
    {"kind":"table","pairs":[[k,v],...],"default":D}, with K, k, v and D
    natural JSON integers; any other shape, or a member named twice in one
    object, raises ValueError.
    """
    obj = (json.loads(source, object_pairs_hook=_unique_members)
           if isinstance(source, str) else source)
    if not isinstance(obj, Mapping):
        raise ValueError("oracle JSON must be an object")
    kind = obj.get("kind")
    if kind == "identity":
        return Identity()
    if kind == "constant":
        return Constant(_json_int(obj.get("value"), "value"))
    if kind == "table":
        pairs = obj.get("pairs", [])
        if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
            raise ValueError("oracle pairs must be a list of [key, value] lists")
        return Table(tuple((_json_int(k, "key"), _json_int(v, "value")) for k, v in pairs),
                     _json_int(obj.get("default", 0), "default"))
    raise ValueError(f"unknown oracle kind {kind!r}")


def _unique_members(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # json.loads alone would keep the last of two members with one name
    obj: dict[str, Any] = {}
    for name, value in pairs:
        if name in obj:
            raise ValueError(f"oracle JSON repeats member {name!r}")
        obj[name] = value
    return obj


def _json_int(x: object, what: str) -> int:
    # bool is a subclass of int, and int() would truncate 2.5 or parse "3"
    if type(x) is not int:
        raise ValueError(f"oracle {what} must be an integer, got {x!r}")
    return x


def oracle_from_string(spec: str) -> OracleSpec:
    """Parse the inline oracle syntax.

    Accepted forms: "identity", "constant:K", "table:k=v,k=v[,default=D]";
    each key, and default, appears at most once.
    """
    spec = spec.strip()
    if spec == "identity":
        return Identity()
    if spec.startswith("constant:"):
        return Constant(int(spec.removeprefix("constant:")))
    if spec.startswith("table:"):
        pairs: list[tuple[int, int]] = []
        default = None
        body = spec.removeprefix("table:")
        for piece in filter(None, (p.strip() for p in body.split(","))):
            key, _, val = piece.partition("=")
            if not _:
                raise ValueError(f"bad table entry {piece!r}")
            if key.strip() != "default":
                pairs.append((int(key), int(val)))
            elif default is None:
                default = int(val)
            else:
                raise ValueError("oracle table repeats default")
        return Table(tuple(pairs), default or 0)
    raise ValueError(f"unknown oracle spec {spec!r}")


def oracle_label(g: OracleSpec) -> str:
    """Short printable form, inverse of oracle_from_string where possible."""
    if isinstance(g, Identity):
        return "identity"
    if isinstance(g, Constant):
        return f"constant:{g.value}"
    if isinstance(g, Table):
        body = ",".join(f"{k}={v}" for k, v in g.pairs)
        sep = "," if body else ""
        return f"table:{body}{sep}default={g.default}"
    return type(g).__name__


# ---------------------------------------------------------------- selection

# the shipped signatures, smallest first; each extends the one before it
_SHIPPED = (system_t(), system_t_list(), bar_rec())


def _annotated_datatypes(t: Term) -> set[str]:
    """The datatypes in t's binder annotations, read without host recursion."""
    names: set[str] = set()
    todo: list[Term | Ty] = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Data):
            names.add(s.name)
        elif isinstance(s, Arrow):
            todo += (s.dom, s.cod)
        elif isinstance(s, Lam):
            todo += (s.var_ty, s.body)
        elif isinstance(s, App):
            todo += (s.fun, s.arg)
    return names


def signature_for(t: Term) -> Signature:
    """The smallest shipped signature that declares t's symbols and the
    datatypes of its annotations, or the largest when none declares them all.

    The oracle symbol alpha is ignored here; it is added by with_oracle on
    top of whatever this returns.
    """
    names = symbols(t) - {"alpha"}
    datatypes = _annotated_datatypes(t)
    for sig in _SHIPPED:
        if datatypes <= sig.datatypes and all(sig.has_cons(n) or sig.has_func(n) for n in names):
            return sig
    return _SHIPPED[-1]
