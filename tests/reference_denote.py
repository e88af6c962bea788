"""The flatten-and-run interpreter of the metalanguage without static
reductions, kept as the reference engine.denote must match.

Every node of a scope gets an entry: a pair is built, a projection takes
it apart again, and a lambda becomes a closure whose body runs as a scope
of its own at every call. engine.denote resolves those administrative
redexes when it flattens a scope; on every term, both must give the same
effect, the same value, the same symbol reads and the same errors.
"""

from __future__ import annotations

from writ import meta as M
from writ.engine import (
    Eff,
    Instantiation,
    SemEnv,
    SemVal,
    SFun,
    SPair,
    _literal,
    as_eff,
    as_fun,
    as_pair,
)
from writ.errors import MetaTypeMismatch

_RIGHT, _LEFT, _PAIR, _APP, _COM, _INC, _IOTA, _VAR, _LAM, _CONS, _FUNC, _LIT = range(12)

# each node kind's opcode; from _IOTA on, the node is a leaf of its scope (a
# lambda's body is a scope of its own)
_OPS: dict[type, int] = {
    M.ProjR: _RIGHT, M.ProjL: _LEFT, M.MPair: _PAIR, M.MApp: _APP, M.Com: _COM,
    M.Inc: _INC, M.Iota: _IOTA, M.MVar: _VAR, M.MLam: _LAM, M.BCons: _CONS,
    M.BFunc: _FUNC, M.MLit: _LIT,
}


def _flatten(root: M.MetaTerm) -> list[tuple]:
    """One scope as a children-first list, a shared node once, in the order a
    left-to-right walk that remembers shared nodes would finish them.

    Each entry is an opcode and three operands: the positions of the node's
    children in the list, or the node itself when it has none.
    """
    code: list[tuple] = []
    at: dict[int, int] = {}
    # nodes to visit, and (op, node, children) to finish once the children
    # are placed
    todo: list = [root]
    pop, push, extend = todo.pop, todo.append, todo.extend
    op_of, children = _OPS.get, M.children
    while todo:
        node = pop()
        if type(node) is tuple:
            op, node, kids = node
            at[id(node)] = len(code)
            if len(kids) == 1:
                code.append((op, at[id(kids[0])], None, None))
            elif len(kids) == 2:
                code.append((op, at[id(kids[0])], at[id(kids[1])], None))
            else:
                code.append((op, at[id(kids[0])], at[id(kids[1])], at[id(kids[2])]))
            continue
        if id(node) in at:
            continue
        op = op_of(type(node))
        if op is None:
            raise MetaTypeMismatch(f"unknown metalanguage node {node!r}")
        if op >= _IOTA:
            at[id(node)] = len(code)
            code.append((op, node, None, None))
            continue
        kids = children(node)
        push((op, node, kids))
        extend(kids[::-1])
    return code


def reference_denote(inst: Instantiation, env: SemEnv, mt: M.MetaTerm) -> SemVal:
    """Interpret a metalanguage term under an instantiation, node by node.

    Each scope is flattened at most once per call (a lambda body when it
    first runs); a run of a scope is a loop over its list, and the host
    recurses where one lambda's run calls another.
    """
    eff = inst.effect
    iota = Eff(eff.eps)
    codes: dict[int, list[tuple]] = {}  # a lambda body's list
    literals: dict[int, SemVal] = {}  # a literal leaf's value

    def closure(lam: M.MLam, scope: SemEnv) -> SFun:
        body, var = lam.body, lam.var

        def call(a: SemVal) -> SemVal:
            code = codes.get(id(body))
            if code is None:
                code = codes[id(body)] = _flatten(body)
            return run(code, {**scope, var: a})

        return SFun(call)

    def run(code: list[tuple], scope: SemEnv) -> SemVal:
        vals: list[SemVal] = []
        push = vals.append
        for op, x, y, z in code:
            if op == _RIGHT:
                push(as_pair(vals[x]).snd)
            elif op == _LEFT:
                push(as_pair(vals[x]).fst)
            elif op == _PAIR:
                push(SPair(vals[x], vals[y]))
            elif op == _IOTA:
                push(iota)
            elif op == _APP:
                push(as_fun(vals[x]).fn(vals[y]))
            elif op == _COM:
                push(Eff(eff.com(as_eff(vals[x]).amount, as_eff(vals[y]).amount,
                                 as_eff(vals[z]).amount)))
            elif op == _VAR:
                try:
                    push(scope[x.name])
                except KeyError:
                    raise MetaTypeMismatch(
                        f"unbound meta variable {x.name!r} at interpretation time"
                    ) from None
            elif op == _LAM:
                push(closure(x, scope))
            elif op == _INC:
                push(Eff(eff.inc(as_eff(vals[x]).amount)))
            elif op == _CONS:
                push(inst.cons(x.symbol))
            elif op == _FUNC:
                push(inst.func(x.symbol))
            else:
                v = literals.get(id(x))
                if v is None:
                    v = literals[id(x)] = _literal(inst, x.value)
                push(v)
        return vals[-1]

    return run(_flatten(mt), dict(env))
