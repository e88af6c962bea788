"""The traced pass: the workload's inputs driven through writ's public
functions one layer at a time, with a span around each call.

A span is (name, start, end, parent, op id), kept in memory for the round;
a layer's self time is its spans' duration minus that of their child spans.
Calls that writ's layers make into one another are counted, not timed: while
a traced round runs, the references other modules hold to `typecheck`,
`evaluate`, `evaluate_with_oracle` and `parse_type` are swapped for counting
wrappers.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

from families import TRIALS, Op, spector_total

# the stack and recursion limit the CLI gives its worker thread, so that the
# library calls made here reach the same depths the CLI does
STACK_BYTES = 256 * 1024 * 1024
RECURSION_LIMIT = 40_000


def run_roomy(fn: Callable[[], object]) -> object:
    """Run fn on a thread with the CLI worker's stack and recursion limit."""
    box: list = []

    def work() -> None:
        sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
        try:
            box.append((True, fn()))
        except BaseException as err:  # handed back to the caller below
            box.append((False, err))

    old = threading.stack_size()
    threading.stack_size(STACK_BYTES)
    try:
        worker = threading.Thread(target=work, name="bench-roomy")
        worker.start()
    finally:
        threading.stack_size(old)
    worker.join()
    ok, value = box[0]
    if not ok:
        raise value
    return value


class Tracer:
    """Spans of one traced round, with self time summed by name."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op id, child time]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op_id: int = -1):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, op_id, 0.0])
        self._stack.append(idx)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            s = self.spans[idx]
            s[2] = end
            if parent >= 0:
                self.spans[parent][5] += end - s[1]

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op, child in self.spans:
            out[name] += (end - start) - child
        return out


class NullTracer:
    """Same calls, no spans: the untraced half of the overhead comparison."""

    def span(self, name: str, op_id: int = -1):
        return contextlib.nullcontext()


@contextlib.contextmanager
def counting(counts: Counter, targets: list[tuple[object, str, str]]):
    """Count calls into each (module, function) from every other writ module.

    Calls inside the defining module (recursion) are not counted, so the count
    is of entries into the layer.
    """
    swapped = []
    try:
        for home, name, key in targets:
            orig = getattr(home, name, None)
            if orig is None:
                continue

            def wrapper(*args, _orig=orig, _key=key, **kwargs):
                counts[_key] += 1
                return _orig(*args, **kwargs)

            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod is home or not (mod_name == "writ" or mod_name.startswith("writ.")):
                    continue
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapper)
                    swapped.append((mod, name, orig))
        yield
    finally:
        for mod, name, orig in reversed(swapped):
            setattr(mod, name, orig)


def dag_size(writ, mt) -> int:
    """Distinct nodes of a translated term; the translation shares subterms,
    so the tree it unfolds to can be exponentially larger."""
    kinds = (writ.Iota, writ.Inc, writ.Com, writ.MVar, writ.BCons, writ.BFunc,
             writ.MLam, writ.MApp, writ.MPair, writ.ProjL, writ.ProjR)
    seen: set[int] = set()
    todo = [mt]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(v for v in vars(node).values() if isinstance(v, kinds))
    return len(seen)


class Layers:
    """Drives one op through writ's layers; counts what it sees."""

    def __init__(self, writ, tracer, seed: int) -> None:
        self.W = writ
        self.tr = tracer
        self.seed = seed
        self.traced = isinstance(tracer, Tracer)
        self.steps = 0  # steps of the evaluate calls made here
        self.nodes = 0
        self.trials = 0

    def drive(self, op: Op, op_id: int) -> bool:
        W, tr = self.W, self.tr
        with tr.span("op", op_id):
            with tr.span("parser.parse_term", op_id):
                term = W.parse_term(op.text)
            sig = W.signature_for(term)
            with tr.span("syntax.typecheck", op_id):
                W.typecheck(sig, {}, term)
            with tr.span("meta.translate", op_id):
                mt = W.translate(sig, {}, term)
            with tr.span("meta.meta_typecheck", op_id):
                W.meta_typecheck(sig, {}, mt)
            if self.traced:
                self.nodes += dag_size(W, mt)
            if op.command == "verify":
                return all(self._spec(s, term, sig, mt, op_id) for s in op.specs)
            return self._command(op, term, sig, mt, op_id)

    # ---- pieces shared by the corpus and the families

    def _translated(self, want, sig, term, mt, op_id):
        if want.name == sig.name:
            return mt
        with self.tr.span("meta.translate", op_id):
            return self.W.translate(want, {}, term)

    def _evaluate(self, sig, term, op_id):
        with self.tr.span("evaluator.evaluate", op_id):
            res = self.W.evaluate(sig, term)
        self.steps += res.steps
        return res

    def _denote(self, inst, mt, op_id):
        W = self.W
        with self.tr.span(f"engine.denote.{inst.name}", op_id):
            return W.pair_parts(W.denote(inst, {}, mt))

    def _continuity(self, g, mt, op_id):
        W = self.W
        with self.tr.span("engine.denote.continuity", op_id):
            inst = W.continuity_inst(g)
            den = W.denote(inst, {}, mt)
            oracle = W.spair((), W.SFun(
                lambda n: W.spair((W.as_base(n).value,), W.Base(g(W.as_base(n).value)))))
            support, value = W.pair_parts(W.compose(inst, den, oracle))
        return tuple(support), value

    # ---- corpus: one annotated analysis, checked the way verify checks it

    def _spec(self, spec, term, sig, mt, op_id) -> bool:
        W = self.W
        if spec == "cost":
            res = self._evaluate(sig, term, op_id)
            cost, _ = self._denote(W.cost_exact_inst(), mt, op_id)
            return cost == res.steps
        if spec == "bound":
            lsig = W.system_t_list()
            res = self._evaluate(lsig, term, op_id)
            cost, _ = self._denote(W.cost_bounded_inst(),
                                   self._translated(lsig, sig, term, mt, op_id), op_id)
            return res.steps <= cost
        if spec == "majorant":
            res = self._evaluate(sig, term, op_id)
            _, maj = self._denote(W.majorizability_inst(), mt, op_id)
            return W.numeral_value(res.value) <= maj.value
        if spec.startswith("modulus(") and spec.endswith(")"):
            g = W.oracle_from_string(spec[len("modulus("):-1])
            support, _ = self._continuity(
                g, self._translated(W.system_t(), sig, term, mt, op_id), op_id)
            # the perturbation loop's time is the difference of these two
            with self.tr.span("harness.verify_modulus", op_id):
                full = W.verify_modulus(term, g, trials=TRIALS, seed=self.seed)
            with self.tr.span("harness.verify_modulus.bare", op_id):
                bare = W.verify_modulus(term, g, trials=0, seed=self.seed)
            self.trials += full.evidence.get("perturbations_run", 0)
            return full.passed and bare.passed and support == tuple(full.evidence["support"])
        return False

    # ---- families: one CLI command's work, checked against the formula

    def _command(self, op: Op, term, sig, mt, op_id) -> bool:
        W, want = self.W, op.expect
        if op.command == "eval":
            res = self._evaluate(sig, term, op_id)
            return (str(W.numeral_value(res.value)) == want["value"]
                    and res.steps == want["steps"])
        if op.command == "cost":
            cost, value = self._denote(W.cost_exact_inst(), mt, op_id)
            ok = cost == want["predicted"] and value == W.Base(want["semantic"])
            if op.family.endswith(":search"):
                ok = ok and self._spector(op, term, sig, op_id)
            return ok
        if op.command == "bound":
            cost, size = self._denote(W.cost_bounded_inst(), mt, op_id)
            return cost == want["predicted"] and size == W.Base(want["semantic"])
        if op.command == "majorize":
            _, maj = self._denote(W.majorizability_inst(), mt, op_id)
            return maj == W.Base(want["majorant"])
        if op.command == "modulus":
            support, value = self._continuity(W.Identity(), mt, op_id)
            return list(support) == want["support"] and value == W.Base(want["value"])
        return False

    def _spector(self, op: Op, term, sig, op_id) -> bool:
        """The search's closed-form cost, from the denoted functional and
        stream, as the harness's search check computes it."""
        W = self.W
        _, args = W.spine(term)
        funs = []
        for part in args[:2]:
            with self.tr.span("meta.translate", op_id):
                mt = W.translate(sig, {}, part)
            funs.append(self._denote(W.cost_exact_inst(), mt, op_id)[1])
        with self.tr.span("instantiations.spector_closed_form", op_id):
            total = W.spector_closed_form(*funs)
        return total == spector_total(op.size)
