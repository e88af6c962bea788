"""Cross-checking verifiers.

Every analysis is replayed against the instrumented evaluator (or, for the
search cost, against an independently coded recurrence) and the comparison
is packaged as a VerifyReport. run_corpus drives a directory of annotated
.wt files and never lets one bad file poison the rest.

verify_file prepares each term once for all of its analyses
(instantiations._Prepared, the analyses' own preparation): one typecheck,
translation and evaluation, and one compiled program of the term applied to
alpha, which every modulus check of the file runs once per oracle, the live
one and each perturbed one. A perturbed trial is one run of that program,
its value compared as the machine's int. Each public verifier runs the same
check as verify_file, on a preparation of its own.
"""

from __future__ import annotations

import random
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional

from .engine import COST, Base, BaseList, SemVal, as_base, as_fun, pair_parts
from .errors import FuelExhausted, ParseError, WritError
from .evaluator import DEFAULT_FUEL, Fuel, evaluate
from .instantiations import (
    Instantiation,
    _Prepared,
    exact_cost,
    lift_builtin,
    spector_closed_form,
)
from .parser import parse_term
from .signatures import BUILTINS, OracleSpec, oracle_from_string, oracle_label
from .syntax import (
    App,
    Func,
    Term,
    app,
    list_term,
    list_value,
    numeral,
    numeral_value,
    render_term,
)

__all__ = [
    "VerifyReport",
    "verify_exact_cost",
    "verify_modulus",
    "verify_bound",
    "verify_majorant",
    "verify_spector",
    "verify_file",
    "run_corpus",
    "SEARCH_TEMPLATE",
]

PASS = "pass"
FAIL = "fail"
_WINDOW = 8  # positions at or above the modulus a perturbed oracle may change


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of replaying one analysis of one term."""

    term_id: str
    analysis: str
    status: str
    details: str = ""
    evidence: Mapping[str, object] = field(default_factory=dict)
    trials: int = 0
    seed: int = 0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        return asdict(self)


def _fail(
    term_id: str,
    analysis: str,
    details: str,
    evidence: Optional[Mapping[str, object]] = None,
    trials: int = 0,
    seed: int = 0,
) -> VerifyReport:
    return VerifyReport(term_id, analysis, FAIL, details, dict(evidence or {}), trials, seed)


def _ok(
    term_id: str,
    analysis: str,
    evidence: Optional[Mapping[str, object]] = None,
    trials: int = 0,
    seed: int = 0,
) -> VerifyReport:
    return VerifyReport(term_id, analysis, PASS, "", dict(evidence or {}), trials, seed)


def _err(e: WritError) -> str:
    return f"{type(e).__name__}: {e}"


# ---------------------------------------------------------------- exact cost

def verify_exact_cost(
    e: Term,
    term_id: str = "",
    inst: Optional[Instantiation] = None,
    fuel: Fuel = DEFAULT_FUEL,
) -> VerifyReport:
    """Predicted steps must equal observed steps, with zero tolerance."""
    return _check_cost(_Prepared(e, fuel), term_id or render_term(e), inst)


def _check_cost(p: _Prepared, term_id: str, inst: Optional[Instantiation] = None) -> VerifyReport:
    try:
        res = p.evaluation()
        rep = p.cost(inst)
    except WritError as err:
        return _fail(term_id, "cost", _err(err))
    evidence = {"predicted": rep.predicted, "observed": res.steps}
    if rep.predicted != res.steps:
        return _fail(term_id, "cost", "predicted steps differ from observed", evidence)
    return _ok(term_id, "cost", evidence)


# ---------------------------------------------------------------- modulus

def _listed(answers: list[int]) -> Callable[[int], int]:
    """The oracle answering n with answers[n], and zero past their end."""
    size = len(answers)
    return lambda n: answers[n] if n < size else 0


def verify_modulus(
    e: Term,
    g: OracleSpec,
    trials: int = 100,
    seed: int = 0,
    term_id: str = "",
    inst: Optional[Instantiation] = None,
    fuel: Fuel = DEFAULT_FUEL,
) -> VerifyReport:
    """Replay the term against the live oracle, then against perturbed ones.

    Checks, in order: the predicted value matches evaluation with the oracle
    installed; every logged query lies in the reported support; the support
    is the logged queries, in order and with repeats; and for a
    seeded batch of oracles mutated only at unclaimed positions below the
    modulus and at the _WINDOW positions from it up (a module constant, 8),
    the value never moves. Raises ValueError when trials is negative.
    """
    return _check_modulus(_Prepared(e, fuel), g, trials, seed, term_id or render_term(e), inst)


def _check_modulus(
    p: _Prepared,
    g: OracleSpec,
    trials: int,
    seed: int,
    term_id: str,
    inst: Optional[Instantiation] = None,
) -> VerifyReport:
    if trials < 0:
        raise ValueError("trials must not be negative")
    analysis = f"modulus({oracle_label(g)})"
    try:
        rep = p.modulus(g, inst)
        # a type-two term applied to alpha is well typed under every oracle
        run = p.runner()
        value, _, queries = run(g)
    except WritError as err:
        return _fail(term_id, analysis, _err(err), trials=trials, seed=seed)
    evidence: dict[str, object] = {
        "phi": rep.phi,
        "support": rep.support,
        "predicted_value": rep.predicted_value,
        "observed_value": value,
        "queries": queries,
    }
    if value != rep.predicted_value:
        return _fail(term_id, analysis, "value differs under the live oracle",
                     evidence, trials, seed)
    if not set(queries) <= set(rep.support):
        return _fail(term_id, analysis, "evaluator queried outside the support",
                     evidence, trials, seed)
    if queries != rep.support:
        return _fail(term_id, analysis, "support differs from the evaluator's queries",
                     evidence, trials, seed)
    rng = random.Random(seed)
    support = set(rep.support)
    answers = [g(j) for j in range(rep.phi + _WINDOW)]
    mutable = [j for j in range(rep.phi + _WINDOW) if j not in support]
    ran = 0
    for _ in range(trials):
        if not mutable:
            break
        count = rng.randint(1, min(4, len(mutable)))
        chosen = sorted(rng.sample(mutable, count))
        perturbed = answers.copy()
        for j in chosen:
            perturbed[j] += 1 + rng.randrange(5)
        try:
            value = run(_listed(perturbed))[0]
        except WritError as err:
            return _fail(term_id, analysis, _err(err),
                         {**evidence, "mutated_positions": chosen}, trials, seed)
        if value != rep.predicted_value:
            return _fail(
                term_id,
                analysis,
                "perturbing unclaimed oracle positions changed the value",
                {**evidence, "mutated_positions": chosen, "perturbed_value": value},
                trials,
                seed,
            )
        ran += 1
    evidence["perturbations_run"] = ran
    return _ok(term_id, analysis, evidence, trials, seed)


# ---------------------------------------------------------------- bounds

def verify_bound(
    e: Term,
    term_id: str = "",
    inst: Optional[Instantiation] = None,
    fuel: Fuel = DEFAULT_FUEL,
) -> VerifyReport:
    """Observed steps must not exceed the bound; the size bound must cover
    the result (at least one for a numeral, at least the length for a list)."""
    return _check_bound(_Prepared(e, fuel), term_id or render_term(e), inst)


def _check_bound(p: _Prepared, term_id: str, inst: Optional[Instantiation] = None) -> VerifyReport:
    try:
        rep = p.bound(inst)
        res = p.evaluation()
    except WritError as err:
        return _fail(term_id, "bound", _err(err))
    evidence: dict[str, object] = {"predicted": rep.predicted, "observed": res.steps}
    if res.steps > rep.predicted:
        return _fail(term_id, "bound", "observed steps exceed the bound", evidence)
    n = numeral_value(res.value)
    items = list_value(res.value)
    if isinstance(rep.semantic, Base):
        size = rep.semantic.value
        evidence["size_bound"] = size
        if n is not None and size < 1:
            return _fail(term_id, "bound", "numeral result needs size at least one", evidence)
        if items is not None:
            evidence["result_length"] = len(items)
            if size < len(items):
                return _fail(term_id, "bound", "size bound below the result length", evidence)
    return _ok(term_id, "bound", evidence)


def verify_majorant(
    e: Term,
    term_id: str = "",
    inst: Optional[Instantiation] = None,
    fuel: Fuel = DEFAULT_FUEL,
) -> VerifyReport:
    """The majorant of a numeral-valued term must dominate its value."""
    return _check_majorant(_Prepared(e, fuel), term_id or render_term(e), inst)


def _check_majorant(
    p: _Prepared, term_id: str, inst: Optional[Instantiation] = None
) -> VerifyReport:
    try:
        maj = p.majorant(inst)
        res = p.evaluation()
    except WritError as err:
        return _fail(term_id, "majorant", _err(err))
    n = numeral_value(res.value)
    if n is None or not isinstance(maj, Base):
        return _fail(term_id, "majorant", "majorant checking needs a numeral-valued term",
                     {"value": render_term(res.value)})
    evidence = {"majorant": maj.value, "observed": n}
    if n > maj.value:
        return _fail(term_id, "majorant", "value exceeds its majorant", evidence)
    return _ok(term_id, "majorant", evidence)


# ---------------------------------------------------------------- search

# the canonical unbounded search: extend with the stream given by y until
# the functional w settles on the segment seen so far, return the count of
# extensions made
SEARCH_TEMPLATE = (
    "fn w:(Nat->Nat)->Nat => fn y:Nat->Nat => fn z:List => "
    "bar w (fn u:List => 0) "
    "(fn v:List => fn p:Nat->Nat => succ (p (y (len v)))) z"
)


def _search_recurrence(omega: SemVal, g: SemVal, fuel: Fuel) -> int:
    """Round-by-round unfolding of the search cost, summed as it goes where
    the closed form sums at the end. It shares the closed form's constants
    (an unsettled round costs a five-step frame plus omega's work, and
    extending costs another five plus the stream's work), so it checks the
    closed form's sums, not its constants against the machine."""
    w, gf = as_fun(omega), as_fun(g)
    ext = as_fun(lift_builtin(BUILTINS["ext"], COST))
    xs = BaseList()
    total = 0
    while True:
        if len(xs) == fuel.max_steps:
            raise FuelExhausted(fuel.max_steps)
        c_w, v = pair_parts(w.fn(ext.fn(xs)))
        total += 5 + c_w
        if as_base(v).value < len(xs):
            return total
        c_g, v = pair_parts(gf.fn(Base(len(xs))))
        total += 5 + c_g
        xs = xs.snoc(as_base(v).value)


def verify_spector(
    omega_term: Term,
    beta_term: Term,
    term_id: str = "search",
    fuel: Fuel = DEFAULT_FUEL,
) -> VerifyReport:
    """Cross-check the canonical search three ways.

    (i) the fully applied search term's predicted cost equals its observed
    steps; (ii) the closed-form total equals the independently unfolded
    recurrence; (iii) the returned count n really is a settling point:
    omega applied to the padded length-n prefix of the stream answers
    below n.
    """
    try:
        search = parse_term(SEARCH_TEMPLATE)
        # the template holds bar, so the search's own signature is bar_rec
        p = _Prepared(app(search, omega_term, beta_term, list_term(())), fuel)
        res = p.evaluation()
        rep = p.cost()
        omega_fun = exact_cost(omega_term, fuel).semantic
        beta_fun = exact_cost(beta_term, fuel).semantic
        closed = spector_closed_form(omega_fun, beta_fun, fuel)
        recurrence = _search_recurrence(omega_fun, beta_fun, fuel)
    except WritError as err:
        return _fail(term_id, "spector", _err(err))
    evidence: dict[str, object] = {
        "predicted": rep.predicted,
        "observed": res.steps,
        "closed_form": closed,
        "recurrence": recurrence,
    }
    if rep.predicted != res.steps:
        return _fail(term_id, "spector", "full-term cost prediction missed", evidence)
    if closed != recurrence:
        return _fail(term_id, "spector", "closed form disagrees with the recurrence",
                     evidence)
    n = numeral_value(res.value)
    if n is None:
        return _fail(term_id, "spector", "search did not return a numeral", evidence)
    evidence["returned"] = n
    try:
        stream = [
            numeral_value(evaluate(p.sig, App(beta_term, numeral(i)), fuel).value)
            for i in range(n)
        ]
        probe = app(omega_term, App(Func("ext"), list_term(stream)))
        settled = numeral_value(evaluate(p.sig, probe, fuel).value)
    except WritError as err:
        return _fail(term_id, "spector", _err(err), evidence)
    evidence["settled_at"] = settled
    if settled is None or settled >= n:
        return _fail(term_id, "spector", "returned count is not a settling point",
                     evidence)
    return _ok(term_id, "spector", evidence)


# ---------------------------------------------------------------- corpus

_HEADER_RE = re.compile(r"^\s*--\s*analyses:\s*(.+?)\s*$")


def _split_specs(text: str) -> list[str]:
    pieces: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            pieces.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        pieces.append(tail)
    return [p for p in pieces if p]


def _annotations(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines:
        return []
    m = _HEADER_RE.match(lines[0])
    return _split_specs(m.group(1)) if m else []


_CHECKS = {"cost": _check_cost, "bound": _check_bound, "majorant": _check_majorant}


def _dispatch(spec: str, p: _Prepared, term_id: str, trials: int, seed: int) -> VerifyReport:
    check = _CHECKS.get(spec)
    if check is not None:
        return check(p, term_id)
    m = re.fullmatch(r"modulus\((.*)\)", spec)
    if m:
        try:
            g = oracle_from_string(m.group(1))
        except ValueError as err:
            return _fail(term_id, spec, f"bad oracle: {err}")
        return _check_modulus(p, g, trials, seed, term_id)
    return _fail(term_id, spec, f"unknown analysis {spec!r}")


def verify_file(
    path: str | Path,
    fuel: Fuel = DEFAULT_FUEL,
    trials: int = 100,
    seed: int = 0,
) -> list[VerifyReport]:
    """Run every annotated analysis of one .wt file; a file that cannot be
    read as UTF-8, or a term nested past the host's recursion limit, gives
    one failure report for the file. The analyses share one preparation of
    the term (see _Prepared): one typecheck, translation, evaluation and
    oracle runner for all of them."""
    path = Path(path)
    term_id = path.name
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [_fail(term_id, "read", f"{type(err).__name__}: {err}")]
    specs = _annotations(text)
    try:
        try:
            term = parse_term(text)
        except ParseError as err:
            return [_fail(term_id, "parse", str(err))]
        p = _Prepared(term, fuel)
        try:
            p.type()
        except WritError as err:
            # one report for the file; the analyses are not attempted
            return [_fail(term_id, "check", _err(err))]
        return [_dispatch(s, p, term_id, trials, seed) for s in specs]
    except RecursionError:
        return [_fail(term_id, "depth", "term too deeply nested")]


def run_corpus(
    path: str | Path,
    fuel: Fuel = DEFAULT_FUEL,
    trials: int = 100,
    seed: int = 0,
) -> list[VerifyReport]:
    """Verify a directory of annotated .wt files, one report per analysis.

    Files are processed in name order; a file that cannot be read, fails to
    parse or check, or nests too deeply contributes a single failure report
    and the rest still run. Results are deterministic for a fixed seed.
    """
    reports: list[VerifyReport] = []
    for file in sorted(Path(path).glob("*.wt")):
        reports.extend(verify_file(file, fuel=fuel, trials=trials, seed=seed))
    return reports
