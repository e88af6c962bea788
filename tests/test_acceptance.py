"""End-to-end acceptance checks over the shipped corpus.

Every test here reads the annotated files under corpus/ or drives the
public verifiers directly. Tolerances are zero throughout: predicted step
counts must equal observed counts exactly, bounds must never be exceeded,
and perturbed oracles must never change an output value.
"""
from __future__ import annotations

import random
import time
from pathlib import Path

from reference_eval import is_value
from reference_pure import pure_denote
from writ import (
    DEFAULT_FUEL,
    GAMMA,
    Base,
    Constant,
    Identity,
    Prod,
    Table,
    as_base,
    bar_rec,
    continuity_inst,
    denote,
    evaluate,
    lift,
    majorant,
    meta_typecheck,
    numeral_value,
    pair_parts,
    parse_term,
    render_type,
    signature_for,
    symbols,
    system_t,
    translate,
    typecheck,
    verify_bound,
    verify_exact_cost,
    verify_majorant,
    verify_modulus,
    verify_spector,
)
from mutants import (
    forgetful_continuity_inst,
    overcharging_exact_inst,
    shrinking_majorizability_inst,
    undercounting_bounded_inst,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ORACLES = [Identity(), Constant(5), Table(pairs=((0, 9), (1, 3)))]

# (control functional, stream generator) pairs for the search checks; the
# first is the settled-after-six pair the closed form is calibrated on.
SEARCH_PAIRS = [
    ("fn f:Nat->Nat => 5", "fn x:Nat => 0"),
    ("fn f:Nat->Nat => f 0", "fn x:Nat => 2"),
    ("fn f:Nat->Nat => f 1", "fn x:Nat => x"),
    ("fn f:Nat->Nat => succ (f 3)", "fn x:Nat => 0"),
    ("fn f:Nat->Nat => add (f 0) (f 1)", "fn x:Nat => 1"),
]

SEARCH_TEMPLATE = (
    "(fn w:(Nat->Nat)->Nat => fn y:Nat->Nat => fn z:List => "
    "bar w (fn u:List => 0) "
    "(fn v:List => fn p:Nat->Nat => succ (p (y (len v)))) z)"
)


def _corpus(annotation: str) -> list[tuple[str, object]]:
    """All corpus terms whose header carries the given analysis keyword."""
    picked = []
    for path in sorted(CORPUS.glob("*.wt")):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0]
        assert header.startswith("-- analyses:"), path.name
        if annotation in header:
            body = "\n".join(l for l in lines if not l.strip().startswith("--"))
            picked.append((path.name, parse_term(body)))
    return picked


def _eval_int(src: str) -> int:
    res = evaluate(bar_rec(), parse_term(src))
    n = numeral_value(res.value)
    assert n is not None, src
    return n


def test_exact_cost_is_observed_cost_across_corpus():
    started = time.monotonic()
    picked = _corpus("cost")
    assert len(picked) >= 30
    seen: set[str] = set()
    for name, term in picked:
        seen |= symbols(term)
        rep = verify_exact_cost(term, term_id=name)
        assert rep.passed, (name, rep.details, dict(rep.evidence))
        assert rep.evidence["predicted"] == rep.evidence["observed"]
    # the corpus must exercise the recursor, the fold, the one-step
    # builtins, and the backward search, not just constructor terms
    for required in ("rec[Nat]", "fold[Nat]", "add", "mul", "lt", "len", "ext", "bar"):
        assert required in seen, required
    assert time.monotonic() - started < 5.0


def test_search_closed_form_equals_recurrence_on_five_pairs():
    started = time.monotonic()
    reports = []
    for i, (omega_src, beta_src) in enumerate(SEARCH_PAIRS):
        rep = verify_spector(
            parse_term(omega_src), parse_term(beta_src), term_id=f"pair{i}"
        )
        reports.append(rep)
        assert rep.passed, (omega_src, rep.details, dict(rep.evidence))
        assert rep.evidence["closed_form"] == rep.evidence["recurrence"]
        assert rep.evidence["predicted"] == rep.evidence["observed"]
    # the flat control functional settles after six extensions
    assert reports[0].evidence["returned"] == 6
    # the closed form and the recurrence read the stream the same way, so
    # pin their totals against drifting together
    assert [r.evidence["closed_form"] for r in reports] == [78, 46, 20, 33, 54]
    assert time.monotonic() - started < 2.0


def test_modulus_shields_the_value_from_perturbations():
    started = time.monotonic()
    picked = _corpus("modulus")
    assert len(picked) >= 15
    for name, term in picked:
        for g in ORACLES:
            rep = verify_modulus(term, g, trials=100, seed=0, term_id=name)
            assert rep.passed, (name, g, rep.details, dict(rep.evidence))
            assert rep.evidence["perturbations_run"] == 100
    assert time.monotonic() - started < 10.0


def test_step_and_size_bounds_hold_on_list_corpus():
    picked = _corpus("bound")
    assert len(picked) >= 15
    for name, term in picked:
        rep = verify_bound(term, term_id=name)
        assert rep.passed, (name, rep.details, dict(rep.evidence))
        assert rep.evidence["observed"] <= rep.evidence["predicted"]


def test_majorants_dominate_and_grow_monotonically():
    picked = _corpus("majorant")
    assert len(picked) >= 15
    for name, term in picked:
        rep = verify_majorant(term, term_id=name)
        assert rep.passed, (name, rep.details, dict(rep.evidence))

    # domination alone could be satisfied by accident; the interpretations
    # of the arithmetic symbols must also be monotone in every argument
    rng = random.Random(0)
    templates = [
        "add {m} {n}",
        "mul {m} {n}",
        "lt {m} {n}",
        "rec[Nat] {m} (fn a:Nat => fn b:Nat => succ (succ b)) {n}",
    ]
    for _ in range(100):
        m = rng.randrange(0, 24)
        n = rng.randrange(0, 24)
        bigger_m = m + rng.randrange(0, 8)
        bigger_n = n + rng.randrange(0, 8)
        for template in templates:
            low = as_base(majorant(parse_term(template.format(m=m, n=n)))).value
            high = as_base(
                majorant(parse_term(template.format(m=bigger_m, n=bigger_n)))
            ).value
            assert low <= high, (template, m, n, bigger_m, bigger_n)


def test_every_bar_term_terminates_and_the_search_result_settles():
    bar_terms = [
        (name, term) for name, term in _corpus("cost") if "bar" in symbols(term)
    ]
    assert bar_terms
    for name, term in bar_terms:
        res = evaluate(bar_rec(), term, DEFAULT_FUEL)
        assert is_value(bar_rec(), res.value), name

    # the returned count n is the first prefix length at which the control
    # functional's answer on the padded prefix drops below that length
    for omega_src, beta_src in SEARCH_PAIRS:
        n = _eval_int(f"{SEARCH_TEMPLATE} ({omega_src}) ({beta_src}) []")
        stream = [_eval_int(f"({beta_src}) {k}") for k in range(n)]
        for k in range(n + 1):
            prefix = "[" + ",".join(str(v) for v in stream[:k]) + "]"
            answer = _eval_int(f"({omega_src}) (ext {prefix})")
            assert (answer < k) == (k == n), (omega_src, k, n)


def test_every_corpus_translation_typechecks_in_the_metalanguage():
    picked = _corpus("analyses")
    assert len(picked) >= 55
    for name, term in picked:
        sig = signature_for(term)
        ty = typecheck(sig, {}, term)
        got = meta_typecheck(sig, {}, translate(sig, {}, term))
        assert got == Prod(GAMMA, lift(ty)), name


def test_pure_semantics_agrees_with_instrumented_value():
    def recursor_only(term) -> bool:
        return all(
            s in ("zero", "succ") or s.startswith("rec[") for s in symbols(term)
        )

    picked = [
        (name, term)
        for name, term in _corpus("cost")
        if recursor_only(term)
        and render_type(typecheck(signature_for(term), {}, term)) == "Nat"
    ]
    assert len(picked) >= 10
    inst = continuity_inst(Identity())
    for name, term in picked:
        sig = system_t()
        want = numeral_value(evaluate(sig, term).value)
        assert want is not None, name
        assert pure_denote({}, term) == Base(want), name
        queries, sem = pair_parts(denote(inst, {}, translate(sig, {}, term)))
        assert queries == (), name
        assert sem == Base(want), name


def test_each_verifier_rejects_its_planted_mutant():
    rec3 = parse_term("rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3")
    ff2 = parse_term("fn f:Nat->Nat => f (f 2)")
    fold2 = parse_term("fold[Nat] 0 (fn n:Nat => fn p:Nat => succ p) [7,7]")
    sum23 = parse_term("add 2 3")
    g = Identity()

    assert not verify_exact_cost(rec3, inst=overcharging_exact_inst()).passed
    assert not verify_modulus(
        ff2, g, trials=10, inst=forgetful_continuity_inst(g)
    ).passed
    assert not verify_bound(fold2, inst=undercounting_bounded_inst()).passed
    assert not verify_majorant(sum23, inst=shrinking_majorizability_inst()).passed

    # the stock instantiations accept the very same terms
    assert verify_exact_cost(rec3).passed
    assert verify_modulus(ff2, g, trials=10).passed
    assert verify_bound(fold2).passed
    assert verify_majorant(sum23).passed
