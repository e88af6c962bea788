"""The verifiers: honest on correct analyses, loud on corrupted ones."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings

from mutants import (
    forgetful_continuity_inst,
    overcharging_exact_inst,
    overclaiming_continuity_inst,
    shrinking_majorizability_inst,
    undercounting_bounded_inst,
)
from term_strategies import FUNCTIONAL, N2N, closed_terms
from writ import (
    SEARCH_TEMPLATE,
    Constant,
    Fuel,
    FuelExhausted,
    Identity,
    Table,
    VerifyReport,
    app,
    bar_rec,
    evaluate,
    list_term,
    oracle_from_string,
    parse_term,
    render_term,
    run_corpus,
    verify_bound,
    verify_exact_cost,
    verify_file,
    verify_majorant,
    verify_modulus,
    verify_spector,
)
from writ import harness, instantiations

FF2 = "fn f:Nat->Nat => f (f 2)"
REC3 = "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3"
FOLD2 = "fold[Nat] 0 (fn n:Nat => fn p:Nat => succ p) [7,7]"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_report_shape_and_serialization():
    rep = verify_exact_cost(parse_term(REC3), term_id="rec3")
    assert rep.passed
    assert rep.term_id == "rec3"
    assert rep.analysis == "cost"
    assert rep.evidence == {"predicted": 10, "observed": 10}
    d = rep.to_dict()
    assert d["status"] == "pass"
    json.dumps(d)  # must be JSON-clean, tuples and all


def test_default_term_id_is_the_rendered_term():
    rep = verify_exact_cost(parse_term("(fn x:Nat => x) 0"))
    assert rep.term_id == "(fn x:Nat => x) 0"


def test_verify_exact_cost_catches_overcharging():
    rep = verify_exact_cost(parse_term(REC3), term_id="rec3", inst=overcharging_exact_inst())
    assert not rep.passed
    assert rep.details == "predicted steps differ from observed"
    assert rep.evidence["predicted"] > rep.evidence["observed"]


def test_verify_modulus_passes_all_three_oracle_kinds():
    t = parse_term(FF2)
    for g in (Identity(), Constant(5), Table(((0, 9), (1, 3)))):
        rep = verify_modulus(t, g, trials=25, seed=3, term_id="ff2")
        assert rep.passed, rep.details
        assert rep.evidence["perturbations_run"] == 25
        assert rep.trials == 25
        assert rep.seed == 3


def test_verify_modulus_analysis_names_the_oracle():
    rep = verify_modulus(parse_term(FF2), Constant(5), trials=5)
    assert rep.analysis == "modulus(constant:5)"


def test_verify_modulus_catches_leaky_effects():
    g = Identity()
    rep = verify_modulus(
        parse_term(FF2), g, trials=10, term_id="ff2", inst=forgetful_continuity_inst(g)
    )
    assert not rep.passed
    assert rep.details == "evaluator queried outside the support"


def _corpus_modulus_checks():
    """Each modulus(…) check of the corpus: its file's name and term, and its oracle."""
    checks = []
    for path in sorted(CORPUS.glob("*.wt")):
        text = path.read_text(encoding="utf-8")
        for spec in harness._annotations(text):
            m = re.fullmatch(r"modulus\((.*)\)", spec)
            if m:
                checks.append((path.name, parse_term(text), oracle_from_string(m.group(1))))
    return checks


def test_verify_modulus_catches_overclaiming_on_every_corpus_check_that_queries():
    # the claimed support holds every query, so only the whole trace shows
    # the positions the evaluator never asked for
    checks = _corpus_modulus_checks()
    assert len(checks) == 48
    querying = 0
    for name, term, g in checks:
        honest = verify_modulus(term, g, trials=0, term_id=name)
        assert honest.passed, (name, honest.details)
        rep = verify_modulus(term, g, trials=0, term_id=name,
                             inst=overclaiming_continuity_inst(g))
        if honest.evidence["support"]:
            querying += 1
            assert not rep.passed, name
            assert rep.details == "support differs from the evaluator's queries"
        else:
            assert rep == honest, name
    assert querying > 0


def test_verify_modulus_is_deterministic_per_seed():
    t = parse_term(FF2)
    a = verify_modulus(t, Identity(), trials=30, seed=11)
    b = verify_modulus(t, Identity(), trials=30, seed=11)
    assert a == b


def test_verify_modulus_blind_functional_has_nothing_to_perturb_below_phi():
    rep = verify_modulus(parse_term("fn f:Nat->Nat => 7"), Identity(), trials=10)
    assert rep.passed
    # phi is zero, so only the window above it gets mutated
    assert rep.evidence["phi"] == 0
    assert rep.evidence["perturbations_run"] == 10


def test_verify_modulus_runs_each_trial_under_its_own_oracle(monkeypatch):
    # a mutated oracle differs from the live one only where a correct
    # evaluator never looks, so the value alone cannot show which one ran
    calls = []  # (oracle, argument); keeping every oracle alive keeps ids apart
    make_runner = instantiations.oracle_runner

    def recording_runner(*args):
        run = make_runner(*args)
        return lambda g: run(lambda n: calls.append((g, n)) or g(n))

    monkeypatch.setattr(instantiations, "oracle_runner", recording_runner)
    rep = verify_modulus(parse_term(FF2), Identity(), trials=10, seed=5)
    assert rep.passed
    assert rep.evidence["perturbations_run"] == 10
    by_oracle: dict[int, list[int]] = {}
    for g, n in calls:
        by_oracle.setdefault(id(g), []).append(n)
    # the live oracle, then ten mutated ones, each queried as the live one
    # was: at 2, then at its answer
    assert list(by_oracle.values()) == [[2, 2]] * 11


def test_verify_modulus_draws_its_mutations_in_seeded_order(monkeypatch):
    # the draws of each trial: how many positions, which, and then one bump
    # per chosen position in ascending order; a mutated oracle answers zero
    # past the window, as a table with default zero does
    seen = []
    make_runner = instantiations.oracle_runner

    def recording_runner(*args):
        run = make_runner(*args)

        def recorded(g):
            seen.append([g(j) for j in range(13)])
            return run(g)
        return recorded

    monkeypatch.setattr(instantiations, "oracle_runner", recording_runner)
    t = parse_term("fn f:Nat->Nat => f (succ (f 1))")
    assert verify_modulus(t, Identity(), trials=20, seed=7).passed
    rng = random.Random(7)
    answers = list(range(11))  # support 1 and 2, phi 3, and a window of 8
    mutable = [j for j in answers if j not in (1, 2)]
    want = [list(range(13))]
    for _ in range(20):
        chosen = sorted(rng.sample(mutable, rng.randint(1, 4)))
        want.append([a + 1 + rng.randrange(5) if j in chosen else a
                     for j, a in enumerate(answers)] + [0, 0])
    assert seen == want


def test_verify_modulus_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        verify_modulus(parse_term(FF2), Identity(), trials=-3)
    rep = verify_modulus(parse_term(FF2), Identity(), trials=0)
    assert rep.passed
    assert rep.evidence["perturbations_run"] == 0


def test_verify_bound_passes_and_catches_undercounting():
    t = parse_term(FOLD2)
    good = verify_bound(t, term_id="fold2")
    assert good.passed
    assert good.evidence["observed"] <= good.evidence["predicted"]
    bad = verify_bound(t, term_id="fold2", inst=undercounting_bounded_inst())
    assert not bad.passed
    assert bad.details == "observed steps exceed the bound"


def test_verify_bound_reports_rejected_symbols_as_failures():
    rep = verify_bound(parse_term(REC3))
    assert not rep.passed
    assert "UnsupportedSymbol" in rep.details


def test_verify_majorant_passes_and_catches_shrinkage():
    t = parse_term("add 2 3")
    good = verify_majorant(t, term_id="sum")
    assert good.passed
    assert good.evidence == {"majorant": 5, "observed": 5}
    bad = verify_majorant(t, term_id="sum", inst=shrinking_majorizability_inst())
    assert not bad.passed
    assert bad.details == "value exceeds its majorant"


def test_verify_majorant_needs_a_numeral_result():
    rep = verify_majorant(parse_term("fn x:Nat => x"))
    assert not rep.passed
    assert "numeral-valued" in rep.details


def test_verify_spector_canonical_pair():
    rep = verify_spector(
        parse_term("fn f:Nat->Nat => 5"), parse_term("fn x:Nat => 0")
    )
    assert rep.passed, rep.details
    assert rep.evidence["returned"] == 6
    assert rep.evidence["settled_at"] == 5
    assert rep.evidence["closed_form"] == 78
    assert rep.evidence["recurrence"] == 78
    assert rep.evidence["predicted"] == rep.evidence["observed"]


def test_verify_spector_probing_pair():
    rep = verify_spector(
        parse_term("fn f:Nat->Nat => f 0"), parse_term("fn x:Nat => 2")
    )
    assert rep.passed, rep.details
    assert rep.evidence["returned"] == 3
    assert rep.evidence["closed_form"] == rep.evidence["recurrence"] == 46


@example(parse_term("fn x:Nat->Nat => fold[Nat] (ext [3] 0) mul (cons [2,2,3] 3)"),
         parse_term("fn x:Nat => x"))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(closed_terms(FUNCTIONAL, lists=True), closed_terms(N2N, lists=True))
def test_verify_spector_passes_on_generated_searches(omega, beta):
    # the full term's prediction is its steps, and the count it returns is
    # a settling point, for any functional and stream the generator draws;
    # a search the machine cannot finish in 2,000 steps (the example takes
    # 2,199) is verified at the default fuel instead
    fuel = Fuel(2000)
    try:
        evaluate(bar_rec(), app(parse_term(SEARCH_TEMPLATE), omega, beta, list_term(())), fuel)
    except FuelExhausted:
        fuel = Fuel()
    rep = verify_spector(omega, beta, fuel=fuel)
    assert rep.passed, (render_term(omega), render_term(beta), rep.details)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_verify_file_without_header_runs_nothing(tmp_path):
    p = _write(tmp_path, "plain.wt", "add 1 2\n")
    assert verify_file(p) == []


def test_verify_file_with_analyses(tmp_path):
    p = _write(tmp_path, "rec3.wt", f"-- analyses: cost,majorant\n{REC3}\n")
    reports = verify_file(p)
    assert [r.analysis for r in reports] == ["cost", "majorant"]
    assert all(r.passed for r in reports)
    assert all(r.term_id == "rec3.wt" for r in reports)


def test_verify_file_splits_specs_outside_parens_only(tmp_path):
    header = "-- analyses: modulus(table:0=9,1=3),modulus(identity)\n"
    p = _write(tmp_path, "ff2.wt", header + FF2 + "\n")
    reports = verify_file(p, trials=5)
    assert [r.analysis for r in reports] == [
        "modulus(table:0=9,1=3,default=0)",
        "modulus(identity)",
    ]
    assert all(r.passed for r in reports)


def test_verify_file_parse_error_is_one_report(tmp_path):
    p = _write(tmp_path, "broken.wt", "-- analyses: cost\nadd 1 (\n")
    reports = verify_file(p)
    assert len(reports) == 1
    assert reports[0].analysis == "parse"
    assert not reports[0].passed


def test_verify_file_type_error_is_one_report(tmp_path):
    p = _write(tmp_path, "illtyped.wt", "-- analyses: cost,bound\nadd 1 []\n")
    reports = verify_file(p)
    assert len(reports) == 1
    assert reports[0].analysis == "check"
    assert "TypeMismatch" in reports[0].details


def test_verify_file_unknown_analysis_fails_that_analysis(tmp_path):
    p = _write(tmp_path, "odd.wt", "-- analyses: cost,frobnicate\n1\n")
    reports = verify_file(p)
    assert [r.status for r in reports] == ["pass", "fail"]
    assert "unknown analysis" in reports[1].details


def test_verify_file_bad_oracle_spec(tmp_path):
    p = _write(tmp_path, "badoracle.wt", f"-- analyses: modulus(parity)\n{FF2}\n")
    reports = verify_file(p)
    assert len(reports) == 1
    assert not reports[0].passed
    assert "bad oracle" in reports[0].details


def test_run_corpus_orders_by_name_and_survives_bad_files(tmp_path):
    _write(tmp_path, "b_sum.wt", "-- analyses: cost,majorant\nadd 2 3\n")
    _write(tmp_path, "a_broken.wt", "-- analyses: cost\n(((\n")
    _write(tmp_path, "c_mod.wt", f"-- analyses: modulus(identity)\n{FF2}\n")
    _write(tmp_path, "ignored.txt", "not a term")
    reports = run_corpus(tmp_path, trials=5)
    assert [r.term_id for r in reports] == [
        "a_broken.wt", "b_sum.wt", "b_sum.wt", "c_mod.wt",
    ]
    assert [r.passed for r in reports] == [False, True, True, True]


def test_run_corpus_survives_an_unreadable_file(tmp_path):
    (tmp_path / "a_latin1.wt").write_bytes(b"-- analyses: cost\n-- caf\xe9\nadd 1 2\n")
    (tmp_path / "b_dir.wt").mkdir()
    _write(tmp_path, "c_sum.wt", "-- analyses: cost\nadd 2 3\n")
    reports = run_corpus(tmp_path)
    assert [(r.term_id, r.analysis, r.passed) for r in reports] == [
        ("a_latin1.wt", "read", False),
        ("b_dir.wt", "read", False),
        ("c_sum.wt", "cost", True),
    ]
    assert reports[0].details.startswith("UnicodeDecodeError: ")
    assert reports[1].details.startswith("IsADirectoryError: ")


def test_run_corpus_reports_a_negative_oracle_and_runs_the_rest(tmp_path):
    _write(tmp_path, "a_neg.wt", f"-- analyses: modulus(identity),modulus(constant:-2)\n{FF2}\n")
    _write(tmp_path, "b_mod.wt", f"-- analyses: modulus(constant:5)\n{FF2}\n")
    reports = run_corpus(tmp_path, trials=5)
    assert [(r.term_id, r.analysis, r.passed) for r in reports] == [
        ("a_neg.wt", "modulus(identity)", True),
        ("a_neg.wt", "modulus(constant:-2)", False),
        ("b_mod.wt", "modulus(constant:5)", True),
    ]
    assert reports[1].details == "bad oracle: oracle value must be a natural, got -2"


def test_run_corpus_deterministic(tmp_path):
    _write(tmp_path, "m.wt", f"-- analyses: modulus(constant:5)\n{FF2}\n")
    assert run_corpus(tmp_path, trials=20, seed=9) == run_corpus(
        tmp_path, trials=20, seed=9
    )


# ---------------------------------------------------------------- sharing

def _alone(spec, text, term_id, fuel, seed):
    """The report of one spec from its public verifier, on a term parsed
    afresh for it alone."""
    term = parse_term(text)
    checks = {"cost": verify_exact_cost, "bound": verify_bound, "majorant": verify_majorant}
    if spec in checks:
        return checks[spec](term, term_id=term_id, fuel=fuel)
    try:
        g = oracle_from_string(re.fullmatch(r"modulus\((.*)\)", spec).group(1))
    except ValueError as err:
        return VerifyReport(term_id, spec, "fail", f"bad oracle: {err}")
    return verify_modulus(term, g, seed=seed, term_id=term_id, fuel=fuel)


def _assert_shared_as_alone(path):
    text = path.read_text(encoding="utf-8")
    specs = harness._annotations(text)
    for fuel in (Fuel(5), Fuel(50), Fuel()):
        for seed in (0, 7):
            shared = verify_file(path, fuel=fuel, seed=seed)
            assert shared == [_alone(s, text, path.name, fuel, seed) for s in specs]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.wt")), ids=lambda p: p.stem)
def test_sharing_a_preparation_changes_no_report_of_a_corpus_file(path):
    _assert_shared_as_alone(path)


@pytest.mark.parametrize("specs, text, shown", [
    ("majorant", "[1,2]", ["MissingInterpretation: no interpretation for symbol 'nil'"]),
    ("modulus(identity)", "5", ["TypeMismatch: "]),
    ("modulus()", FF2, ["bad oracle: "]),
    ("modulus(identity), cost",
     "fn f:Nat->Nat => rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) (f 3)", ["", ""]),
    ("bound", REC3, ["UnsupportedSymbol: "]),
])
def test_sharing_a_preparation_changes_no_failure_report(tmp_path, specs, text, shown):
    path = _write(tmp_path, "scratch.wt", f"-- analyses: {specs}\n{text}\n")
    reports = verify_file(path)
    assert [r.details[:len(want)] for r, want in zip(reports, shown)] == shown
    assert len(reports) == len(shown)
    _assert_shared_as_alone(path)
