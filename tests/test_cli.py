"""The writ command line: output bytes, exit codes, flag handling."""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from writ.cli import main

REC3 = "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3"
FF2 = "fn f:Nat->Nat => f (f 2)"
FOLD2 = "fold[Nat] 0 (fn n:Nat => fn p:Nat => succ p) [7,7]"
ALPHA_F2 = "fn f:Nat->Nat => alpha (f 2)"


@pytest.fixture
def wt(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text + "\n", encoding="utf-8")
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_output_bytes(wt, capsys):
    code, out, _ = run(capsys, "eval", wt("rec3.wt", REC3))
    assert code == 0
    assert out == '{"value":"3","steps":10}\n'


@pytest.mark.parametrize("argv, source, want", [
    # constructor spines in a lambda body and in a value read back
    (("eval",), "fn x:Nat => succ (succ zero)", (0, '{"value":"fn x:Nat => 2","steps":0}\n', "")),
    (("eval",), "(fn x:Nat => fn y:Nat => succ x) 3",
     (0, '{"value":"fn y:Nat => 4","steps":1}\n', "")),
    (("eval",), "cons (cons [] 1) 2", (0, '{"value":"[1,2]","steps":0}\n', "")),
    # an over-applied constructor prints as written
    (("check",), "succ 0 0",
     (2, "", "writ: expected a function type, got Nat in 'succ 0 0'\n")),
    # a literal under a signature without its constructors
    (("check", "--sig", "t"), "[1,2]", (2, "", "writ: undeclared symbol 'cons'\n")),
])
def test_literal_output_bytes(wt, capsys, argv, source, want):
    assert run(capsys, *argv, wt("t.wt", source)) == want


def test_modulus_output_bytes(wt, capsys):
    code, out, _ = run(capsys, "modulus", wt("ff2.wt", FF2), "--oracle", "identity")
    assert code == 0
    assert out == '{"phi":3,"support":[2,2],"value":2}\n'


def test_check(wt, capsys):
    code, out, _ = run(capsys, "check", wt("ff2.wt", FF2))
    assert code == 0
    assert out == '{"type":"(Nat->Nat)->Nat"}\n'


def test_check_text_mode(wt, capsys):
    code, out, _ = run(capsys, "check", wt("ff2.wt", FF2), "--text")
    assert code == 0
    assert out == "(Nat->Nat)->Nat\n"


def test_eval_with_oracle_logs_queries(wt, capsys):
    path = wt("applied.wt", f"({FF2}) alpha")
    code, out, _ = run(capsys, "eval", path, "--oracle", "identity")
    assert code == 0
    assert out == '{"value":"2","steps":3,"queries":[2,2]}\n'


def test_eval_text_mode(wt, capsys):
    code, out, _ = run(capsys, "eval", wt("rec3.wt", REC3), "--text")
    assert code == 0
    assert out == "value = 3\nsteps = 10\n"


def test_cost(wt, capsys):
    code, out, _ = run(capsys, "cost", wt("rec3.wt", REC3))
    assert code == 0
    assert out == '{"predicted":10,"semantic":3,"mode":"exact"}\n'


def test_bound(wt, capsys):
    code, out, _ = run(capsys, "bound", wt("fold2.wt", FOLD2))
    assert code == 0
    assert out == '{"predicted":7,"semantic":1,"mode":"bound"}\n'


def test_bound_rejects_numeral_recursion(wt, capsys):
    code, out, err = run(capsys, "bound", wt("rec3.wt", REC3))
    assert code == 2
    assert out == ""
    assert "rec[Nat]" in err


def test_majorize(wt, capsys):
    path = wt("grow.wt", "rec[Nat] 1 (fn n:Nat => fn p:Nat => add p p) 3")
    code, out, _ = run(capsys, "majorize", path)
    assert code == 0
    assert out == '{"majorant":8}\n'


def test_translate(wt, capsys):
    code, out, _ = run(capsys, "translate", wt("zero.wt", "0"))
    assert code == 0
    assert json.loads(out) == {"meta_term": "(iota, zero')", "meta_type": "(Eff * Nat)"}


@pytest.mark.parametrize("oracle", [(), ("--oracle", "constant:3")], ids=["none", "constant"])
def test_alpha_types_and_translates_with_or_without_an_oracle(wt, capsys, oracle):
    path = wt("alpha.wt", ALPHA_F2)
    assert run(capsys, "check", path, *oracle) == (0, '{"type":"(Nat->Nat)->Nat"}\n', "")
    assert run(capsys, "check", path, *oracle, "--text") == (0, "(Nat->Nat)->Nat\n", "")
    # the translations run to 13 kB; their sha256 pins them
    for flags, digest in [
        ((), "f107780d92ece401d2ff11bc3175067a17a770fa940a51263f252ef9902dd3aa"),
        (("--text",), "1eeac01f70aa36f5f1bd1219228688186d64889a7e7524496fb0b09ec589ec14"),
    ]:
        code, out, err = run(capsys, "translate", path, *oracle, *flags)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (0, digest, "")


def test_modulus_requires_oracle_flag(wt, capsys):
    code, _, err = run(capsys, "modulus", wt("ff2.wt", FF2))
    assert code == 2
    assert "--oracle" in err


def test_oracle_json_file(wt, capsys, tmp_path):
    oracle = tmp_path / "oracle.json"
    oracle.write_text('{"kind":"table","pairs":[[0,9],[1,3]]}', encoding="utf-8")
    code, out, _ = run(capsys, "modulus", wt("ff2.wt", FF2), "--oracle", str(oracle))
    assert code == 0
    assert out == '{"phi":3,"support":[2,0],"value":9}\n'


def test_oracle_inline_constant(wt, capsys):
    code, out, _ = run(capsys, "modulus", wt("ff2.wt", FF2), "--oracle", "constant:5")
    assert code == 0
    assert out == '{"phi":6,"support":[2,5],"value":5}\n'


def test_verify_single_file(wt, capsys):
    path = wt("rec3.wt", f"-- analyses: cost,majorant\n{REC3}")
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == 0
    assert [r["analysis"] for r in obj["reports"]] == ["cost", "majorant"]
    assert all(r["status"] == "pass" for r in obj["reports"])


def test_verify_failing_file_exits_one(wt, capsys):
    path = wt("bad.wt", f"-- analyses: bound\n{REC3}")
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    obj = json.loads(out)
    assert obj["failures"] == 1


def test_verify_corpus_directory(wt, capsys, tmp_path):
    wt("a.wt", f"-- analyses: cost\n{REC3}")
    wt("b.wt", f"-- analyses: modulus(identity)\n{FF2}")
    code, out, _ = run(
        capsys, "verify", "--corpus", str(tmp_path), "--trials", "10", "--seed", "4"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == 0
    assert len(obj["reports"]) == 2
    assert obj["reports"][1]["trials"] == 10
    assert obj["reports"][1]["seed"] == 4


@pytest.mark.parametrize("command, source", [
    ("eval", "succ (alpha 2)"),
    ("modulus", FF2),
])
def test_negative_oracle_is_a_usage_error(wt, capsys, command, source):
    assert run(capsys, command, wt("t.wt", source), "--oracle", "constant:-1") == (
        2, "", "writ: oracle value must be a natural, got -1\n")


@pytest.mark.parametrize("source", [
    '{"kind":"constant"}',
    '{"kind":"constant","value":null}',
    '{"kind":"constant","value":true}',
    '{"kind":"constant","value":2.5}',
    '{"kind":"table","pairs":5}',
    '{"kind":"table","pairs":[[0,-9]]}',
    '{"kind":"table","pairs":[[2,5],[2,7]]}',
    '{"kind":"table","pairs":[[2,5]],"default":1,"default":4}',
    '{"kind":"table","kind":"constant","value":3}',
])
def test_malformed_oracle_file_is_a_usage_error(wt, capsys, tmp_path, source):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(source, encoding="utf-8")
    code, out, err = run(capsys, "modulus", wt("ff2.wt", FF2), "--oracle", str(oracle))
    assert (code, out) == (2, "")
    assert err.startswith("writ: ")


@pytest.mark.parametrize("spec, message", [
    ("table:2=5,2=7", "oracle table repeats key 2"),
    ("table:default=1,default=4", "oracle table repeats default"),
])
def test_repeated_oracle_entry_is_a_usage_error(wt, capsys, spec, message):
    path = wt("ff2.wt", FF2)
    assert run(capsys, "modulus", path, "--oracle", spec) == (2, "", f"writ: {message}\n")
    path = wt("a.wt", f"-- analyses: modulus({spec})\n{FF2}")
    assert run(capsys, "verify", path, "--text") == (
        1, f"a.wt: modulus({spec}): fail (bad oracle: {message})\nfailures = 1\n", "")


def test_verify_corpus_reports_a_negative_oracle(wt, capsys, tmp_path):
    wt("a.wt", f"-- analyses: modulus(constant:-2)\n{FF2}")
    wt("b.wt", f"-- analyses: cost\n{REC3}")
    code, out, err = run(capsys, "verify", "--corpus", str(tmp_path), "--text")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "a.wt: modulus(constant:-2): fail (bad oracle: oracle value must be a natural, got -2)",
        "b.wt: cost: pass",
        "failures = 1",
    ]


def test_verify_text_mode(wt, capsys):
    path = wt("rec3.wt", f"-- analyses: cost\n{REC3}")
    code, out, _ = run(capsys, "verify", path, "--text")
    assert code == 0
    assert out == "rec3.wt: cost: pass\nfailures = 0\n"


def test_verify_needs_a_target(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "file or --corpus" in err


def test_verify_takes_a_file_or_a_corpus_not_both(wt, capsys, tmp_path):
    path = wt("rec3.wt", f"-- analyses: cost\n{REC3}")
    assert run(capsys, "verify", path, "--corpus", str(tmp_path)) == (
        2, "", "writ: verify takes a file or --corpus, not both\n")


@pytest.mark.parametrize("path, shown", [
    ("/nonexistent/term.wt", "/nonexistent/term.wt"),
    ("", "''"),
])
def test_missing_file(capsys, path, shown):
    assert run(capsys, "eval", path) == (2, "", f"writ: no such file: {shown}\n")
    # verify tells an empty path from no path at all
    assert run(capsys, "verify", path) == (2, "", f"writ: no such file: {shown}\n")


def test_verify_corpus_must_be_a_directory(wt, capsys, tmp_path):
    path = wt("rec3.wt", f"-- analyses: cost\n{REC3}")
    for bad, shown in (("/nonexistent", "/nonexistent"), (path, path), ("", "''")):
        assert run(capsys, "verify", "--corpus", bad) == (
            2, "", f"writ: no such directory: {shown}\n")
    # an empty corpus path is still a corpus path
    assert run(capsys, "verify", path, "--corpus", "") == (
        2, "", "writ: verify takes a file or --corpus, not both\n")
    # an existing directory with no .wt file is an empty corpus
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(capsys, "verify", "--corpus", str(empty)) == (
        0, '{"reports":[],"failures":0}\n', "")


def test_fuel_exhaustion_exit_code(wt, capsys):
    code, _, err = run(capsys, "eval", wt("rec3.wt", REC3), "--fuel", "2")
    assert code == 3
    assert "fuel" in err.lower() or "step" in err.lower()


def test_fuel_must_be_positive(wt, capsys):
    code, _, err = run(capsys, "eval", wt("rec3.wt", REC3), "--fuel", "0")
    assert code == 2


def test_trials_must_not_be_negative(wt, capsys):
    path = wt("ff2.wt", f"-- analyses: modulus(identity)\n{FF2}")
    assert run(capsys, "verify", path, "--trials", "-3") == (
        2, "", "writ: trials must not be negative\n")
    code, out, _ = run(capsys, "verify", path, "--trials", "0")
    assert code == 0
    assert json.loads(out)["reports"][0]["evidence"]["perturbations_run"] == 0


def test_verify_corpus_reports_an_unreadable_file(wt, capsys, tmp_path):
    (tmp_path / "a_bad.wt").write_bytes(b"\xff\xfe")
    wt("b.wt", f"-- analyses: cost\n{REC3}")
    code, out, _ = run(capsys, "verify", "--corpus", str(tmp_path), "--text")
    assert code == 1
    assert out.splitlines()[1:] == ["b.wt: cost: pass", "failures = 1"]
    assert out.startswith("a_bad.wt: read: fail (UnicodeDecodeError: ")


def test_sig_override(wt, capsys):
    # rec3 types fine under the larger signature
    code, out, _ = run(capsys, "check", wt("rec3.wt", REC3), "--sig", "list")
    assert code == 0
    assert out == '{"type":"Nat"}\n'
    # but list arithmetic does not fit the smallest one
    code, _, err = run(capsys, "check", wt("sum.wt", "add 1 2"), "--sig", "t")
    assert code == 2
    # cost reads the term under its own signature, but the override must admit it
    assert run(capsys, "cost", wt("fold2.wt", FOLD2), "--sig", "t") == (
        2, "", "writ: undeclared symbol 'fold[Nat]'\n")


@pytest.mark.parametrize("command, option, value", [
    *((command, "--sig", "t") for command in ("modulus", "bound", "majorize", "verify")),
    *((command, "--oracle", "identity") for command in ("cost", "majorize", "verify")),
    # refused before the oracle is read, so a missing file is not opened
    ("bound", "--oracle", "missing.json"),
])
def test_options_a_command_never_reads_are_refused(wt, capsys, command, option, value):
    assert run(capsys, command, wt("ff2.wt", FF2), option, value) == (
        2, "", f"writ: {option} does not apply to {command}\n")


def test_parse_error_exit_code(wt, capsys):
    code, _, err = run(capsys, "eval", wt("broken.wt", "add 1 ("))
    assert code == 2


def test_type_error_exit_code(wt, capsys):
    code, _, err = run(capsys, "eval", wt("illtyped.wt", "add 1 []"))
    assert code == 2


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate", "x.wt")[0] == 2


COMMAND_HELP = {
    "check": "typecheck a term and print its type",
    "eval": "evaluate a term, printing value and exact step count",
    "translate": "print the effect-instrumented form and its type",
    "modulus": "continuity modulus of a (Nat->Nat)->Nat term (needs --oracle)",
    "cost": "predicted exact step count",
    "bound": "step and size bounds over the list fragment",
    "majorize": "a numeral dominating the term's value",
    "verify": "replay the annotated analyses of a file (or --corpus dir)",
}


@pytest.mark.parametrize("command", COMMAND_HELP)
def test_help_exits_zero(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: writ {command} ")


def test_top_level_help_names_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help to the terminal width
    code, out, _ = run(capsys, "--help")
    assert code == 0
    words = " ".join(out.split())
    assert "{" + ",".join(COMMAND_HELP) + "}" in words
    for command, text in COMMAND_HELP.items():
        assert f" {command} {text} " in words + " "


def test_main_entry_raises_system_exit(wt, capsys):
    from writ.cli import main_entry

    import sys

    old = sys.argv
    sys.argv = ["writ", "eval", wt("rec3.wt", REC3)]
    try:
        with pytest.raises(SystemExit) as exc:
            main_entry()
        assert exc.value.code == 0
    finally:
        sys.argv = old
    capsys.readouterr()


def test_python_dash_m_runs_the_command_line():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for module in ("writ", "writ.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "check", str(root / "corpus" / "nat_rec_count.wt")],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, '{"type":"Nat"}\n', ""), module


def test_eval_handles_results_deeper_than_the_recursion_limit(wt, capsys):
    code, out, _ = run(capsys, "eval", wt("big.wt", "mul 499 499"))
    assert code == 0
    assert out == '{"value":"249001","steps":1}\n'


def test_pathological_nesting_fails_cleanly(wt, capsys):
    k = 50_000
    nest = "fn x:Nat => " + "succ (" * k + "x" + ")" * k
    code, _, err = run(capsys, "check", wt("deep.wt", nest))
    assert code == 2
    assert "deeply nested" in err


def test_a_deep_numeral_checks_without_recursion(wt, capsys):
    assert run(capsys, "check", wt("deep.wt", "succ 50000")) == (0, '{"type":"Nat"}\n', "")


def test_fuel_bounds_the_analyses_recursors(wt, capsys):
    path = wt("deep.wt", "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3000")
    code, out, err = run(capsys, "majorize", path, "--fuel", "100")
    assert (code, out) == (3, "")
    assert "fuel exhausted" in err


@pytest.fixture
def threads(monkeypatch):
    """Names of the threads the CLI starts."""
    import threading

    started = []
    real = threading.Thread

    class Counting(real):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    return started


@contextlib.contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_commands_that_fit_run_on_the_calling_thread(wt, capsys, threads):
    rec3 = wt("rec3.wt", REC3)
    ann = wt("ann.wt", f"-- analyses: cost,majorant\n{REC3}")
    with recursion_limit(12_345):
        assert run(capsys, "eval", rec3) == (0, '{"value":"3","steps":10}\n', "")
        codes = [run(capsys, command, rec3)[0] for command in ("check", "translate")]
        codes.append(run(capsys, "check", wt("ff2.wt", FF2))[0])
        codes.append(run(capsys, "verify", ann)[0])
        assert sys.getrecursionlimit() == 12_345
    assert codes == [0] * 4
    assert threads == []


def test_unfolding_analyses_run_on_the_calling_thread(wt, capsys, threads):
    rec3 = wt("rec3.wt", REC3)
    oracle3 = wt("oracle3.wt", f"fn f:Nat->Nat => {REC3.replace('succ p', 'succ (f p)')}")
    with recursion_limit(12_345):
        codes = [run(capsys, command, rec3)[0] for command in ("cost", "majorize")]
        codes.append(run(capsys, "bound", wt("fold2.wt", FOLD2))[0])
        codes.append(run(capsys, "modulus", oracle3, "--oracle", "identity")[0])
        assert sys.getrecursionlimit() == 12_345
    assert codes == [0] * 4
    assert threads == []


def test_a_long_recursion_runs_on_the_calling_thread(wt, capsys, threads):
    term = "rec[Nat] 0 (fn n:Nat => fn p:Nat => succ p) 3000"
    deep = wt("deep.wt", term)
    with recursion_limit(12_345):
        assert run(capsys, "eval", deep) == (0, '{"value":"3000","steps":9001}\n', "")
        assert run(capsys, "check", deep) == (0, '{"type":"Nat"}\n', "")
        assert run(capsys, "cost", deep) == (
            0, '{"predicted":9001,"semantic":3000,"mode":"exact"}\n', "")
        code, out, err = run(capsys, "verify", wt("ann.wt", f"-- analyses: cost\n{term}"))
        assert sys.getrecursionlimit() == 12_345
    assert (code, err) == (0, "")
    assert json.loads(out)["reports"][0]["evidence"] == {"predicted": 9001, "observed": 9001}
    assert threads == []


def test_a_caller_past_the_default_limit_runs_in_place(wt, capsys, threads):
    path = wt("rec3.wt", REC3)

    def nest(k):
        return nest(k - 1) if k else run(capsys, "eval", path)

    assert nest(1100) == (0, '{"value":"3","steps":10}\n', "")
    assert threads == []


def test_a_deep_non_literal_nest_exits_two(wt, capsys):
    k = 2_000
    path = wt("deep.wt", "fn x:Nat => " + "succ (" * k + "x" + ")" * k)
    with recursion_limit(1000):  # CPython's default
        code, out, err = run(capsys, "check", path)
    assert (code, out) == (2, "")
    assert "deeply nested" in err


def test_verify_corpus_reports_a_deep_file_as_one_failure(wt, capsys, tmp_path):
    shipped = Path(__file__).resolve().parent.parent / "corpus" / "nat_rec_count.wt"
    wt(shipped.name, shipped.read_text(encoding="utf-8").rstrip("\n"))
    k = 1_000
    wt("nest.wt", "-- analyses: cost\nfn x:Nat => " + "succ (" * k + "x" + ")" * k)
    with recursion_limit(1000):  # CPython's default
        code, out, _ = run(capsys, "verify", "--corpus", str(tmp_path))
    assert code == 1
    reports = json.loads(out)["reports"]
    deep = [r for r in reports if r["term_id"] == "nest.wt"]
    assert [(r["status"], r["details"]) for r in deep] == [("fail", "term too deeply nested")]
    shipped_reports = [r for r in reports if r["term_id"] == shipped.name]
    assert [r["analysis"] for r in shipped_reports] == ["cost", "majorant"]
    assert all(r["status"] == "pass" for r in shipped_reports)
