"""The CLI's byte contract on the shipped corpus.

tests/golden_cli.json holds one sha256 per (corpus file, command) pair,
over the command's stdout, stderr and exit code. Each command is pinned in
its default JSON form and in its `--text` form. Replaying the commands
in-process must reproduce every hash, so any change to what the CLI prints
for a corpus file shows up here. To rebuild the file after an intended
change, run from the root of the checkout:

    PYTHONPATH=src python tests/test_golden_cli.py

`writ translate` prints each shared subterm of a translation in full, so
on some files it prints 1 to 150 MB and takes seconds; a replay of all of
them would take minutes. A translation longer than LARGE characters is not
pinned: the file holds no `translate` or `translate --text` hash for it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from writ.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
COMMANDS = {
    "check": ("check",),
    "eval": ("eval",),
    "translate": ("translate",),
    "cost": ("cost",),
    "bound": ("bound",),
    "majorize": ("majorize",),
    "modulus": ("modulus", "--oracle", "identity"),
    "verify": ("verify",),
}
COMMANDS |= {f"{key} --text": (*argv, "--text") for key, argv in COMMANDS.items()}
TRANSLATE = {"translate", "translate --text"}
LARGE = 1 << 20
FILES = sorted(CORPUS.glob("*.wt"))


def run(key: str, path: Path) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one in-process command."""
    command, *flags = COMMANDS[key]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *flags])
    return out.getvalue(), err.getvalue(), code


def digest(result: tuple[str, str, int]) -> str:
    blob = json.dumps(list(result))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compute() -> dict[str, dict[str, str]]:
    golden = {}
    for path in FILES:
        golden[path.name] = {}
        for key in COMMANDS:
            result = run(key, path)
            if key not in TRANSLATE or len(result[0]) <= LARGE:
                golden[path.name][key] = digest(result)
    return golden


def test_golden_covers_the_corpus():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == [p.name for p in FILES]
    assert all(set(COMMANDS) - TRANSLATE <= set(cmds) <= set(COMMANDS)
               and ("translate" in cmds) == ("translate --text" in cmds)
               for cmds in golden.values())


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_cli_bytes_match_golden(path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[path.name]
    assert {c: digest(run(c, path)) for c in golden} == golden


# the sha256 of stdout of `verify --corpus corpus`, at the default seed in
# JSON and at seed 7 in text: all 59 files in one process, so that nothing
# one file leaves behind (a cached scope, say) can change another's reports
WHOLE_CORPUS = {
    (): "d829681eb8065ca448e411f679eb0d6d2c313cb92727e4db0c1109e1fd6a776b",
    ("--seed", "7", "--text"): "46bebbe715106c6590faf1ebad5c537a0b5f1df2dcaf810661e7e6bd49984cb3",
}


@pytest.mark.parametrize("flags", WHOLE_CORPUS, ids=lambda flags: " ".join(flags) or "default")
def test_verify_of_the_whole_corpus_matches_its_hash(flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--corpus", str(CORPUS), *flags]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == WHOLE_CORPUS[flags]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.exit(0)
