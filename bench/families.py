"""Inputs for the benchmark's workloads, and the answers they must give.

Every expected answer is stated here as a formula of the family's size;
nothing is taken from writ's own output. A workload is a list of
(command, family, smallest size, largest size, points) cells. Every round
takes the same sizes from each cell's range, spaced evenly in log size from
the smallest to the largest, so every round costs the same and rounds can be
compared. The seed picks the fold items, the order of the ops and the names
of the bound variables, which change from round to round so that no two
rounds send writ the same text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# the canonical search of the bar signature; w is a constant control
# functional, so the search settles once the list outgrows the constant
SEARCH = (
    "(fn w{s}:(Nat->Nat)->Nat => fn y{s}:Nat->Nat => fn z{s}:List => bar w{s} "
    "(fn u{s}:List => 0) (fn v{s}:List => fn p{s}:Nat->Nat => succ (p{s} (y{s} (len v{s})))) "
    "z{s})"
)

TRIALS = 100  # the CLI's default perturbation trials per modulus check


@dataclass
class Op:
    """One CLI command on one input, with the answer it must print."""

    command: str
    family: str
    size: int
    text: str
    steps: int  # steps the term takes (corpus: filled in from the reports)
    expect: dict = field(default_factory=dict)  # exact JSON the CLI must print
    specs: tuple[str, ...] = ()  # corpus: the analyses named in the header
    path: Optional[Path] = None
    bin: int = 0  # the op's stratum (corpus: its file), for fitting growth

    def argv(self, seed: int) -> list[str]:
        args = [self.command, str(self.path)]
        if self.command == "verify":
            args += ["--seed", str(seed)]
        if self.command == "modulus":
            args += ["--oracle", "identity"]
        return args


# ---------------------------------------------------------------- families
# each returns (term text, value, steps to evaluate it); s is a suffix for
# the bound variables' names

def succ_rec(n: int, s: str = "") -> tuple[str, int, int]:
    return f"rec[Nat] 0 (fn n{s}:Nat => fn p{s}:Nat => succ p{s}) {n}", n, 3 * n + 1


def add_rec(n: int, s: str = "") -> tuple[str, int, int]:
    # the accumulator is a unary numeral of n(n-1)/2, so host work per step grows
    return (f"rec[Nat] 0 (fn n{s}:Nat => fn p{s}:Nat => add n{s} p{s}) {n}",
            n * (n - 1) // 2, 4 * n + 1)


def fold_sum(items: list[int], s: str = "") -> tuple[str, int, int]:
    body = ",".join(str(x) for x in items)
    return (f"fold[Nat] 0 (fn n{s}:Nat => fn p{s}:Nat => add n{s} p{s}) [{body}]",
            sum(items), 4 * len(items) + 1)


def search(k: int, s: str = "") -> tuple[str, int, int]:
    return (f"{SEARCH.format(s=s)} (fn f{s}:Nat->Nat => {k}) (fn x{s}:Nat => 0) []",
            k + 1, 10 * k + 19)


def oracle_rec(n: int, s: str = "") -> tuple[str, int, int]:
    """The succ family with the oracle in its step: under the identity it
    queries 0..n-1 and returns n; applied to the oracle it takes 4n+2 steps."""
    return (f"fn f{s}:Nat->Nat => rec[Nat] 0 (fn n{s}:Nat => fn p{s}:Nat => succ (f{s} p{s})) "
            f"{n}", n, 4 * n + 2)


def spector_total(k: int) -> int:
    """Closed-form search cost for the constant-k functional and the zero
    stream: ten steps a round over k+1 rounds, five to finish, one step of
    the functional on each of k+2 prefixes and of the stream on k+1 reads."""
    return 10 * (k + 1) + 5 + (k + 2) + (k + 1)


def make_op(command: str, family: str, n: int, rng: random.Random, s: str = "") -> Op:
    if family == "succ":
        text, value, steps = succ_rec(n, s)
    elif family == "add":
        text, value, steps = add_rec(n, s)
    elif family == "fold":
        text, value, steps = fold_sum([rng.randrange(10) for _ in range(n)], s)
    elif family == "search":
        text, value, steps = search(n, s)
    elif family == "oracle":
        text, value, steps = oracle_rec(n, s)
    else:
        raise ValueError(f"unknown family {family!r}")
    if command == "eval":
        expect: dict = {"value": str(value), "steps": steps}
    elif command == "cost":
        expect = {"predicted": steps, "semantic": value, "mode": "exact"}
    elif command == "bound":
        # sizes forget numerals, so every numeral, and the sum, has size one
        expect = {"predicted": steps, "semantic": 1, "mode": "bound"}
    elif command == "majorize":
        expect = {"majorant": value}
    elif command == "modulus":
        expect = {"phi": n, "support": list(range(n)), "value": value}
    else:
        raise ValueError(f"unknown command {command!r}")
    return Op(command, f"{command}:{family}", n, text, steps, expect)


# ---------------------------------------------------------------- corpus

_HEADER = re.compile(r"^\s*--\s*analyses:\s*(.+?)\s*$")


def header_specs(text: str) -> tuple[str, ...]:
    """The analyses a corpus file asks for, split at top-level commas."""
    first = text.splitlines()[0] if text else ""
    m = _HEADER.match(first)
    if not m:
        return ()
    specs, depth, cur = [], 0, ""
    for ch in m.group(1):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            specs.append(cur.strip())
            cur = ""
        else:
            cur += ch
    specs.append(cur.strip())
    return tuple(s for s in specs if s)


def corpus_ops(corpus: Path) -> list[Op]:
    ops = []
    for file in sorted(corpus.glob("*.wt")):
        text = file.read_text(encoding="utf-8")
        ops.append(Op("verify", "corpus", 0, text, 0, specs=header_specs(text), path=file,
                      bin=len(ops)))
    return ops


# ---------------------------------------------------------------- workloads

# (command, family, smallest size, largest size, points), at most 16 cells
# to a workload: each round takes
# the same points, enough for a slope and few enough that a run holds many
# rounds; on deep_static the search, the steepest cell, gets six
DEEP_EVAL = [
    ("eval", "succ", 100, 300, 6),
    ("eval", "add", 20, 50, 6),
    ("eval", "fold", 40, 120, 6),
    ("eval", "search", 20, 60, 6),
]
# the largest sizes nest deeper than the host's default recursion limit
DEEP_STATIC = [
    ("cost", "succ", 150, 1100, 3),
    ("cost", "add", 150, 1100, 3),
    ("cost", "fold", 60, 400, 3),
    ("cost", "search", 12, 48, 6),
    ("bound", "fold", 60, 400, 3),
    ("majorize", "succ", 150, 1100, 3),
    ("majorize", "add", 150, 1100, 3),
    ("modulus", "oracle", 150, 1100, 3),
]

# tiny inputs that reach every layer; the smoke workload, and a companion of
# every traced round so that layers a workload leaves idle still get a number
SMOKE_FILES = ("nat_rec_count.wt", "list_fold_sum.wt", "mod_double.wt")
SMOKE = [
    ("eval", "succ", 3, 9, 1), ("eval", "add", 3, 9, 1), ("eval", "fold", 3, 9, 1),
    ("eval", "search", 2, 6, 1), ("cost", "succ", 3, 9, 1), ("cost", "add", 3, 9, 1),
    ("cost", "fold", 3, 9, 1), ("cost", "search", 2, 6, 1), ("bound", "fold", 3, 9, 1),
    ("majorize", "succ", 3, 9, 1), ("majorize", "add", 3, 9, 1),
    ("modulus", "oracle", 3, 9, 1),
]
WORKLOADS = ("corpus", "deep_eval", "deep_static", "smoke")


def _cells(cells, rng: random.Random, name: str, seed: int, key: int) -> list[Op]:
    """Every cell's points, spaced evenly in log size from its smallest size
    to its largest (one point: their geometric middle). The bound variables
    get a suffix from a seeded start, one step per key and cell, so that no
    two cells of one key, and no two keys of a run, give writ the same text;
    it has four digits for every seed, so it costs the same."""
    start = random.Random(f"{name}:{seed}").randrange(10_000)
    ops = []
    for c, (command, family, lo, hi, points) in enumerate(cells):
        s = f"{(start + key * 16 + c) % 10_000:04d}"
        for i in range(points):
            n = round(lo * (hi / lo) ** (i / (points - 1) if points > 1 else 0.5))
            ops.append(make_op(command, family, n, rng, s))
            ops[-1].bin = i
    return ops


def smoke_ops(root: Path, seed: int, rnd: int) -> list[Op]:
    rng = random.Random(f"smoke:{seed}:{rnd}")
    files = [o for o in corpus_ops(root / "corpus") if o.path.name in SMOKE_FILES]
    return files + _cells(SMOKE, rng, "smoke", seed, rnd)


def round_ops(workload: str, root: Path, seed: int, rnd: int,
              setup: bool = False) -> list[Op]:
    """The ops of round rnd, or of the set-up before it, in a seeded order.

    The same seed gives the same ops.
    """
    rng = random.Random(f"{workload}:{seed}:{rnd}:{setup}")
    if workload == "corpus":
        ops = corpus_ops(root / "corpus")
    elif workload in ("deep_eval", "deep_static"):
        cells = DEEP_EVAL if workload == "deep_eval" else DEEP_STATIC
        if setup:
            # set-up checks one input per cell, at the middle of its range
            cells = [(*cell[:4], 1) for cell in cells]
        ops = _cells(cells, rng, workload, seed, 2 * rnd + setup)
    elif workload == "smoke":
        return smoke_ops(root, seed, rnd)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def write_inputs(ops: list[Op], work: Path, tag: str) -> None:
    """Give every generated op a file; corpus ops keep their shipped file."""
    work.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        if op.command != "verify":
            op.path = work / f"{tag}_{i}.wt"
            op.path.write_text(op.text + "\n", encoding="utf-8")
