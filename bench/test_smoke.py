"""Smoke test for the benchmark, on its tiny workload. Run from the repo root:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from families import round_ops

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_and_passes(trace, group):
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[group]
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_inputs_follow_the_seed():
    def texts(seed: int, rnd: int = 1) -> list[str]:
        return [op.text for op in round_ops("deep_static", ROOT, seed, rnd)]

    def sizes(rnd: int) -> list[tuple[str, int]]:
        return sorted((op.family, op.size) for op in round_ops("deep_static", ROOT, 5, rnd))

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)
    # every round runs the same sizes, under new variable names
    assert sizes(1) == sizes(2)
    assert not set(texts(5, 1)) & set(texts(5, 2))


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
