"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workloads corpus deep_eval deep_static \\
        --seeds 10 --out bench/results/BENCH_new.json

For every workload it runs bench/run.py once per seed (N seeds from --first-seed), one run
at a time, then reports each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median). Spreads are
compared with the bounds in BENCHMARK.json, whose run_seconds is the
default run length.
With --trace it also makes one traced run per workload, on the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        sys.exit(f"spread: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "runs": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.seconds = args.seconds or spec["run_seconds"]
    summary: dict = {"seeds": args.seeds, "first_seed": args.first_seed, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results = [run(workload, s, args.seconds, 0) for s in range(args.first_seed, args.first_seed + args.seeds)]
        entry: dict = {"all_correct": all(r["correct"] for r in results),
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results),
                       "end_to_end": {}}
        for name, first in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = first["unit"]
            entry["end_to_end"][name] = stats
            bound = bounds.get(name)
            mark = "" if bound is None else (
                "ok" if stats["spread"] < bound / 3 else f"OVER bound/3 = {bound / 3:.3f}")
            print(f"{workload:12s} {name:14s} median {stats['median']:12.5g} {first['unit']:6s}"
                  f" spread {stats['spread']:.4f} {mark}", flush=True)
        if args.trace:
            traced = run(workload, args.first_seed, args.seconds, 1)
            entry["per_layer_first_seed"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["all_correct"] = entry["all_correct"] and traced["correct"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
