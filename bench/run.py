"""Layered benchmark for writ.

Run from the root of a writ checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Each op is one in-process call to writ.cli.main with its output captured,
one op at a time from one process (a closed loop with one client). The
inputs come from --seed; every output is checked against an answer the
benchmark states itself. With --trace 0 the last line of output is the
end-to-end metrics; with --trace 1 it is the per-layer metrics of a separate
traced pass. End-to-end times are in reference seconds (see
bench/reference.py). See bench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from families import WORKLOADS, Op, round_ops, smoke_ops, write_inputs
from layers import Layers, NullTracer, Tracer, counting, run_roomy
from reference import Clock

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
CLI_PROBES = 10  # `writ check` calls per traced round, for the CLI's own cost


def load_writ():
    """Import writ from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "writ" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        sys.exit("bench: run this from the root of a writ checkout "
                 "(src/writ and corpus/ not found)")
    sys.path.insert(0, str(src))
    import writ
    import writ.cli
    if not Path(writ.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: imported writ from {writ.__file__}, not from {src}")
    return writ


def call(writ, argv: list[str]) -> tuple[int | None, str]:
    """One CLI command in-process; an escaped exception reads as no exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = writ.cli.main(argv)
    except Exception:
        traceback.print_exc()
        return None, ""
    return rc, out.getvalue()


def check(op: Op, rc: int | None, out: str) -> int | None:
    """Steps behind a correct output, or None when the output is wrong."""
    if rc != 0:
        return None
    try:
        got = json.loads(out)
        if op.command != "verify":
            return op.steps if got == op.expect else None
        reports = got["reports"]
        if got["failures"] != 0 or len(reports) != len(op.specs):
            return None
        if any(r["status"] != "pass" for r in reports):
            return None
        return sum(r["evidence"]["observed"] for r in reports
                   if r["analysis"] in ("cost", "bound"))
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


# ---------------------------------------------------------------- set-up

def front_end(writ, op: Op) -> bool:
    """Run one set-up input through the front end: `writ check`, then
    translation and its typecheck. True when every type is the expected one."""
    rc, out = call(writ, ["check", str(op.path)])
    want = "(Nat->Nat)->Nat" if op.command == "modulus" else "Nat"
    try:
        ok = rc == 0 and (op.command == "verify" or json.loads(out) == {"type": want})
    except ValueError:
        ok = False
    try:
        term = writ.parse_term(op.path.read_text(encoding="utf-8"))
        sig = writ.signature_for(term)
        mty = writ.meta_typecheck(sig, {}, writ.translate(sig, {}, term))
        return ok and writ.render_meta_type(mty).startswith("(Eff * ")
    except Exception:
        traceback.print_exc()
        return False


def set_up(writ, clock: Clock, workload: str, seed: int, rnd: int) -> tuple[list, bool]:
    """One set-up: generate and write the set-up inputs, then time the front
    end on each, on a thread as roomy as the CLI's worker. File writes are
    not timed. Returns a lap per input."""
    def once() -> tuple[list, bool]:
        ops = round_ops(workload, ROOT, seed, rnd, setup=True)
        write_inputs(ops, WORK, workload)
        laps, ok = [], True
        for op in ops:
            good, lap = clock.time(lambda: front_end(writ, op))
            laps.append(lap)
            ok = ok and good
        return laps, ok

    return run_roomy(once)


# ---------------------------------------------------------------- end to end

def more_rounds(start: float, rounds: int, seconds: float) -> bool:
    """Another whole round fits if the mean round so far still ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def measure(writ, workload: str, seed: int, seconds: float):
    """Whole rounds of ops until the time is up; one sample per op:
    (family, bin, steps, reference seconds). A set-up precedes every round,
    so that the set-up times sample the whole run, as the rounds do. Peak
    memory is read after round 0, which has run every size; the heap creeps
    up by a few MB over later rounds, by an amount that varies."""
    samples: list[tuple[str, int, int, tuple]] = []
    setups: list[list] = []
    failed = 0
    clock = Clock()
    start, rounds = time.perf_counter(), 0
    while True:
        laps, ok = set_up(writ, clock, workload, seed, rounds)
        setups.append(laps)
        if not ok:
            failed += 1
            print("bench: set-up produced a wrong answer", file=sys.stderr)
        ops = round_ops(workload, ROOT, seed, rounds)
        write_inputs(ops, WORK, workload)
        for op in ops:
            argv = op.argv(seed)
            (rc, out), lap = clock.time(lambda: call(writ, argv))
            steps = check(op, rc, out)
            if steps is None:
                failed += 1
                print(f"bench: wrong output from writ {' '.join(argv)}: rc={rc} {out[:200]!r}",
                      file=sys.stderr)
            samples.append((op.family, op.bin, steps or op.steps, lap))
        rounds += 1
        if rounds == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not more_rounds(start, rounds, seconds):
            samples = [(*s[:3], clock.seconds(s[3])) for s in samples]
            setup_times = [sum(map(clock.seconds, laps)) for laps in setups]
            speed = statistics.median(map(clock.speed, range(len(clock.probes))))
            return samples, setup_times, failed, peak_mb, speed


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def slope(points: list[tuple[int, int, float]]) -> float | None:
    """Least-squares slope of log(time) against log(steps), fitted through
    the median point of each bin so that a slow moment of the machine moves
    one sample, not the fit."""
    bins: dict[int, list] = defaultdict(list)
    for b, steps, dt in points:
        if steps > 0:
            bins[b].append((math.log(steps), math.log(dt)))
    pts = [(statistics.median(x for x, _ in v), statistics.median(y for _, y in v))
           for v in bins.values()]
    if len({x for x, _ in pts}) < 3:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def end_to_end(samples, setup_times: list[float], failed: int,
               peak_mb: float, speed: float) -> tuple[dict, dict]:
    times = [dt for *_, dt in samples]
    pct, tail_s = tail(times)
    by_family: dict[str, list] = defaultdict(list)
    for family, b, steps, dt in samples:
        by_family[family].append((b, steps, dt))
    exps = {f: s for f, pts in by_family.items() if (s := slope(pts)) is not None}
    busy = sum(times)
    n = len(samples)
    attempted = n + len(setup_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "steps_per_s": (sum(steps for _, _, steps, _ in samples) / busy, "1/s"),
        # smoke runs may be too short to fit; every real workload fits
        "growth_exp": (max(exps.values(), default=0.0), "slope"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    details = {"op_tail_percentile": pct, "ops": n, "family_growth_exp": exps,
               "speed": speed}
    return metrics, details


# ---------------------------------------------------------------- traced

LAYER_UNITS = {
    "parser.parse_term.s": "s",
    "parser.parse_type.calls": "count",
    "syntax.typecheck.s": "s",
    "syntax.typecheck.calls": "count",
    "meta.translate.s": "s",
    "meta.translate.nodes": "count",
    "meta.meta_typecheck.s": "s",
    "evaluator.evaluate.s": "s",
    "evaluator.evaluate.calls": "count",
    "evaluator.steps": "count",
    "evaluator.steps_per_s": "1/s",
    "harness.perturb.s": "s",
    "harness.perturb.trials": "count",
    "engine.denote.cost_exact.s": "s",
    "engine.denote.cost_bounded.s": "s",
    "engine.denote.continuity.s": "s",
    "engine.denote.majorizability.s": "s",
    "instantiations.spector_closed_form.s": "s",
    "cli.main.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def round_layers(tracer: Tracer, layers: Layers, counts: Counter) -> dict[str, float]:
    own = tracer.self_times()
    out = {name: own[name[:-2]] for name in LAYER_UNITS
           if name.endswith(".s") and name != "harness.perturb.s"}
    # both verify_modulus spans are leaves, so self time is their whole time
    out["harness.perturb.s"] = (own["harness.verify_modulus"]
                                - own["harness.verify_modulus.bare"])
    out["parser.parse_type.calls"] = counts["parse_type"]
    out["syntax.typecheck.calls"] = counts["typecheck"]
    out["evaluator.evaluate.calls"] = counts["evaluate"]
    out["meta.translate.nodes"] = layers.nodes
    out["evaluator.steps"] = layers.steps
    out["evaluator.steps_per_s"] = layers.steps / own["evaluator.evaluate"]
    out["harness.perturb.trials"] = layers.trials
    return out


def traced(writ, workload: str, seed: int, seconds: float):
    """Alternate an untraced and a traced pass over the same inputs, so the
    difference between the two is the tracing overhead."""
    targets = [
        (sys.modules["writ.syntax"], "typecheck", "typecheck"),
        (sys.modules["writ.evaluator"], "evaluate", "evaluate"),
        (sys.modules["writ.evaluator"], "evaluate_with_oracle", "evaluate"),
        (sys.modules["writ.parser"], "parse_type", "parse_type"),
    ]
    zero = WORK / "zero.wt"
    WORK.mkdir(parents=True, exist_ok=True)
    zero.write_text("0\n", encoding="utf-8")
    rounds: list[dict[str, float]] = []
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    cli_ms: list[float] = []
    attempted = failed = 0
    start, pairs = time.perf_counter(), 0
    while True:
        ops = round_ops(workload, ROOT, seed, pairs) + smoke_ops(ROOT, seed, pairs)
        for is_traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            tracer = Tracer() if is_traced else NullTracer()
            layers = Layers(writ, tracer, seed)
            counts: Counter = Counter()
            busy = 0.0
            with counting(counts, targets) if is_traced else contextlib.nullcontext():
                for i, op in enumerate(ops):
                    attempted += 1
                    gc.collect()
                    t0 = time.perf_counter()
                    try:
                        ok = layers.drive(op, i)
                    except Exception:
                        traceback.print_exc()
                        ok = False
                    busy += time.perf_counter() - t0
                    if not ok:
                        failed += 1
                        print(f"bench: traced {op.command} {op.family} n={op.size} failed",
                              file=sys.stderr)
            pass_s[is_traced].append(busy)
            if is_traced:
                rounds.append(round_layers(tracer, layers, counts))
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            rc, out = call(writ, ["check", str(zero)])
            cli_ms.append((time.perf_counter() - t0) * 1e3)
            attempted += 1
            failed += rc != 0 or out.strip() != '{"type":"Nat"}'
        pairs += 1
        if not more_rounds(start, pairs, seconds):
            break
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in rounds[0]}
    metrics["cli.main.overhead_ms"] = statistics.median(cli_ms)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(pass_s[True])
                                             / statistics.median(pass_s[False]) - 1.0)
    return {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()}, attempted, failed


# ---------------------------------------------------------------- main

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    writ = load_writ()

    if args.trace:
        metrics, attempted, failed = run_roomy(
            lambda: traced(writ, args.workload, args.seed, args.seconds))
    else:
        samples, setup_times, failed, peak_mb, speed = measure(writ, args.workload,
                                                               args.seed, args.seconds)
        metrics, details = end_to_end(samples, setup_times, failed, peak_mb, speed)
        attempted = len(samples) + len(setup_times)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"op_tail_ms is the p{details['op_tail_percentile']:.2f} of {details['ops']} ops; "
              f"fail_share = {failed}/{attempted} = {failed / attempted:g}")
        for fam, exp in sorted(details["family_growth_exp"].items()):
            print(f"growth_exp[{fam}] = {exp:.4f}")
        print(f"times are in reference seconds; a wall second was worth "
              f"{details['speed']:.4f} of them (median over the run)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
