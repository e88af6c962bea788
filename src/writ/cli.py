"""Command line front end.

Exit codes: 0 on success (and on every passing verification), 1 when a
verification fails, 2 on usage, parse, or type errors, 3 when the step
budget runs out. Output is JSON by default, byte-stable for fixed inputs;
--text switches to a human-readable line format.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .engine import render_semval
from .errors import FuelExhausted, ParseError, WritError
from .evaluator import Fuel, evaluate, evaluate_with_oracle
from .harness import run_corpus, verify_file
from .instantiations import bounded_cost, exact_cost, majorant, modulus
from .meta import meta_typecheck, render_meta, render_meta_type, translate
from .parser import parse_term
from .signatures import (
    Identity,
    OracleSpec,
    Signature,
    bar_rec,
    oracle_from_json,
    oracle_from_string,
    signature_for,
    system_t,
    system_t_list,
    with_oracle,
)
from .syntax import Term, render_term, render_type, symbols, typecheck

__all__ = ["CliConfig", "main", "main_entry"]

_SIGS = {"t": system_t, "list": system_t_list, "bar": bar_rec}

_COMMANDS = ("check", "eval", "translate", "modulus", "cost", "bound", "majorize", "verify")


@dataclass(frozen=True)
class CliConfig:
    """Everything a single invocation needs."""

    command: str
    path: Optional[Path]
    oracle: Optional[OracleSpec]
    fuel: Fuel
    seed: int
    trials: int
    sig_name: Optional[str]
    output: str  # "json" | "text"
    corpus: Optional[Path] = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="writ",
        description=(
            "Analyses for a small typed rewrite language: evaluation with "
            "exact step counts, oracle-continuity moduli, cost predictions "
            "and bounds, majorants, and self-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "typecheck a term and print its type",
        "eval": "evaluate a term, printing value and exact step count",
        "translate": "print the effect-instrumented form and its type",
        "modulus": "continuity modulus of a (Nat->Nat)->Nat term (needs --oracle)",
        "cost": "predicted exact step count",
        "bound": "step and size bounds over the list fragment",
        "majorize": "a numeral dominating the term's value",
        "verify": "replay the annotated analyses of a file (or --corpus dir)",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        if name == "verify":
            p.add_argument("file", nargs="?", help="an annotated .wt file")
            p.add_argument("--corpus", help="directory of annotated .wt files")
        else:
            p.add_argument("file", help="a .wt file containing one term")
        p.add_argument(
            "--oracle",
            help="oracle: a JSON file path, 'identity', 'constant:K', or 'table:k=v,...'",
        )
        p.add_argument("--fuel", type=int, default=Fuel().max_steps,
                       help="step budget (default %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="seed for verification")
        p.add_argument("--trials", type=int, default=100,
                       help="perturbation trials per modulus verification")
        p.add_argument("--sig", choices=sorted(_SIGS),
                       help="signature override (default: inferred from the term)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="output", action="store_const", const="json",
                         help="JSON output (default)")
        fmt.add_argument("--text", dest="output", action="store_const", const="text",
                         help="line-oriented text output")
        p.set_defaults(output="json")
    return parser


def _load_oracle(spec: Optional[str]) -> Optional[OracleSpec]:
    if spec is None:
        return None
    candidate = Path(spec)
    if candidate.suffix == ".json" or candidate.is_file():
        return oracle_from_json(candidate.read_text(encoding="utf-8"))
    return oracle_from_string(spec)


def _emit(config: CliConfig, obj: dict, text_lines: Sequence[str]) -> None:
    if config.output == "json":
        print(json.dumps(obj, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _read_term(config: CliConfig) -> Term:
    if config.path is None or not config.path.is_file():
        raise ParseError(f"no such file: {config.path}")
    return parse_term(config.path.read_text(encoding="utf-8"))


def _base_signature(config: CliConfig, term: Term) -> Signature:
    """The --sig override, or else the smallest signature covering term."""
    return _SIGS[config.sig_name]() if config.sig_name else signature_for(term)


def _typing_signature(config: CliConfig, term: Term) -> Signature:
    """Signature for typing/translation; alpha is declared when it occurs.

    The oracle's values never matter for typing, so identity stands in when
    none was given.
    """
    base = _base_signature(config, term)
    if "alpha" in symbols(term):
        base = with_oracle(base, config.oracle or Identity())
    return base


def _run(config: CliConfig) -> int:
    if config.command == "verify":
        return _run_verify(config)
    term = _read_term(config)

    if config.command == "check":
        ty = typecheck(_typing_signature(config, term), {}, term)
        _emit(config, {"type": render_type(ty)}, [render_type(ty)])
        return 0

    if config.command == "eval":
        base = _base_signature(config, term)
        if config.oracle is not None:
            res = evaluate_with_oracle(base, term, config.oracle, config.fuel)
            obj = {
                "value": render_term(res.value),
                "steps": res.steps,
                "queries": list(res.queries),
            }
            lines = [f"value = {obj['value']}", f"steps = {res.steps}",
                     f"queries = {list(res.queries)}"]
        else:
            res = evaluate(base, term, config.fuel)
            obj = {"value": render_term(res.value), "steps": res.steps}
            lines = [f"value = {obj['value']}", f"steps = {res.steps}"]
        _emit(config, obj, lines)
        return 0

    if config.command == "translate":
        sig = _typing_signature(config, term)
        mt = translate(sig, {}, term)
        mty = meta_typecheck(sig, {}, mt)
        obj = {"meta_term": render_meta(mt), "meta_type": render_meta_type(mty)}
        _emit(config, obj, [obj["meta_term"], f": {obj['meta_type']}"])
        return 0

    if config.command == "modulus":
        if config.oracle is None:
            raise ParseError("modulus needs --oracle")
        rep = modulus(term, config.oracle, config.fuel)
        obj = {
            "phi": rep.phi,
            "support": list(rep.support),
            "value": rep.predicted_value,
        }
        _emit(config, obj, [f"phi = {rep.phi}", f"support = {list(rep.support)}",
                            f"value = {rep.predicted_value}"])
        return 0

    if config.command == "cost":
        rep = exact_cost(term, _base_signature(config, term), config.fuel)
        obj = {
            "predicted": rep.predicted,
            "semantic": render_semval(rep.semantic),
            "mode": rep.mode,
        }
        _emit(config, obj, [f"predicted = {rep.predicted}",
                            f"semantic = {obj['semantic']}"])
        return 0

    if config.command == "bound":
        rep = bounded_cost(term, config.fuel)
        obj = {
            "predicted": rep.predicted,
            "semantic": render_semval(rep.semantic),
            "mode": rep.mode,
        }
        _emit(config, obj, [f"predicted <= {rep.predicted}",
                            f"size <= {obj['semantic']}"])
        return 0

    if config.command == "majorize":
        obj = {"majorant": render_semval(majorant(term, config.fuel))}
        _emit(config, obj, [f"majorant = {obj['majorant']}"])
        return 0

    raise ParseError(f"unknown command {config.command!r}")


def _run_verify(config: CliConfig) -> int:
    if config.corpus is not None:
        reports = run_corpus(config.corpus, fuel=config.fuel,
                             trials=config.trials, seed=config.seed)
    elif config.path is not None:
        if not config.path.is_file():
            raise ParseError(f"no such file: {config.path}")
        reports = verify_file(config.path, fuel=config.fuel,
                              trials=config.trials, seed=config.seed)
    else:
        raise ParseError("verify needs a file or --corpus")
    failures = sum(1 for r in reports if not r.passed)
    obj = {"reports": [r.to_dict() for r in reports], "failures": failures}
    lines = [
        f"{r.term_id}: {r.analysis}: {r.status}"
        + (f" ({r.details})" if r.details else "")
        for r in reports
    ] + [f"failures = {failures}"]
    _emit(config, obj, lines)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        fuel = Fuel(args.fuel)
        if args.trials < 0:
            raise ValueError("trials must not be negative")
        config = CliConfig(
            command=args.command,
            path=Path(args.file) if getattr(args, "file", None) else None,
            oracle=_load_oracle(args.oracle),
            fuel=fuel,
            seed=args.seed,
            trials=args.trials,
            sig_name=args.sig,
            output=args.output,
            corpus=Path(args.corpus) if getattr(args, "corpus", None) else None,
        )
    except (ValueError, OSError) as err:
        print(f"writ: {err}", file=sys.stderr)
        return 2
    try:
        return _run(config)
    except FuelExhausted as err:
        print(f"writ: {err}", file=sys.stderr)
        return 3
    except (WritError, ValueError, OSError) as err:
        print(f"writ: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("writ: term too deeply nested for this build", file=sys.stderr)
        return 2


def main_entry() -> None:
    # die quietly on a closed pipe, like any other line-printing tool
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
