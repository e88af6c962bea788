"""Command line front end.

Every command is one entry of `_COMMANDS`: its help text and a handler.
A handler takes the parsed arguments and returns the JSON object, the
`--text` lines and the exit code; `main` prints one or the other.

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

__all__ = ["main", "main_entry"]

_SIGS = {"t": system_t, "list": system_t_list, "bar": bar_rec}

_Result = tuple[dict, list[str], int]


def _load_oracle(spec: Optional[str]) -> Optional[OracleSpec]:
    if spec is None:
        return None
    candidate = Path(spec)
    if candidate.suffix == ".json" or candidate.is_file():
        return oracle_from_json(candidate.read_text(encoding="utf-8"))
    return oracle_from_string(spec)


def _file(args: argparse.Namespace) -> Path:
    path = Path(args.file)
    if not path.is_file():
        # an empty argument would read as the current directory, "."
        raise ParseError(f"no such file: {path if args.file else repr(args.file)}")
    return path


def _read_term(args: argparse.Namespace) -> Term:
    return parse_term(_file(args).read_text(encoding="utf-8"))


def _base_signature(args: argparse.Namespace, term: Term) -> Signature:
    """The --sig override, or else the smallest signature covering term."""
    return _SIGS[args.sig]() if args.sig else signature_for(term)


def _typing_signature(args: argparse.Namespace, term: Term) -> Signature:
    """Signature for typing/translation; alpha is declared when it occurs.
    Its values never matter for typing, so identity stands in for no oracle."""
    base = _base_signature(args, term)
    if "alpha" in symbols(term):
        base = with_oracle(base, args.oracle or Identity())
    return base


def _assignments(obj: dict) -> list[str]:
    return [f"{key} = {value}" for key, value in obj.items()]


def _check(args: argparse.Namespace) -> _Result:
    term = _read_term(args)
    ty = render_type(typecheck(_typing_signature(args, term), {}, term))
    return {"type": ty}, [ty], 0


def _eval(args: argparse.Namespace) -> _Result:
    term = _read_term(args)
    base = _base_signature(args, term)
    res = (evaluate(base, term, args.fuel) if args.oracle is None
           else evaluate_with_oracle(base, term, args.oracle, args.fuel))
    obj = {"value": render_term(res.value), "steps": res.steps}
    if args.oracle is not None:
        obj["queries"] = list(res.queries)
    return obj, _assignments(obj), 0


def _translate(args: argparse.Namespace) -> _Result:
    term = _read_term(args)
    sig = _typing_signature(args, term)
    mt = translate(sig, {}, term)
    mty = meta_typecheck(sig, {}, mt)
    obj = {"meta_term": render_meta(mt), "meta_type": render_meta_type(mty)}
    return obj, [obj["meta_term"], f": {obj['meta_type']}"], 0


def _modulus(args: argparse.Namespace) -> _Result:
    term = _read_term(args)
    if args.oracle is None:
        raise ParseError("modulus needs --oracle")
    rep = modulus(term, args.oracle, args.fuel)
    obj = {"phi": rep.phi, "support": list(rep.support), "value": rep.predicted_value}
    return obj, _assignments(obj), 0


def _cost(args: argparse.Namespace) -> _Result:
    term = _read_term(args)
    rep = exact_cost(term, _base_signature(args, term), args.fuel)
    obj = {"predicted": rep.predicted, "semantic": render_semval(rep.semantic),
           "mode": rep.mode}
    return obj, [f"predicted = {rep.predicted}", f"semantic = {obj['semantic']}"], 0


def _bound(args: argparse.Namespace) -> _Result:
    rep = bounded_cost(_read_term(args), args.fuel)
    obj = {"predicted": rep.predicted, "semantic": render_semval(rep.semantic),
           "mode": rep.mode}
    return obj, [f"predicted <= {rep.predicted}", f"size <= {obj['semantic']}"], 0


def _majorize(args: argparse.Namespace) -> _Result:
    obj = {"majorant": render_semval(majorant(_read_term(args), args.fuel))}
    return obj, _assignments(obj), 0


def _verify(args: argparse.Namespace) -> _Result:
    if args.file is not None and args.corpus is not None:
        raise ParseError("verify takes a file or --corpus, not both")
    if args.corpus is not None:
        corpus = Path(args.corpus)
        if not args.corpus or not corpus.is_dir():
            # as for a file, an empty argument would read as "."
            shown = corpus if args.corpus else repr(args.corpus)
            raise ParseError(f"no such directory: {shown}")
        reports = run_corpus(corpus, args.fuel, args.trials, args.seed)
    elif args.file is not None:
        reports = verify_file(_file(args), args.fuel, args.trials, args.seed)
    else:
        raise ParseError("verify needs a file or --corpus")
    failures = sum(1 for r in reports if not r.passed)
    obj = {"reports": [r.to_dict() for r in reports], "failures": failures}
    lines = [f"{r.term_id}: {r.analysis}: {r.status}"
             + (f" ({r.details})" if r.details else "") for r in reports]
    lines.append(f"failures = {failures}")
    return obj, lines, 1 if failures else 0


_COMMANDS = {
    "check": ("typecheck a term and print its type", _check),
    "eval": ("evaluate a term, printing value and exact step count", _eval),
    "translate": ("print the effect-instrumented form and its type", _translate),
    "modulus": ("continuity modulus of a (Nat->Nat)->Nat term (needs --oracle)",
                _modulus),
    "cost": ("predicted exact step count", _cost),
    "bound": ("step and size bounds over the list fragment", _bound),
    "majorize": ("a numeral dominating the term's value", _majorize),
    "verify": ("replay the annotated analyses of a file (or --corpus dir)", _verify),
}


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
    for name, (help_text, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("file", nargs="?", help="an annotated .wt file")
            p.add_argument("--corpus", help="directory of annotated .wt files")
        else:
            p.add_argument("file", help="a .wt file containing one term")
        p.add_argument("--oracle", help="oracle: a JSON file path, 'identity', "
                       "'constant:K', or 'table:k=v,...'")
        p.add_argument("--fuel", type=int, default=Fuel().max_steps,
                       help="step budget (default %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="seed for verification")
        p.add_argument("--trials", type=int, default=100,
                       help="perturbation trials per modulus verification")
        p.add_argument("--sig", choices=sorted(_SIGS),
                       help="signature override, read by check, eval, translate and cost "
                            "(default: inferred from the term)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="output", action="store_const", const="json",
                         help="JSON output (default)")
        fmt.add_argument("--text", dest="output", action="store_const", const="text",
                         help="line-oriented text output")
        p.set_defaults(output="json", handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.fuel = Fuel(args.fuel)
        if args.trials < 0:
            raise ValueError("trials must not be negative")
        args.oracle = _load_oracle(args.oracle)
        obj, lines, code = args.handler(args)
        if args.output == "json":
            print(json.dumps(obj, separators=(",", ":")))
        else:
            print(*lines, sep="\n")
        return code
    except SystemExit as e:  # argparse's usage errors and --help
        return int(e.code or 0)
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
