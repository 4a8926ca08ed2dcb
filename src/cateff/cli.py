"""Command line interface: check, run, denote and conform on .ceff files."""
from __future__ import annotations

import argparse
import json
import os
import sys

from .conformance import run_conformance
from .denote import DenoteError, denote_program
from .eval import (
    DEFAULT_MAX_STEPS, EvalError, OpAtTop, Terminal, run_program,
)
from .freemodel import Coerce, Leaf, Node, tree_to_json
from .grading import GradingError
from .parser import CeffError, load_bundle
from .signature import NonComparable, SignatureError
from .terms import pp_comp
from .typecheck import CateffTypeError, check_bundle, grade_of_computation


def _load(path):
    try:
        return load_bundle(path)
    except (CeffError, GradingError, SignatureError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc.reason} at byte "
              f"{exc.start})", file=sys.stderr)
    raise SystemExit(1)


def cmd_check(args, bundle, judgements) -> int:
    for name, j in judgements.items():
        print(f"⊢_{{{j.grade}}} {name} : {j.result_type}")
    return 0


def cmd_run(args, bundle, judgements) -> int:
    status = 0
    for name, prog in bundle.programs.items():
        try:
            trace = run_program(prog, max_steps=args.max_steps)
        except EvalError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            status = 2
            continue
        if args.trace:
            for i, config in enumerate(trace.configs):
                _, grade = grade_of_computation((), config, prog.signature)
                print(f"{name}[{i}] @ {grade}: {pp_comp(config)}")
        final = trace.final
        if isinstance(final, Terminal):
            note = "  (residual weakening)" if final.weakens else ""
            print(f"{name}: {pp_comp(trace.configs[-1])}{note}")
        elif isinstance(final, OpAtTop):
            print(f"{name}: about to perform {final.op} "
                  f"(free operation of {final.sig.name})")
    return status


def cmd_denote(args, bundle, judgements) -> int:
    status = 0
    for name, prog in bundle.programs.items():
        try:
            tree = denote_program(prog)
        except DenoteError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            status = status or 2  # an unserializable tree's exit 1 wins
            continue
        if args.json:
            try:
                print(json.dumps({name: tree_to_json(tree)}, sort_keys=True))
            except NonComparable:
                print(f"{name}: tree carries function-space leaves; "
                      f"not serializable", file=sys.stderr)
                status = 1
        else:
            print(f"{name}: {_pp_tree(tree)}")
    return status


def _pp_tree(tree) -> str:
    match tree:
        case Leaf(obj, val):
            return f"e({obj}, {val})"
        case Node(op, _, param, _, children):
            kids = ", ".join(_pp_tree(c) for c in children)
            return f"do({op}, {param}, [{kids}])"
        case Coerce(r, child):
            return f"coerce({r}, {_pp_tree(child)})"
    return repr(tree)


def cmd_conform(args, bundle) -> int:
    report = run_conformance(bundle, seed=args.seed, count=args.count,
                             depth=args.depth, max_steps=args.max_steps)
    if args.json_report:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        for result in report.results:
            print(result.line())
    return 0 if report.ok else 3


def _dispatch(args) -> int:
    """Load the file once and, but for conform, type-check it once."""
    bundle = _load(args.file)
    if args.fn is cmd_conform:  # a type error is its failing typecheck line
        return cmd_conform(args, bundle)
    try:
        judgements = check_bundle(bundle)
    except CateffTypeError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return 1
    return args.fn(args, bundle, judgements)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cateff",
        description="Category-graded effect programs: type/grade checking, "
                    "small-step evaluation, term-tree denotations and "
                    "metatheory conformance.")
    sub = parser.add_subparsers(dest="command", required=True)
    # type=int converts this string only in the subcommands that use it
    max_steps = os.environ.get("CATEFF_MAX_STEPS") or str(DEFAULT_MAX_STEPS)

    p = sub.add_parser("check", help="type- and grade-check every program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate every program")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true",
                   help="print every configuration with its grade")
    p.add_argument("--max-steps", type=int, default=max_steps)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("denote", help="print the term tree of every program")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_denote)

    p = sub.add_parser("conform", help="run the metatheory conformance suite")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--json-report", action="store_true")
    p.add_argument("--max-steps", type=int, default=max_steps)
    p.set_defaults(fn=cmd_conform)

    args = parser.parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except RecursionError:
        print(f"error: {args.file}: program nests too deeply for cateff",
              file=sys.stderr)
        return 1
    except GradingError as exc:  # a rewrite the load-time probe let through
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away; send what Python flushes at exit nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
