"""Command-line entry point: expression evaluation and verification suites.

Exit codes: 0 when everything passes (or an expression evaluates), 1 when a
suite check fails, 2 for usage errors (bad flags, unknown suite, syntax
errors in expressions, a --json path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from . import parser
from .lattice import Lattice
from .parser import Session, parse_element
from .printer import format_element
from .report import GRAMMAR_VERSION
from .scalars import Rat, Ring, Scalar
from .suites import SUITE_NAMES, SuiteOptions, run_suite
from .weyl import Weyl


def _rational(text: str, flag: str) -> Rat:
    """A flag value read by the grammar's rational rule (FORMAT.md)."""
    text = text.strip()
    if not re.fullmatch(parser._FRAC, text):
        raise ValueError(f"{flag}: expected an integer p or a fraction p/q, got {text!r}")
    try:
        return parser._rational(text, 0)
    except parser.ParseError:
        raise ValueError(f"{flag}: zero denominator in {text!r}") from None


def _parse_gamma(text: str) -> List[List[Rat]]:
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vectors.append([_rational(c, "--gamma") for c in chunk.split(",")])
    if not vectors:
        raise ValueError("empty --gamma")
    return vectors


def _parse_alpha(text: str):
    # SuiteOptions refuses a vector or "formal" with a message naming the readers
    return text if text == "formal" or "," in text else _rational(text, "--alpha")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="winfty",
        description="Exact computation in W-infinity type algebras "
                    "and their intermediate-series modules.")
    subs = ap.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads, so argparse refuses the rest
    sp = subs.add_parser("suite", help="run a named verification suite")
    sp.add_argument("name", help=f"one of: {', '.join(SUITE_NAMES)}")
    sp.add_argument("--alpha", help="module parameter: one rational")
    ep = subs.add_parser("eval", help="evaluate an expression")
    ep.add_argument("expression")
    ep.add_argument("--n", type=int, default=1, help="number of variables")
    ep.add_argument("--alpha", choices=("formal",), help="add alpha to the ring")
    ep.add_argument("--subalgebra", choices=("w1", "full", "hat"), default="w1",
                    help="algebra flavor")
    for sub in (sp, ep):
        sub.add_argument("--gamma", help='lattice generators, e.g. "1,0;0,1"')
        sub.add_argument("--json", dest="json_path",
                         help="write the JSON report to this path")

    # defaults are SuiteOptions', so run_suite reads an omitted flag as unset
    d = SuiteOptions()
    sp.add_argument("--window", type=int, default=d.window, help="window radius")
    sp.add_argument("--samples", type=int, default=d.samples,
                    help="sample count for randomized checks")
    sp.add_argument("--seed", type=int, default=d.seed, help="RNG seed")
    sp.add_argument("--max-mu", type=int, default=d.max_mu, dest="max_mu",
                    help="maximum total D-order of random monomials")
    sp.add_argument("--kind", choices=("A", "B"), default=d.kind,
                    help="restrict module suites to one kind")
    return ap


def _options(args) -> SuiteOptions:
    return SuiteOptions(
        gamma=_parse_gamma(args.gamma) if args.gamma else None,
        alpha=_parse_alpha(args.alpha) if args.alpha else None,
        window=args.window, samples=args.samples, seed=args.seed,
        max_mu=args.max_mu, kind=args.kind)


def _cmd_suite(args) -> int:
    doc = run_suite(args.name, _options(args))
    print(doc.summary())
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(doc.to_json())
    return 0 if doc.passed else 1


def _cmd_eval(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    ring = Ring(("alpha",)) if args.alpha else Ring()
    lattice = Lattice(_parse_gamma(args.gamma)) if args.gamma else None
    weyl = Weyl(args.n, ring=ring, lattice=lattice, subalgebra=args.subalgebra)
    value = parse_element(args.expression, Session(weyl))
    if isinstance(value, Scalar):
        text = str(value)
        kind = "scalar"
    else:
        text = format_element(value)
        kind = "element"
    print(text)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(json.dumps({"grammar_version": GRAMMAR_VERSION,
                                 "kind": kind, "result": text},
                                sort_keys=True, separators=(",", ":")))
    return 0


def _argv(argv: List[str]) -> List[str]:
    """Let argparse read an argument that starts with one "-" ("-1/2",
    "-t^(3)*D") as a value: right after a bare long flag, full or abbreviated,
    it becomes that flag's value ("--gam=-1/2"); any other moves behind one
    "--" (the user's own, if given), which ends the flags. "-h" stays help."""
    head: List[str] = []
    tail: List[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            tail += argv[i + 1:]
            break
        if arg[:1] != "-" or arg[:2] == "--" or arg == "-h":
            head.append(arg)
        elif head and head[-1][:2] == "--" and "=" not in head[-1]:
            head[-1] += "=" + arg
        else:
            tail.append(arg)
    return head + ["--", *tail] if tail else head


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(_argv(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_eval(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
