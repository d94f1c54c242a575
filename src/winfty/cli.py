"""Command-line entry point: expression evaluation and verification suites.

Exit codes: 0 when everything passes (or an expression evaluates), 1 when a
suite check fails, 2 for usage errors (bad flags, unknown suite, syntax
errors in expressions).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .parser import Session, parse_element
from .printer import format_element
from .report import GRAMMAR_VERSION
from .scalars import Ring, Scalar
from .suites import SUITE_NAMES, SuiteOptions, check_options, run_suite
from .weyl import Weyl


def _parse_gamma(text: str) -> List[List[Fraction]]:
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vectors.append([Fraction(c.strip()) for c in chunk.split(",")])
    if not vectors:
        raise ValueError("empty --gamma")
    return vectors


def _parse_alpha(text: str):
    if text == "formal":
        return "formal"
    return [Fraction(c.strip()) for c in text.split(",")]


def _add_common_flags(sub: argparse.ArgumentParser):
    # defaults are SuiteOptions', so check_options reads an omitted flag as unset
    d = SuiteOptions()
    sub.add_argument("--n", type=int, default=d.n, help="number of variables")
    sub.add_argument("--gamma", type=str, default=None,
                     help='lattice generators, e.g. "1,0;0,1"')
    sub.add_argument("--alpha", type=str, default=None,
                     help='module parameter: rational vector or "formal"')
    sub.add_argument("--window", type=int, default=d.window, help="window radius")
    sub.add_argument("--samples", type=int, default=d.samples,
                     help="sample count for randomized checks")
    sub.add_argument("--seed", type=int, default=d.seed, help="RNG seed")
    sub.add_argument("--max-mu", type=int, default=d.max_mu, dest="max_mu",
                     help="maximum total D-order of random monomials")
    sub.add_argument("--json", type=str, default=None, dest="json_path",
                     help="write the JSON report to this path")
    sub.add_argument("--kind", choices=("A", "B"), default=d.kind,
                     help="restrict module suites to one kind")
    sub.add_argument("--subalgebra", choices=("w1", "full", "hat"),
                     default=d.subalgebra, help="algebra flavor")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="winfty",
        description="Exact computation in W-infinity type algebras "
                    "and their intermediate-series modules.")
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("suite", help="run a named verification suite")
    sp.add_argument("name", help=f"one of: {', '.join(SUITE_NAMES)}")
    _add_common_flags(sp)

    ep = subs.add_parser("eval", help="evaluate an expression")
    # optional here only so that main() can take a leading-minus expression
    # that argparse set aside as an unknown flag; main() requires one
    ep.add_argument("expression", nargs="?")
    _add_common_flags(ep)

    return ap


def _options(args) -> SuiteOptions:
    return SuiteOptions(
        n=args.n,
        gamma=_parse_gamma(args.gamma) if args.gamma else None,
        alpha=_parse_alpha(args.alpha) if args.alpha else None,
        window=args.window,
        samples=args.samples,
        seed=args.seed,
        max_mu=args.max_mu,
        kind=args.kind,
        subalgebra=args.subalgebra,
    )


def _cmd_suite(args) -> int:
    doc = run_suite(args.name, _options(args))
    print(doc.summary())
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(doc.to_json())
    return 0 if doc.passed else 1


def _cmd_eval(args) -> int:
    # Only a formal alpha has a meaning here: it adds alpha to the ring.
    reads = {"n", "gamma", "subalgebra"} | ({"alpha"} if args.alpha == "formal" else set())
    opts = _options(args)
    check_options("eval", opts, reads)
    ring = Ring(("alpha",)) if args.alpha == "formal" else Ring()
    weyl = Weyl(args.n, ring=ring, lattice=opts.lattice(args.n), subalgebra=args.subalgebra)
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


def main(argv: Optional[List[str]] = None) -> int:
    ap = _build_parser()
    try:
        args, unknown = ap.parse_known_args(argv)
        if args.command == "eval" and args.expression is None:
            # argparse takes a space-free argument that starts with "-", as
            # in "-t^(3)*D", for a flag; one such argument is the expression
            if len(unknown) == 1 and not unknown[0].startswith("--"):
                args.expression = unknown.pop()
            elif not unknown:
                ap.error("the following arguments are required: expression")
        if unknown:
            ap.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "suite":
            return _cmd_suite(args)
        return _cmd_eval(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
