#!/usr/bin/env python3
"""Scalar microbenchmarks: the median time of one operation, in microseconds.

Usage:
    python3 scripts/microbench.py [--repeats N]

Times ``+``, ``*``, ``**``, ``exact_div``, ``substitute`` and ``shift`` on
fixed polynomials in two rings: the six-symbol weightlab ring (P-series
entries) and the one-symbol ring of a formal alpha.  Each case runs in
batches sized to take at least 20 ms; a repeat is one batch, and the median
over the repeats is printed per case, one line each: ring, operation,
microseconds.  Only the public API is used, so the same script times any
revision that has it.
"""

import argparse
import pathlib
import statistics
import sys
import time
from fractions import Fraction

# import winfty from this checkout's src/, installed or not
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from winfty.scalars import Ring, falling, rising  # noqa: E402
from winfty.weightlab import build_p_series  # noqa: E402

BATCH_S = 0.02


def cases():
    """[(ring label, operation, zero-argument callable)]."""
    ps = build_p_series()
    ring = ps.ring
    p1, p2, p3 = ps.pjk(1), ps.pjk(2), ps.pjk(3)
    p23 = p2 * p3
    primes = {"p1": ring.sym("pp1"), "p2": ring.sym("pp2")}
    alpha = Ring(("alpha",)).sym("alpha")
    f, g = falling(alpha + Fraction(1, 2), 6), rising(alpha, 4)
    fg = f * g
    moved = {"alpha": 2 * alpha + Fraction(1, 3)}
    return [
        ("weightlab", "add", lambda: p3 + p2),
        ("weightlab", "mul", lambda: p2 * p3),
        ("weightlab", "pow", lambda: p1 ** 4),
        ("weightlab", "exact_div", lambda: p23.exact_div(p2)),
        ("weightlab", "substitute", lambda: p3.substitute(primes)),
        ("weightlab", "shift", lambda: p3.shift("kbar", 2)),
        ("alpha", "add", lambda: f + g),
        ("alpha", "mul", lambda: f * g),
        ("alpha", "pow", lambda: (alpha + Fraction(1, 2)) ** 8),
        ("alpha", "exact_div", lambda: fg.exact_div(g)),
        ("alpha", "substitute", lambda: f.substitute(moved)),
        ("alpha", "shift", lambda: f.shift("alpha", 3)),
    ]


def _batch(fn, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - t0


def median_us(fn, repeats: int) -> float:
    """The median over ``repeats`` batches of the time of one call."""
    number = 1
    while _batch(fn, number) < BATCH_S:
        number *= 2
    return statistics.median(_batch(fn, number) / number for _ in range(repeats)) * 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    for ring, op, fn in cases():
        print(f"{ring:10s} {op:11s} {median_us(fn, args.repeats):10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
