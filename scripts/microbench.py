#!/usr/bin/env python3
"""Layer microbenchmarks: the median time of one operation, in microseconds.

Usage:
    python3 scripts/microbench.py [--repeats N]

Scalars: ``+``, ``*``, ``**``, ``exact_div``, ``substitute`` and ``shift`` on
fixed polynomials in two rings, the six-symbol weightlab ring (P-series
entries) and the one-symbol ring of a formal alpha.  The layers above them:
the Weyl ``mul`` and ``bracket`` for n = 1 and n = 2 (and ``bracket-block``,
a 3-term by 9-term bracket with one grade per factor, the shape of the outer
brackets of a Jacobi check on homogeneous elements), ``cocycle`` in the hat
algebra, the module ``act`` with formal alpha on a rank-2 lattice, one
``GeneratedSubalgebra`` box and the ``membership`` of every t^k D^m in it,
``format_element`` and ``parse_element`` of a 40-term element, the
``parse_element`` of a 40-term n = 2 element whose coefficients are
polynomials in alpha and beta (``parse-param``), and the
``WeylElement`` constructor on 40 terms over Z^2 and over the rank-2
lattice, where every grade is admitted through the lattice.  Each
case runs in batches sized to take at least 20 ms; a repeat is one batch,
and the median over the repeats is printed per case, one line each: ring or
layer, operation, microseconds.  Only the public API is used, so the same
script times any revision that has it.
"""

import argparse
import pathlib
import random
import statistics
import sys
import time
from fractions import Fraction

# import winfty from this checkout's src/, installed or not
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from winfty import (GeneratedSubalgebra, Lattice, Ring, Session, Weyl,  # noqa: E402
                    WeylElement, act, bracket, cocycle, falling, format_element,
                    make_module, mul, parse_element, rising, standard_generators)
from winfty.weightlab import build_p_series  # noqa: E402

BATCH_S = 0.02
RANK2 = ((1, 0), (Fraction(1, 2), Fraction(1, 3)))


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
    ] + layer_cases()


def element_terms(weyl, size, seed, coeff=None):
    """The term map of a fixed element of ``size`` terms t^g D^mu, g from
    lattice coordinates in [-3, 3] and |mu| from 1 to 3, with rational
    coefficients (or ``coeff``)."""
    rng = random.Random(seed)
    terms = {}
    while len(terms) < size:
        g = weyl.lattice.ambient(tuple(rng.randint(-3, 3) for _ in range(weyl.n)))
        mu = tuple(rng.randint(0, 2) for _ in range(weyl.n))
        if any(mu):
            terms[(g, mu)] = coeff or Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    return terms


def element(weyl, size, seed, coeff=None):
    return WeylElement(weyl, element_terms(weyl, size, seed, coeff))


def block_element(weyl, size, seed):
    """A fixed element of ``size`` terms t^g D^mu on one grade g, from lattice
    coordinates in [-3, 3], with distinct mu != 0 (each mu_i at most 9 / n)
    and rational coefficients."""
    rng = random.Random(seed)
    g = weyl.lattice.ambient(tuple(rng.randint(-3, 3) for _ in range(weyl.n)))
    terms = {}
    while len(terms) < size:
        mu = tuple(rng.randint(0, 9 // weyl.n) for _ in range(weyl.n))
        if any(mu):
            terms[(g, mu)] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    return WeylElement(weyl, terms)


def layer_cases():
    """[(layer label, operation, zero-argument callable)] above the scalars."""
    out = []
    for n in (1, 2):
        w = Weyl(n, subalgebra="full")
        x, y = element(w, 6, "x"), element(w, 6, "y")
        bx, by = block_element(w, 3, "bx"), block_element(w, 9, "by")
        out += [(f"weyl-n{n}", "mul", lambda x=x, y=y: mul(x, y)),
                (f"weyl-n{n}", "bracket", lambda x=x, y=y: bracket(x, y)),
                (f"weyl-n{n}", "bracket-block", lambda x=bx, y=by: bracket(x, y))]
    hat = Weyl(1, subalgebra="hat")
    u, v = element(hat, 8, "u"), element(hat, 8, "v")
    ring = Ring(("a1", "a2"))
    rank2 = Weyl(2, ring=ring, lattice=Lattice(RANK2), subalgebra="w1")
    module = make_module("B", "formal", rank2)
    z = element(rank2, 3, "z", ring.sym("a1") + Fraction(1, 2))
    w1 = Weyl(1, subalgebra="w1")
    gens = standard_generators(w1, 1, 2, 4)
    box = GeneratedSubalgebra(w1, gens, deg_lo=0, deg_hi=12, d_cap=4)
    targets = [w1.monomial((k,), (m,)) for k in range(13) for m in range(1, 5)]
    w = Weyl(2, subalgebra="full")
    big_terms, skew_terms = element_terms(w, 40, "text"), element_terms(rank2, 40, "text")
    big = WeylElement(w, big_terms)
    text, session = format_element(big), Session(w)
    pring = Ring(("alpha", "beta"))
    a, b = pring.sym("alpha"), pring.sym("beta")
    shapes = (a + Fraction(1, 2), a * b - 3 * b ** 2, (a - 2) ** 2 + b)
    wp = Weyl(2, ring=pring, subalgebra="full")
    param = WeylElement(wp, {key: shapes[i % 3] * c for i, (key, c)
                             in enumerate(element_terms(wp, 40, "param").items())})
    ptext, psession = format_element(param), Session(wp)
    return out + [
        ("hat", "cocycle", lambda: cocycle(u, v)),
        ("module", "act", lambda: act(module, z, (1, -1))),
        ("closure", "box", lambda: GeneratedSubalgebra(w1, gens, deg_lo=0, deg_hi=12,
                                                       d_cap=4)),
        ("closure", "members", lambda: [box.membership(t) for t in targets]),
        ("text", "format", lambda: format_element(big)),
        ("text", "parse", lambda: parse_element(text, session)),
        ("text", "parse-param", lambda: parse_element(ptext, psession)),
        ("weyl-n2", "construct", lambda: WeylElement(w, big_terms)),
        ("rank2", "construct", lambda: WeylElement(rank2, skew_terms)),
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
