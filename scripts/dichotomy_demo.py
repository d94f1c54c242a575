#!/usr/bin/env python3
"""Show the associativity dichotomy between the two intermediate-series
module families: the A-family is a module over the associative algebra,
the B-family is only a Lie module.

The canonical witness: x = y = tD acting on y_0 at alpha = 1/2.
"""

import pathlib
import sys
from fractions import Fraction

# import winfty from this checkout's src/, installed or not
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from winfty.intermediate import act, make_module  # noqa: E402
from winfty.scalars import Ring  # noqa: E402
from winfty.weyl import Weyl, mul  # noqa: E402


def show(kind: str) -> None:
    ring = Ring(("alpha",))
    weyl = Weyl(1, ring=ring, subalgebra="w1")
    m = make_module(kind, [Fraction(1, 2)], weyl)
    td = weyl.tD((1,))
    product = act(m, mul(td, td), (0,))
    staged = act(m, td, act(m, td, (0,)))
    print(f"kind {kind}: (tD * tD) y_0 = {fmt(product)}   "
          f"tD (tD y_0) = {fmt(staged)}   "
          f"{'agree' if product == staged else 'DIFFER'}")


def fmt(vec) -> str:
    return " + ".join(f"({c})*y[{g[0]}]" for g, c in sorted(vec.items())) or "0"


if __name__ == "__main__":
    show("A")
    show("B")
