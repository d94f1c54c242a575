"""Canonical plain-text rendering of algebra elements (grammar version 1).

The grammar is documented in FORMAT.md; parse(format_element(x)) == x for
every canonical element.  Terms are emitted in sorted (gamma, mu) order so
the output is deterministic.

The printer works on integers.  It sorts by the key (gamma * L, mu), with L
the lcm of every grade denominator in the element (1 on Z^n), whose grade
part is a tuple of ints.  Multiplying every grade by the same L > 0 keeps
their order, so this is the (gamma, mu) order exactly, without comparing
Fractions.  Rationals are written from their numerators and denominators by
scalars.rational_text.
"""

from __future__ import annotations

import math
from typing import Tuple

from .scalars import Rat, Scalar, rational_text


def format_monomial(gamma: Tuple[Rat, ...], mu: Tuple[int, ...],
                    basis: str, n: int) -> str:
    parts = []
    if any(g.numerator for g in gamma):
        coords = [rational_text(g.numerator, g.denominator) for g in gamma]
        parts.append(f"t^({coords[0]})" if n == 1 else "t[" + ",".join(coords) + "]")
    for i, m in enumerate(mu):
        if m == 0:
            continue
        dname = "D" if n == 1 else f"D{i + 1}"
        if basis == "falling":
            parts.append(f"[{dname}]_{m}")
        elif m == 1:
            parts.append(dname)
        else:
            parts.append(f"{dname}^{m}")
    return "*".join(parts) if parts else "1"


def _format_coeff(c: Scalar) -> Tuple[str, str]:
    """Return (sign, magnitude-text) of a nonzero c; magnitude "" means 1."""
    nums = c.nums
    p = nums.get(0)  # the constant monomial's key
    if p is not None and len(nums) == 1:
        # canonical: p and the denominator are coprime
        d = c.den
        mag = abs(p)
        return ("-" if p < 0 else "+"), ("" if mag == 1 and d == 1 else rational_text(mag, d))
    return "+", f"({c})"


def format_element(x) -> str:
    if x.is_zero():
        return "0"
    # a list, not a generator (see Scalar.__init__)
    lcm = math.lcm(*[g.denominator for gamma, _mu in x.terms for g in gamma])

    def key(item):
        gamma, mu = item[0]
        return tuple([g.numerator * (lcm // g.denominator) for g in gamma]), mu

    parts = []
    for (gamma, mu), c in sorted(x.terms.items(), key=key):
        sign, coeff = _format_coeff(c)
        mono = format_monomial(gamma, mu, x.basis, x.weyl.n)
        if coeff:
            text = f"{coeff}*{mono}"
        elif mono == "1":
            text = "1"
        else:
            text = mono
        parts.append((sign, text))
    if not x.central.is_zero():
        sign, coeff = _format_coeff(x.central)
        parts.append((sign, f"{coeff}*C" if coeff else "C"))
    out = []
    for i, (sign, text) in enumerate(parts):
        if i == 0:
            out.append(("-" if sign == "-" else "") + text)
        else:
            out.append(("- " if sign == "-" else "+ ") + text)
    return " ".join(out)
