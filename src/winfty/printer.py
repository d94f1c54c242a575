"""Canonical plain-text rendering of algebra elements (grammar version 1).

The grammar is documented in FORMAT.md; parse(format_element(x)) == x for
every canonical element.  Terms are emitted in sorted (gamma, mu) order so
the output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Tuple

from .scalars import Scalar


def format_monomial(gamma: Tuple[Fraction, ...], mu: Tuple[int, ...],
                    basis: str, n: int) -> str:
    parts = []
    if any(g != 0 for g in gamma):
        if n == 1:
            parts.append(f"t^({gamma[0]})")
        else:
            parts.append("t[" + ",".join(map(str, gamma)) + "]")
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
    """Return (sign, magnitude-text); magnitude "" means coefficient 1."""
    if c.is_rational():
        q = c.as_fraction()
        sign = "-" if q < 0 else "+"
        mag = abs(q)
        return sign, ("" if mag == 1 else str(mag))
    return "+", f"({c})"


def format_element(x) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for (gamma, mu), c in sorted(x.terms.items(), key=itemgetter(0)):
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
