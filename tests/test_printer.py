"""The printer against a reference renderer kept here, which sorts the
(gamma, mu) keys as tuples of Fractions and writes every rational with
str(Fraction), as the printer did before it worked on integers."""

import random
from fractions import Fraction
from operator import itemgetter

import pytest

from winfty.lattice import Lattice
from winfty.printer import format_element
from winfty.scalars import Ring
from winfty.weyl import Weyl, WeylElement

RING = Ring(("alpha", "beta"))
HALF = Lattice([[Fraction(1, 2)]])
SIXTH = Lattice([[Fraction(1, 6)]])
# grades (a + b/2, b/3): denominators 2 and 3 in one element
MIXED = Lattice(((1, 0), (Fraction(1, 2), Fraction(1, 3))))

ALGEBRAS = {
    "Z1": Weyl(1, ring=RING),
    "Z2": Weyl(2, ring=RING),
    "Z3": Weyl(3, ring=RING),
    "halfZ": Weyl(1, ring=RING, lattice=HALF),
    "sixthZ": Weyl(1, ring=RING, lattice=SIXTH),
    "mixed-2-3": Weyl(2, ring=RING, lattice=MIXED),
    "hat-Z": Weyl(1, ring=RING, subalgebra="hat"),
    "hat-halfZ": Weyl(1, ring=RING, lattice=HALF, subalgebra="hat"),
}


# -- the reference renderer --------------------------------------------------


def _ref_scalar(c) -> str:
    if not c.terms:
        return "0"
    parts = []
    for e in sorted(c.terms, reverse=True):
        q = c.terms[e]
        factors = [s if p == 1 else f"{s}^{p}"
                   for s, p in zip(c.ring.symbols, e) if p]
        if not factors:
            parts.append(str(q))
        elif q == 1:
            parts.append("*".join(factors))
        elif q == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{q}*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


def _ref_coeff(c):
    if c.is_rational():
        q = c.as_fraction()
        return ("-" if q < 0 else "+"), ("" if abs(q) == 1 else str(abs(q)))
    return "+", f"({_ref_scalar(c)})"


def _ref_monomial(gamma, mu, basis, n) -> str:
    parts = []
    if any(g != 0 for g in gamma):
        parts.append(f"t^({gamma[0]})" if n == 1
                     else "t[" + ",".join(str(g) for g in gamma) + "]")
    for i, m in enumerate(mu):
        if m:
            d = "D" if n == 1 else f"D{i + 1}"
            parts.append(f"[{d}]_{m}" if basis == "falling"
                         else d if m == 1 else f"{d}^{m}")
    return "*".join(parts) if parts else "1"


def _reference(x) -> str:
    parts = []
    for (gamma, mu), c in sorted(x.terms.items(), key=itemgetter(0)):
        sign, coeff = _ref_coeff(c)
        mono = _ref_monomial(gamma, mu, x.basis, x.weyl.n)
        parts.append((sign, f"{coeff}*{mono}" if coeff else mono))
    if x.central:
        sign, coeff = _ref_coeff(x.central)
        parts.append((sign, f"{coeff}*C" if coeff else "C"))
    if not parts:
        return "0"
    return " ".join((("-" if s == "-" else "") if i == 0 else ("- " if s == "-" else "+ ")) + t
                    for i, (s, t) in enumerate(parts))


# -- random elements ----------------------------------------------------------


def _rational(rng):
    return Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12))


def _coeff(rng):
    a, b = RING.sym("alpha"), RING.sym("beta")
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((1, -1))
    if kind == 1:
        return _rational(rng)
    if kind == 2:  # polynomials with unit and rational coefficients
        return a * rng.choice((1, -1)) + rng.choice((0, 1, -1, _rational(rng)))
    if kind == 3:
        return a * b * _rational(rng) - b ** 2 + _rational(rng)
    return (a + _rational(rng)) ** 2 * rng.choice((1, -1, _rational(rng)))


def _element(weyl, rng):
    n = weyl.n
    hat = weyl.subalgebra == "hat"
    terms = {}
    for _ in range(rng.randint(1, 40)):
        gamma = weyl.lattice.ambient([rng.randint(-6, 6) for _ in range(weyl.lattice.rank)])
        mu = tuple(rng.randint(1 if hat and i == 0 else 0, 3) for i in range(n))
        terms[(gamma, mu)] = _coeff(rng)
    central = _coeff(rng) if hat and rng.random() < 0.7 else None
    return WeylElement(weyl, terms, basis=rng.choice(("power", "falling")),
                       central=central)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_printer_matches_fraction_sorted_reference(name):
    weyl = ALGEBRAS[name]
    rng = random.Random(f"printer-{name}")
    seen_denominators = set()
    for _ in range(60):
        x = _element(weyl, rng)
        assert format_element(x) == _reference(x)
        for c in x.terms.values():
            assert str(c) == _ref_scalar(c)
        seen_denominators |= {g.denominator for gamma, _mu in x.terms for g in gamma}
    assert format_element(weyl.zero()) == "0"
    if name == "mixed-2-3":
        assert {2, 3} <= seen_denominators
    if name == "sixthZ":
        assert {2, 3, 6} <= seen_denominators


def test_central_only_and_unit_coefficients():
    hat = ALGEBRAS["hat-Z"]
    for c, text in ((1, "C"), (-1, "-C"), (Fraction(-3, 2), "-3/2*C"),
                    (RING.sym("alpha"), "(alpha)*C")):
        x = hat.central(c)
        assert format_element(x) == _reference(x) == text
    x = WeylElement(hat, {((Fraction(-2),), (1,)): -1, ((Fraction(-1),), (2,)): 1},
                    central=-1)
    assert format_element(x) == _reference(x) == "-t^(-2)*D + t^(-1)*D^2 - C"
