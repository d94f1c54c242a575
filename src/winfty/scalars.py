"""Exact scalar arithmetic: sparse multivariate polynomials over the rationals.

A scalar is a polynomial in a fixed, ordered set of formal parameters with
Fraction coefficients, stored as a sparse map from exponent tuples to
coefficients.  Zero coefficients are never stored, so two equal polynomials
have identical internal state and compare (and hash) identically.

The parameter set is fixed per :class:`Ring`; mixing scalars from different
rings is an error.  Division is restricted to division by nonzero rationals
plus :meth:`Scalar.exact_div`, which divides by another polynomial and raises
unless the quotient is exact (the scalar ring stays a polynomial ring).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Rat = Union[int, Fraction]


class Ring:
    """An ordered set of polynomial parameters, e.g. ("alpha", "kbar", "p1")."""

    def __init__(self, symbols: Sequence[str] = ()):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in {symbols!r}")
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}
        self._zero_exp = (0,) * len(symbols)

    def __repr__(self):
        return f"Ring{self.symbols!r}"

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    @property
    def nvars(self) -> int:
        return len(self.symbols)

    def const(self, value: Rat) -> "Scalar":
        c = Fraction(value)
        if c == 0:
            return Scalar(self, {})
        return Scalar(self, {self._zero_exp: c})

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, {})

    @property
    def one(self) -> "Scalar":
        return self.const(1)

    def sym(self, name: str) -> "Scalar":
        if name not in self._index:
            raise KeyError(f"unknown symbol {name!r} (ring has {self.symbols})")
        exp = [0] * self.nvars
        exp[self._index[name]] = 1
        return Scalar(self, {tuple(exp): Fraction(1)})

    def coerce(self, value: Union["Scalar", Rat]) -> "Scalar":
        if isinstance(value, Scalar):
            if value.ring != self:
                raise ValueError("scalar belongs to a different ring")
            return value
        return self.const(value)


class Scalar:
    """A canonical sparse polynomial; immutable once constructed."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: Dict[Exponent, Fraction]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._hash = None

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(e == self.ring._zero_exp for e in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return self.terms[self.ring._zero_exp]

    def degree_in(self, name: str) -> int:
        i = self.ring._index[name]
        return max((e[i] for e in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise ValueError("scalars from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Scalar(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return Scalar(self.ring, out)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.ring.zero
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Scalar(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational only."""
        if isinstance(other, Scalar):
            if not other.is_rational():
                raise ValueError("polynomial division unsupported; use exact_div")
            other = other.as_fraction()
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division of scalar by zero")
        return Scalar(self.ring, {e: c / q for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers unsupported")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, divisor: "Scalar") -> "Scalar":
        """Divide by ``divisor``, raising ValueError unless exact.

        Single-divisor multivariate division in lex order; when self lies in
        the ideal (divisor) the remainder is provably zero, so exactness and
        divisibility coincide.
        """
        divisor = self.ring.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("exact_div by zero")
        if divisor.is_rational():
            return self / divisor.as_fraction()
        lead = max(divisor.terms)
        lead_c = divisor.terms[lead]
        rem = dict(self.terms)
        quot: Dict[Exponent, Fraction] = {}
        while rem:
            e = max(rem)
            c = rem[e]
            qe = tuple(a - b for a, b in zip(e, lead))
            if any(x < 0 for x in qe):
                raise ValueError(f"not divisible: {self} by {divisor}")
            qc = c / lead_c
            quot[qe] = quot.get(qe, Fraction(0)) + qc
            for de, dc in divisor.terms.items():
                te = tuple(a + b for a, b in zip(qe, de))
                nc = rem.get(te, Fraction(0)) - qc * dc
                if nc == 0:
                    rem.pop(te, None)
                else:
                    rem[te] = nc
        return Scalar(self.ring, quot)

    # -- substitution -----------------------------------------------------

    def substitute(self, mapping: Mapping[str, Union["Scalar", Rat]]) -> "Scalar":
        """Substitute parameters by scalars/rationals, expanding exactly."""
        values = {self.ring._index[k]: self.ring.coerce(v) for k, v in mapping.items()}
        out = self.ring.zero
        for e, c in self.terms.items():
            term = self.ring.const(c)
            for i, p in enumerate(e):
                if p == 0:
                    continue
                base = values.get(i)
                if base is None:
                    mono = [0] * self.ring.nvars
                    mono[i] = p
                    term = term * Scalar(self.ring, {tuple(mono): Fraction(1)})
                else:
                    term = term * base ** p
            out = out + term
        return out

    def shift(self, name: str, delta: Union["Scalar", Rat]) -> "Scalar":
        """Substitute name -> name + delta."""
        return self.substitute({name: self.ring.sym(name) + self.ring.coerce(delta)})

    def coeff_of(self, name: str, power: int) -> "Scalar":
        """Collect the coefficient of name**power (a scalar free of ``name``)."""
        i = self.ring._index[name]
        out: Dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] != power:
                continue
            e2 = list(e)
            e2[i] = 0
            out[tuple(e2)] = out.get(tuple(e2), Fraction(0)) + c
        return Scalar(self.ring, out)

    # -- comparison / display --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        # A rational constant equals its Fraction, so it must hash like one.
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self.as_fraction())
            else:
                self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for s, p in zip(self.ring.symbols, e):
                if p == 1:
                    factors.append(s)
                elif p > 1:
                    factors.append(f"{s}^{p}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Scalar({self})"


# -- combinatorial helpers -------------------------------------------------


def falling(a: Union[Scalar, Rat], j: int):
    """a(a-1)...(a-j+1); the empty product 1 when j = 0."""
    if j < 0:
        raise ValueError("falling factorial needs j >= 0")
    if isinstance(a, Scalar):
        out = a.ring.one
        for m in range(j):
            out = out * (a - m)
        return out
    a = Fraction(a)
    out = Fraction(1)
    for m in range(j):
        out *= a - m
    return out


def rising(a: Union[Scalar, Rat], j: int):
    """a(a+1)...(a+j-1); the empty product 1 when j = 0."""
    if j < 0:
        raise ValueError("rising factorial needs j >= 0")
    if isinstance(a, Scalar):
        out = a.ring.one
        for m in range(j):
            out = out * (a + m)
        return out
    a = Fraction(a)
    out = Fraction(1)
    for m in range(j):
        out *= a + m
    return out


def binom(a: Union[Scalar, Rat], j: int):
    """Generalized binomial a(a-1)...(a-j+1)/j! for arbitrary scalar a."""
    if j < 0:
        raise ValueError("binomial needs j >= 0")
    return falling(a, j) / math.factorial(j)
