"""Exact scalar arithmetic: sparse multivariate polynomials over the rationals.

A scalar is a polynomial in a fixed, ordered set of formal parameters with
Fraction coefficients, stored as a sparse map from exponent tuples to
coefficients.  Zero coefficients are never stored, so two equal polynomials
have identical internal state and compare (and hash) identically.

The parameter set is fixed per :class:`Ring`; mixing scalars from different
rings is an error, and so is a coefficient that is neither an int nor a
Fraction (a float would store its binary expansion).  Division is restricted
to division by nonzero rationals plus :meth:`Scalar.exact_div`, which divides
by another polynomial and raises unless the quotient is exact (the scalar
ring stays a polynomial ring).

Kernel: a product clears each factor to integer numerators over the lcm of
its denominators, accumulates plain ``int`` products per output exponent and
builds one Fraction per output term, so no gcd is taken per term pair (the
approach of Monagan & Pearce, "Sparse polynomial multiplication and division
in Maple 14", 2009).  A rational-constant factor scales term by term, and
a product of two one-term polynomials is one coefficient product and one
exponent sum.
:meth:`Scalar.substitute` computes each power of a substituted value once per
call and collects all terms into one map.  Results the kernel already knows
to be zero-free go through :meth:`Scalar._trusted`, which skips the zero
filter of the public constructor.

Text: :func:`rational_text` writes a rational from its integer numerator
and denominator, the text ``Fraction.__str__`` gives, and every printed
rational (here and in the printer) goes through it, so printing compares
and writes ``int``s only.  A scalar is immutable, so a ring builds its
``zero``, its ``one`` and one scalar per symbol (:meth:`Ring.sym`) once and
hands those out.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Rat = Union[int, Fraction]

_add = operator.add


class Ring:
    """An ordered set of polynomial parameters, e.g. ("alpha", "kbar", "p1")."""

    def __init__(self, symbols: Sequence[str] = ()):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in {symbols!r}")
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}
        self._zero_exp = (0,) * len(symbols)
        # scalars are immutable, so sym(), zero and one hand out these
        units = [tuple(int(j == i) for j in range(self.nvars)) for i in range(self.nvars)]
        self._syms = {s: Scalar._trusted(self, {e: Fraction(1)}) for s, e in zip(symbols, units)}
        self.zero = Scalar._trusted(self, {})
        self.one = Scalar._trusted(self, {self._zero_exp: Fraction(1)})

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
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"scalar constants must be int or Fraction, "
                            f"got {type(value).__name__} {value!r}")
        if value == 0:
            return self.zero
        return Scalar._trusted(self, {self._zero_exp: Fraction(value)})

    def sym(self, name: str) -> "Scalar":
        s = self._syms.get(name)
        if s is None:
            raise KeyError(f"unknown symbol {name!r} (ring has {self.symbols})")
        return s

    def coerce(self, value: Union["Scalar", Rat]) -> "Scalar":
        """The one rule that admits a value into the ring."""
        if isinstance(value, Scalar):
            if value.ring is not self and value.ring != self:
                raise ValueError("scalars from different rings")
            return value
        return self.const(value)


def rational_text(p: int, q: int) -> str:
    """The rational p/q in lowest terms with q > 0 as text: "p" when q is 1,
    else "p/q" (what str() of the Fraction gives)."""
    return str(p) if q == 1 else f"{p}/{q}"


def _cleared(terms: Dict[Exponent, Fraction]) -> Tuple[int, List[Tuple[Exponent, int]]]:
    """The lcm d of the denominators and the integer numerators c*d per term."""
    # a list, not a generator: a starred generator builds its argument tuple
    # by resizing, and CPython keeps the freed tuples on free lists that grow
    d = math.lcm(*[c.denominator for c in terms.values()])
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()]


class Scalar:
    """A canonical sparse polynomial; immutable once constructed."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Dict[Exponent, Fraction]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def _trusted(cls, ring: Ring, terms: Dict[Exponent, Fraction]) -> "Scalar":
        """Wrap ``terms`` as is: every value a nonzero Fraction, owned by the result."""
        out = object.__new__(cls)
        out.ring = ring
        out.terms = terms
        return out

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

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other, sign: int) -> "Scalar":
        """self + sign * other."""
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = self.ring.coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c if sign > 0 else -c
            else:
                s = s + c if sign > 0 else s - c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Scalar._trusted(self.ring, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def _scale(self, q: Rat) -> "Scalar":
        if not q:
            return self.ring.zero
        if q == 1:
            return self
        if q == -1:
            return -self
        return Scalar._trusted(self.ring, {e: c * q for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        other = self.ring.coerce(other)
        t1, t2 = self.terms, other.terms
        if not t1 or not t2:
            return self.ring.zero
        zero_exp = self.ring._zero_exp
        if len(t2) == 1 and zero_exp in t2:
            return self._scale(t2[zero_exp])
        if len(t1) == 1 and zero_exp in t1:
            return other._scale(t1[zero_exp])
        if len(t1) == 1 and len(t2) == 1:
            (e1, c1), = t1.items()
            (e2, c2), = t2.items()
            return Scalar._trusted(self.ring, {tuple(map(_add, e1, e2)): c1 * c2})
        d1, n1 = _cleared(t1)
        d2, n2 = _cleared(t2)
        acc: Dict[Exponent, int] = {}
        get = acc.get
        for e1, a in n1:
            for e2, b in n2:
                e = tuple(map(_add, e1, e2))
                acc[e] = get(e, 0) + a * b
        d = d1 * d2
        return Scalar._trusted(self.ring, {e: Fraction(n, d) for e, n in acc.items() if n})

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational only."""
        if isinstance(other, Scalar):
            if not other.is_rational():
                raise ValueError("polynomial division unsupported; use exact_div")
            other = other.as_fraction()
        elif not isinstance(other, (int, Fraction)):
            raise TypeError(f"scalars divide only by int or Fraction, "
                            f"got {type(other).__name__} {other!r}")
        if other == 0:
            raise ZeroDivisionError("division of scalar by zero")
        return self._scale(1 / Fraction(other))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers unsupported")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
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
            qe = tuple(a - b for a, b in zip(e, lead))
            if any(x < 0 for x in qe):
                raise ValueError(f"not divisible: {self} by {divisor}")
            # each step removes the current lex-largest remainder term, so
            # every quotient exponent is new and nonzero
            qc = rem[e] / lead_c
            quot[qe] = qc
            for de, dc in divisor.terms.items():
                te = tuple(map(_add, qe, de))
                nc = rem.get(te, 0) - qc * dc
                if nc:
                    rem[te] = nc
                else:
                    rem.pop(te, None)
        return Scalar._trusted(self.ring, quot)

    # -- substitution -----------------------------------------------------

    def substitute(self, mapping: Mapping[str, Union["Scalar", Rat]]) -> "Scalar":
        """Substitute parameters by scalars/rationals, expanding exactly."""
        ring = self.ring
        values = {ring._index[k]: ring.coerce(v) for k, v in mapping.items()}
        powers: Dict[Tuple[int, int], Scalar] = {}
        out: Dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            kept = list(e)
            factor = None
            for i, p in enumerate(e):
                if p and i in values:
                    kept[i] = 0
                    f = powers.get((i, p))
                    if f is None:
                        f = powers[(i, p)] = values[i] ** p
                    factor = f if factor is None else factor * f
            kept = tuple(kept)
            if factor is None:
                out[kept] = out.get(kept, 0) + c
                continue
            for fe, fc in factor.terms.items():
                k = tuple(map(_add, kept, fe))
                out[k] = out.get(k, 0) + c * fc
        return Scalar(ring, out)

    def shift(self, name: str, delta: Union["Scalar", Rat]) -> "Scalar":
        """Substitute name -> name + delta."""
        return self.substitute({name: self.ring.sym(name) + self.ring.coerce(delta)})

    def coeff_of(self, name: str, power: int) -> "Scalar":
        """Collect the coefficient of name**power (a scalar free of ``name``)."""
        i = self.ring._index[name]
        # distinct exponents with the same e[i] stay distinct once e[i] is zeroed
        return Scalar._trusted(self.ring, {e[:i] + (0,) + e[i + 1:]: c
                                           for e, c in self.terms.items() if e[i] == power})

    # -- comparison / display --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        # A rational constant equals its Fraction, so it must hash like one.
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            p, q = c.numerator, c.denominator
            factors = []
            for s, k in zip(self.ring.symbols, e):
                if k == 1:
                    factors.append(s)
                elif k > 1:
                    factors.append(f"{s}^{k}")
            if not factors:
                parts.append(rational_text(p, q))
            elif q == 1 and p == 1:
                parts.append("*".join(factors))
            elif q == 1 and p == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(rational_text(p, q) + "*" + "*".join(factors))
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
    if not isinstance(a, (int, Fraction)):
        # Fraction(a) would take a float's binary expansion and parse a string
        raise TypeError(f"falling factorials take an int, Fraction or Scalar, "
                        f"got {type(a).__name__} {a!r}")
    a = Fraction(a)
    # a - m = (p - m q)/q: multiply ints, build one Fraction
    p, q = a.numerator, a.denominator
    return Fraction(math.prod([p - m * q for m in range(j)]), q ** j)


def rising(a: Union[Scalar, Rat], j: int):
    """a(a+1)...(a+j-1) = [a+j-1]_j; the empty product 1 when j = 0."""
    if j < 0:
        raise ValueError("rising factorial needs j >= 0")
    return falling(a + (j - 1), j)


def binom(a: Union[Scalar, Rat], j: int):
    """Generalized binomial a(a-1)...(a-j+1)/j! for arbitrary scalar a."""
    if j < 0:
        raise ValueError("binomial needs j >= 0")
    return falling(a, j) / math.factorial(j)
