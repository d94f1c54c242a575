"""Exact scalar arithmetic: sparse multivariate polynomials over the rationals.

A scalar is a polynomial with rational coefficients in a fixed, ordered set
of formal parameters.  The parameter set is fixed per :class:`Ring`; mixing
scalars from different rings is an error, and so is a coefficient that is
neither an int nor a Fraction (a float would store its binary expansion).
Division is restricted to division by nonzero rationals plus
:meth:`Scalar.exact_div`, which divides by another polynomial and raises
unless the quotient is exact (the scalar ring stays a polynomial ring).

Representation: integer numerators over one denominator, keyed by packed
monomials (both after Monagan & Pearce, "Sparse polynomial multiplication
and division in Maple 14", 2009).  A scalar stores a positive ``int``
``den`` and a sparse map ``nums`` from monomial keys to nonzero ``int``
numerators, and stands for the sum of nums[e]/den x^e.  The form is
canonical: gcd(den, *nums) == 1, and zero is den == 1 with no numerators, so
two equal polynomials have identical fields and compare (and hash)
identically.

A monomial key is one non-negative int: the exponent of symbol i sits in a
field of ``_FIELD`` bits, the first symbol's field most significant, so the
int order of keys is the lex order of exponent tuples and the constant
monomial is key 0.  A product of monomials is one int add.  The top bit of
every field is a guard: an exponent is at most ``_EXP_MAX`` = 2^63 - 1, a
sum of two such exponents cannot carry into the next field, and a product
or substitution whose result sets a guard bit raises ValueError.  Tuples
exist only at the door: ``Scalar(ring, terms)`` packs {exponent tuple:
coefficient} (and rejects a key that is not a tuple of ``nvars`` ints in
[0, _EXP_MAX]), and ``terms`` is the unpacked {exponent tuple: Fraction}
view, built on each read, for code off the hot paths.

Kernel: every operation runs on ints and ends in :func:`_normal`, which
divides out the one gcd of the result's denominator and numerators (a result
over 1 is canonical as it stands and skips it); no Fraction is built per
term.  A sum puts both operands over the lcm of their denominators, and an
int or Fraction operand joins as the one-term map {0: numerator}.  A product
multiplies numerators pair by pair into one map over the product of the
denominators; a rational-constant factor scales the numerators and the
denominator.  :meth:`Scalar.substitute` builds the powers of a value in
increasing order, each from the one before, and puts all terms over the lcm
of their factors' denominators.  :meth:`Scalar.exact_div` divides numerators
by the divisor's leading numerator, and scales the remainder and quotient up
when that does not divide; a quotient monomial is a key difference, and the
guard bits find a negative exponent in one subtraction.

Text: :func:`rational_text` writes a rational from its integer numerator
and denominator, the text ``Fraction.__str__`` gives, and every printed
rational (here and in the printer) goes through it, so printing compares
and writes ``int``s of any length.  A scalar is immutable, so a ring builds
its ``zero``, its ``one`` and one scalar per symbol (:meth:`Ring.sym`) once
and hands those out.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Dict, Mapping, Sequence, Tuple, Union

Key = int  # a packed monomial
Rat = Union[int, Fraction]

_FIELD = 64  # bits per symbol in a monomial key
_EXP_MAX = (1 << (_FIELD - 1)) - 1  # the largest exponent; the top bit is the guard


def _check_rational(value, what: str) -> None:
    """The one rule that admits a rational: an int or a Fraction."""
    # a float would store its binary expansion, a string would be parsed
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be int or Fraction, "
                        f"got {type(value).__name__} {value!r}")


class Ring:
    """An ordered set of polynomial parameters, e.g. ("alpha", "kbar", "p1")."""

    def __init__(self, symbols: Sequence[str] = ()):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in {symbols!r}")
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}
        # the bit offset of each symbol's field, the first symbol's highest
        self._shifts = tuple(_FIELD * (self.nvars - 1 - i) for i in range(self.nvars))
        self._guard = sum(1 << (s + _FIELD - 1) for s in self._shifts)
        # scalars are immutable, so sym(), zero and one hand out these
        self._syms = {s: Scalar._trusted(self, 1, {1 << shift: 1})
                      for s, shift in zip(symbols, self._shifts)}
        self.zero = Scalar._trusted(self, 1, {})
        self.one = Scalar._trusted(self, 1, {0: 1})

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

    def _pack(self, exponents) -> Key:
        """The key of an exponent tuple: ``nvars`` ints in [0, _EXP_MAX]."""
        if (type(exponents) is not tuple or len(exponents) != self.nvars
                or not all(type(k) is int and 0 <= k <= _EXP_MAX for k in exponents)):
            raise ValueError(f"an exponent must be a tuple of {self.nvars} ints "
                             f"in [0, 2^63 - 1], got {exponents!r}")
        key = 0
        for k in exponents:
            key = key << _FIELD | k
        return key

    def _unpack(self, key: Key) -> Tuple[int, ...]:
        return tuple(key >> shift & _EXP_MAX for shift in self._shifts)

    def const(self, value: Rat) -> "Scalar":
        _check_rational(value, "scalar constants")
        if not value:
            return self.zero
        # an int or a Fraction is in lowest terms with a positive denominator
        return Scalar._trusted(self, value.denominator, {0: value.numerator})

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


def rational_text(p: int, q: int = 1) -> str:
    """The rational p/q in lowest terms with q > 0 as text: "p" when q is 1,
    else "p/q" (what str() of the Fraction gives), of any length."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
        return rational_text(Decimal(p), Decimal(q))


def _normal(ring: Ring, den: int, nums: Dict[Key, int]) -> "Scalar":
    """The scalar nums/den, for den > 0 and zero-free nums owned by the
    result: the one gcd of den and every numerator is divided out, in place."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            for e in nums:
                nums[e] //= g
    return Scalar._trusted(ring, den, nums)


def _check_exponents(ring: Ring, keys) -> None:
    """Raise ValueError if a product's result key has an exponent past
    _EXP_MAX, that is, sets a guard bit (one OR over all keys)."""
    guard = ring._guard
    if guard and reduce(or_, keys, 0) & guard:
        raise ValueError("an exponent exceeds 2^63 - 1")


class Scalar:
    """A canonical sparse polynomial nums/den; immutable once constructed."""

    __slots__ = ("ring", "den", "nums")

    def __init__(self, ring: Ring, terms: Mapping[Tuple[int, ...], Rat]):
        """The polynomial with coefficient terms[e] on x^e, each an int or a
        Fraction; zero coefficients are dropped."""
        for c in terms.values():
            _check_rational(c, "scalar coefficients")
        # a list, not a generator: a starred generator builds its argument
        # tuple by resizing, and CPython keeps the freed tuples on free lists
        # that grow
        den = math.lcm(*[c.denominator for c in terms.values()])
        # already canonical: for each prime p of den, the coefficient whose
        # denominator holds the most factors p keeps a numerator prime to p
        pack = ring._pack
        self.ring = ring
        self.den = den
        self.nums = {pack(e): c.numerator * (den // c.denominator)
                     for e, c in terms.items() if c}

    @classmethod
    def _trusted(cls, ring: Ring, den: int, nums: Dict[Key, int]) -> "Scalar":
        """Wrap ``den`` and ``nums`` as they are: already canonical, and the
        map owned by the result."""
        out = object.__new__(cls)
        out.ring = ring
        out.den = den
        out.nums = nums
        return out

    @property
    def terms(self) -> Dict[Tuple[int, ...], Fraction]:
        """The coefficients as Fractions on exponent tuples, in a new map on
        each read."""
        den, unpack = self.den, self.ring._unpack
        return {unpack(e): Fraction(c, den) for e, c in self.nums.items()}

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_rational(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def as_fraction(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return Fraction(self.nums[0], self.den)

    def degree_in(self, name: str) -> int:
        shift = self.ring._shifts[self.ring._index[name]]
        return max((e >> shift & _EXP_MAX for e in self.nums), default=0)

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other, sign: int) -> "Scalar":
        """self + sign * other."""
        if type(other) is Scalar:
            if other.ring is not self.ring:
                self.ring.coerce(other)
            d2, n2 = other.den, other.nums
        else:
            _check_rational(other, "scalar operands")
            # an int or a Fraction is in lowest terms with a positive denominator
            d2, n2 = other.denominator, {0: other.numerator} if other else {}
        n1 = self.nums
        if not n2:
            return self
        if not n1:
            if sign > 0 and type(other) is Scalar:
                return other
            return Scalar._trusted(self.ring, d2, {e: sign * c for e, c in n2.items()})
        d1 = self.den
        if d1 == d2:
            den, m2 = d1, sign
            out = dict(n1)
        else:
            g = math.gcd(d1, d2)
            m1, m2 = d2 // g, sign * (d1 // g)
            den = d1 * m1
            out = {e: c * m1 for e, c in n1.items()}
        for e, c in n2.items():
            s = out.get(e)
            if s is None:
                out[e] = c * m2
            else:
                s += c * m2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _normal(self.ring, den, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._trusted(self.ring, self.den, {e: -c for e, c in self.nums.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def _scale(self, p: int, q: int) -> "Scalar":
        """self * p/q, for ints p and q > 0."""
        if not p:
            return self.ring.zero
        if q == 1:
            if p == 1:
                return self
            if p == -1:
                return -self
        return _normal(self.ring, self.den * q, {e: c * p for e, c in self.nums.items()})

    def __mul__(self, other):
        if type(other) is not Scalar:
            _check_rational(other, "scalar factors")
            return self._scale(other.numerator, other.denominator)
        ring = self.ring
        if other.ring is not ring:
            ring.coerce(other)
        n1, n2 = self.nums, other.nums
        if not n1 or not n2:
            return ring.zero
        if len(n2) == 1 and 0 in n2:
            return self._scale(n2[0], other.den)
        if len(n1) == 1 and 0 in n1:
            return other._scale(n1[0], self.den)
        den = self.den * other.den
        if len(n1) == 1 and len(n2) == 1:
            (e1, c1), = n1.items()
            (e2, c2), = n2.items()
            acc = {e1 + e2: c1 * c2}
        else:
            acc: Dict[Key, int] = {}
            get = acc.get
            items2 = list(n2.items())
            for e1, a in n1.items():
                for e2, b in items2:
                    e = e1 + e2
                    acc[e] = get(e, 0) + a * b
            if 0 in acc.values():
                acc = {e: c for e, c in acc.items() if c}
        _check_exponents(ring, acc)
        return _normal(ring, den, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational only."""
        if isinstance(other, Scalar):
            if not other.is_rational():
                raise ValueError("polynomial division unsupported; use exact_div")
            other = other.as_fraction()
        else:
            _check_rational(other, "scalar divisors")
        p, q = other.numerator, other.denominator
        if not p:
            raise ZeroDivisionError("division of scalar by zero")
        return self._scale(q, p) if p > 0 else self._scale(-q, -p)

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
        ring = self.ring
        divisor = ring.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("exact_div by zero")
        if divisor.is_rational():
            return self / divisor.as_fraction()
        dnums = divisor.nums
        lead = max(dnums)
        lead_c = dnums[lead]
        guard = ring._guard
        # scale * self.nums == quot * dnums + rem throughout
        rem = dict(self.nums)
        quot: Dict[Key, int] = {}
        scale = 1
        while rem:
            e = max(rem)
            # a field of (e | guard) - lead keeps its guard bit exactly when
            # that exponent of e is at least lead's: no field borrows.  A
            # remainder exponent past _EXP_MAX (its guard bit set) leaves the
            # Newton polytope of self, so self is not divisible either.
            qe = (e | guard) - lead
            if e & guard or qe & guard != guard:
                raise ValueError(f"not divisible: {self} by {divisor}")
            qe ^= guard
            c = rem[e]
            if c % lead_c:
                f = abs(lead_c) // math.gcd(c, lead_c)
                scale *= f
                rem = {k: v * f for k, v in rem.items()}
                quot = {k: v * f for k, v in quot.items()}
                c *= f
            # each step removes the current lex-largest remainder term, so
            # every quotient exponent is new and nonzero
            qc = c // lead_c
            quot[qe] = qc
            for de, dc in dnums.items():
                te = qe + de
                nc = rem.get(te, 0) - qc * dc
                if nc:
                    rem[te] = nc
                else:
                    rem.pop(te, None)
        # (nums/den) / (dnums/dden) = quot dden / (scale den)
        dden = divisor.den
        return _normal(ring, self.den * scale, {e: c * dden for e, c in quot.items()})

    # -- substitution -----------------------------------------------------

    def substitute(self, mapping: Mapping[str, Union["Scalar", Rat]]) -> "Scalar":
        """Substitute parameters by scalars/rationals, expanding exactly."""
        ring = self.ring
        values = {ring._index[k]: ring.coerce(v) for k, v in mapping.items()}
        # in symbol order, the order the factors of a term are multiplied in
        fields = [(i, ring._shifts[i], values[i]) for i in sorted(values)]
        # the powers each term reads, in increasing order, each the one
        # before times v^gap: a gap of 1 is one product
        powers: Dict[Tuple[int, int], Scalar] = {}
        for i, shift, v in fields:
            last, f = 0, None
            for p in sorted({e >> shift & _EXP_MAX for e in self.nums} - {0}):
                step = v if p - last == 1 else v ** (p - last)
                f = powers[(i, p)] = step if f is None else f * step
                last = p
        parts = []
        for e, c in self.nums.items():
            kept = e
            factor = None
            for i, shift, _v in fields:
                p = e >> shift & _EXP_MAX
                if p:
                    kept -= p << shift
                    f = powers[(i, p)]
                    factor = f if factor is None else factor * f
            parts.append((kept, c, factor))
        # every term over den times the lcm d of its factors' denominators
        d = math.lcm(*[f.den for _k, _c, f in parts if f is not None])
        out: Dict[Key, int] = {}
        for kept, c, f in parts:
            if f is None:
                out[kept] = out.get(kept, 0) + c * d
                continue
            c *= d // f.den
            for fe, fc in f.nums.items():
                k = kept + fe
                out[k] = out.get(k, 0) + c * fc
        out = {k: c for k, c in out.items() if c}
        _check_exponents(ring, out)
        return _normal(ring, self.den * d, out)

    def shift(self, name: str, delta: Union["Scalar", Rat]) -> "Scalar":
        """Substitute name -> name + delta."""
        return self.substitute({name: self.ring.sym(name) + self.ring.coerce(delta)})

    def coeff_of(self, name: str, power: int) -> "Scalar":
        """Collect the coefficient of name**power (a scalar free of ``name``)."""
        shift = self.ring._shifts[self.ring._index[name]]
        top = power << shift
        # distinct keys with the same field stay distinct once it is cleared
        return _normal(self.ring, self.den, {e - top: c for e, c in self.nums.items()
                                             if e >> shift & _EXP_MAX == power})

    # -- comparison / display --------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.const(other)
        return (self.den == other.den and self.nums == other.nums
                and self.ring == other.ring)

    def __hash__(self):
        # A rational constant equals its Fraction, so it must hash like one.
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.den, frozenset(self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    def __str__(self):
        if not self.nums:
            return "0"
        den = self.den
        fields = tuple(zip(self.ring.symbols, self.ring._shifts))
        parts = []
        for e in sorted(self.nums, reverse=True):
            c = self.nums[e]
            g = math.gcd(c, den)
            p, q = c // g, den // g
            factors = []
            if e:
                for s, shift in fields:
                    k = e >> shift & _EXP_MAX
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
    _check_rational(a, "falling factorial arguments")
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
