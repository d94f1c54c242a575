"""The Weyl-type algebras W(Gamma,n), W(Gamma,n)^(1) and the extension of W(Gamma,1).

Elements are sparse linear combinations of monomials t^gamma D^mu (power
basis) or t^gamma [D]_mu (falling-factorial basis), with exact polynomial
coefficients and, for the centrally extended one-variable algebra, a central
coordinate.  The associative product expands

    (t^a D^mu)(t^b D^nu) = sum_lambda C(mu,lambda) b^lambda t^(a+b) D^(mu+nu-lambda)

Every grade coordinate is in the lattice module's one form: an int when it
is integral, a Fraction with denominator > 1 otherwise.  A grade enters
once, through Weyl.coords, and is keyed by the lattice's ambient form of its
coordinates; the kernel builds that form, so integral keys hash as ints.

Kernel: a product or bracket runs in integer arithmetic, as the Scalar
kernel does (after Monagan & Pearce, "Sparse polynomial multiplication and
division in Maple 14", 2009), one pair of grade blocks at a time.  Summed
over the terms of one grade, (1.2) reads

    t^a P(D) . t^b Q(D) = t^(a+b) P(D+b) Q(D),

so the Taylor shift P(D+b) of the left factor's block at grade a depends on
the right factor only through its grade b: it is formed once per pair of
blocks and multiplied into every term of the right block.  Each factor's
coefficients are read from their stored integer numerators and
denominators and put over one lcm d of those denominators, and each grade
coordinate is cleared to an integer B_i over Q_i, the lcm of the i-th grade
denominators of both factors.  With M_i the largest mu_i of either factor,
lambda_i <= M_i, so b_i^lambda_i scaled by Q_i^M_i is the integer
B_i^lambda_i Q_i^(M_i - lambda_i), and the shift has integer coefficients.
The kernel accumulates ints per output grade, mu and coefficient exponent,
and builds each nonzero output coefficient over d_x d_y prod_i Q_i^M_i with
one gcd; on integral grades Q_i = 1, that scale is 1 and the int grades are
their own cleared form.  The lambda_i > 0 terms vanish when b_i = 0 and are
never formed.  The Lie bracket is the commutator, accumulated directly: the
lambda = 0 terms of xy and yx are equal (the coefficient ring is
commutative), so they are left out of both shifts rather than built and
cancelled.

The falling basis is notation for elements of the same algebra, so every
operation takes either basis.  Products, brackets and the cocycle read the
power form of their inputs, and products and brackets come out in the power
basis.  Every sum, + and - as well as the parser's, is a left-to-right fold
through _Sum, which holds the one basis rule of a sum stated in FORMAT.md,
"Semantics".

An independent oracle realizes elements as concrete operators on the group
algebra (D_i scales t^g by g_i), which the tests play against the product
formula; it shares no code with the product kernel.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .lattice import Lattice, _as_vector, _canonical, _integers, inner
from .printer import format_element
from .report import VerificationReport
from .scalars import (Key, Rat, Ring, Scalar, _check_exponents, _normal, binom, falling,
                      rational_text)

Gamma = Tuple[Rat, ...]  # canonical: int coordinates when integral
Mu = Tuple[int, ...]
TermKey = Tuple[Gamma, Mu]

_add = operator.add

POWER = "power"
FALLING = "falling"

FULL = "full"
W1 = "w1"
HAT = "hat"


class SubalgebraError(ValueError):
    pass


@lru_cache(maxsize=None)
def _stirling2(m: int, j: int) -> int:
    """S(m,j): D^m = sum_j S(m,j) [D]_j."""
    if m == j:
        return 1
    if j <= 0 or j > m:
        return 0
    return j * _stirling2(m - 1, j) + _stirling2(m - 1, j - 1)


_X = Ring(("x",)).sym("x")


@lru_cache(maxsize=None)
def _falling_coeffs(m: int) -> Tuple[int, ...]:
    """Coefficients c with x(x-1)...(x-m+1) = sum_j c[j] x^j."""
    nums = falling(_X, m).nums  # a monic integer polynomial, over 1
    # on a one-symbol ring a monomial's key is its exponent
    return tuple(nums.get(j, 0) for j in range(m + 1))


class Weyl:
    """Construction context: dimension n, coefficient ring, lattice, flavor.

    ``subalgebra`` is one of "full" (all of W(Gamma,n)), "w1" (monomials with
    |mu| >= 1 only) or "hat" (n = 1, with the one-dimensional central
    extension; brackets pick up the 2-cocycle).  Grades enter through ``coords``.
    """

    def __init__(self, n: int = 1, ring: Optional[Ring] = None,
                 lattice: Optional[Lattice] = None, subalgebra: str = FULL):
        if subalgebra not in (FULL, W1, HAT):
            raise ValueError(f"unknown subalgebra flavor {subalgebra!r}")
        if subalgebra == HAT and n != 1:
            raise SubalgebraError("the central extension exists only for n = 1")
        self.n = n
        self.ring = ring if ring is not None else Ring()
        self.lattice = lattice if lattice is not None else Lattice.standard(n)
        if self.lattice.dim != n:
            raise ValueError("lattice dimension does not match n")
        self.subalgebra = subalgebra

    def __repr__(self):
        return f"Weyl(n={self.n}, subalgebra={self.subalgebra!r})"

    def __eq__(self, other):
        # the same algebra: elements of one may meet elements of the other
        if not isinstance(other, Weyl):
            return NotImplemented
        return (self.n == other.n and self.ring == other.ring
                and self.lattice == other.lattice and self.subalgebra == other.subalgebra)

    def __hash__(self):
        return hash((self.n, self.ring, self.lattice, self.subalgebra))

    # -- constructors -----------------------------------------------------

    def zero(self) -> "WeylElement":
        return WeylElement(self, {})

    def monomial(self, gamma, mu: Sequence[int], coeff: Union[Scalar, Rat] = 1,
                 basis: str = POWER) -> "WeylElement":
        return WeylElement(self, {(tuple(gamma), tuple(mu)): coeff}, basis=basis)

    def coords(self, gamma) -> Tuple[int, ...]:
        """The lattice coordinates of the grade gamma (n ints and Fractions),
        the one way a grade enters; ValueError if gamma is not in the lattice."""
        coords = self.lattice.membership(gamma)
        if coords is None:
            text = ", ".join(rational_text(g.numerator, g.denominator) for g in gamma)
            raise ValueError(f"grade ({text}) is not in the lattice")
        return coords

    def check_mu(self, mu: Sequence[int]) -> None:
        """Raise SubalgebraError if monomials t^gamma D^mu lie outside the flavor."""
        if self.subalgebra in (W1, HAT) and sum(mu) == 0:
            raise SubalgebraError("|mu| = 0 monomials are not in W^(1)")

    def one(self) -> "WeylElement":
        return self.monomial((0,) * self.n, (0,) * self.n)

    def tD(self, gamma, i: int = 0) -> "WeylElement":
        """t^gamma D_i, for 0 <= i < n."""
        if not 0 <= i < self.n:
            raise ValueError(f"D index {i} is outside 0..{self.n - 1}")
        mu = [0] * self.n
        mu[i] = 1
        return self.monomial(gamma, mu)

    def central(self, coeff: Union[Scalar, Rat] = 1) -> "WeylElement":
        return WeylElement(self, {}, central=coeff)

    def from_direction(self, beta, d: Sequence) -> "WeylElement":
        """The degree-one element t^beta d = sum_i d_i t^beta D_i; the
        direction d is a rational vector."""
        d = _as_vector(d)
        if len(d) != self.n:
            raise ValueError("direction has wrong dimension")
        beta = tuple(beta)
        return WeylElement(self, {(beta, tuple(int(j == i) for j in range(self.n))): c
                                  for i, c in enumerate(d)})


class WeylElement:
    """Canonical sparse element; immutable by convention.

    The constructor checks every term (gamma, mu) -> c: gamma is admitted
    once, through Weyl.coords, and keyed by the lattice's canonical ambient
    form of its coordinates; mu is n nonnegative integers allowed by the
    flavor, and c is coerced into the ring; zero coefficients are dropped.
    A nonzero central coordinate needs the hat algebra.
    """

    __slots__ = ("weyl", "terms", "basis", "central")

    def __init__(self, weyl: Weyl, terms: Dict[TermKey, Union[Scalar, Rat]],
                 basis: str = POWER, central: Union[Scalar, Rat, None] = None):
        if basis not in (POWER, FALLING):
            raise ValueError(f"unknown basis {basis!r}")
        coerce, ambient = weyl.ring.coerce, weyl.lattice.ambient
        checked: Dict[TermKey, Scalar] = {}
        for (gamma, mu), c in terms.items():
            gamma, mu = ambient(weyl.coords(gamma)), _integers(mu)
            if len(mu) != weyl.n:
                raise ValueError("monomial exponents have wrong dimension")
            if any(m < 0 for m in mu):
                raise ValueError("D-exponents must be nonnegative")
            weyl.check_mu(mu)
            c = coerce(c)
            if c:
                checked[(gamma, mu)] = c
        central = weyl.ring.zero if central is None else coerce(central)
        if central and weyl.subalgebra != HAT:
            raise SubalgebraError("central element exists only in the hat algebra")
        self.weyl = weyl
        self.terms = checked
        self.basis = basis
        self.central = central

    @classmethod
    def _trusted(cls, weyl: Weyl, terms: Dict[TermKey, Scalar], basis: str = POWER,
                 central: Optional[Scalar] = None) -> "WeylElement":
        """Wrap ``terms`` as is, without a copy: every grade canonical, every
        coefficient nonzero, ``basis`` valid, and nobody changes the map
        afterwards."""
        out = object.__new__(cls)
        out.weyl = weyl
        out.terms = terms
        out.basis = basis
        out.central = central if central is not None else weyl.ring.zero
        return out

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "WeylElement") -> "WeylElement":
        acc = _Sum(self)
        acc.add(other)
        return acc.element()

    def __neg__(self) -> "WeylElement":
        return WeylElement._trusted(self.weyl, {k: -c for k, c in self.terms.items()},
                                    self.basis, -self.central)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        acc = _Sum(self)
        acc.add(other, neg=True)
        return acc.element()

    def scale(self, c: Union[Scalar, Rat]) -> "WeylElement":
        c = self.weyl.ring.coerce(c)
        if not c:
            return WeylElement._trusted(self.weyl, {}, self.basis)
        # the ring has no zero divisors, so every product stays nonzero
        return WeylElement._trusted(self.weyl, {k: v * c for k, v in self.terms.items()},
                                    self.basis, self.central * c)

    def is_zero(self) -> bool:
        return not self.terms and self.central.is_zero()

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.basis != other.basis:
            return self.to_power() == other.to_power()
        return self.terms == other.terms and self.central == other.central

    def __hash__(self):
        # Hash the power-basis form, since equality crosses bases.
        x = self.to_power()
        return hash((frozenset(x.terms.items()), x.central))

    def __repr__(self):
        return f"<{format_element(self)}>"

    # -- basis conversion -------------------------------------------------

    def to_power(self) -> "WeylElement":
        if self.basis == POWER:
            return self
        return self._convert(POWER, _falling_coeffs)

    def to_falling(self) -> "WeylElement":
        if self.basis == FALLING:
            return self
        return self._convert(FALLING, lambda m: [_stirling2(m, j) for j in range(m + 1)])

    def _convert(self, basis: str, row) -> "WeylElement":
        """Re-expand each term into ``basis``, coordinate by coordinate: the
        exponent m becomes sum_j row(m)[j] times basis exponent j."""
        out: Dict[TermKey, Scalar] = {}
        for (g, mu), c in self.terms.items():
            partial = {(): 1}
            for m in mu:
                coeffs = row(m)
                nxt: Dict[Tuple[int, ...], int] = {}
                for stem, sc in partial.items():
                    for j, fc in enumerate(coeffs):
                        if fc:
                            key = stem + (j,)
                            nxt[key] = nxt.get(key, 0) + sc * fc
                partial = nxt
            for nu, f in partial.items():
                key = (g, nu)
                out[key] = out.get(key, self.weyl.ring.zero) + c * f
        return WeylElement._trusted(self.weyl, {k: c for k, c in out.items() if c},
                                    basis, self.central)


def _check_compat(a: Weyl, b: Weyl) -> None:
    if a is not b and a != b:
        raise ValueError("elements of incompatible algebras")


class _Sum:
    """A sum folded left to right, starting from ``first``, into one term map,
    its basis and its center.  This is the one place the basis rule of a sum
    is written (FORMAT.md, "Semantics"): a partial sum with no D-terms takes
    the summand's basis, D-terms on both sides in different bases give the
    power basis, and otherwise the partial sum keeps its basis.  ``add`` is the
    one way in, for every summand, the parser's monomials included (a zero one
    as an empty element in its basis).  ``element()`` hands over the map, after
    which the sum is not used again.
    """

    __slots__ = ("weyl", "terms", "basis", "central")

    def __init__(self, first: WeylElement):
        self.weyl = first.weyl
        self.terms: Dict[TermKey, Scalar] = dict(first.terms)
        self.basis = first.basis
        self.central = first.central

    def _adopt(self, basis: str, has_d: bool) -> bool:
        """Settle the basis with a summand in ``basis``, which is not the
        sum's; True when the summand must be converted to the power basis
        first."""
        if not _has_d(self.terms):
            self.basis = basis
        elif has_d:
            if self.basis == POWER:
                return True
            self.terms = self.element().to_power().terms
            self.basis = POWER
        return False

    def add(self, x: WeylElement, neg: bool = False) -> None:
        """Add x, or -x when ``neg``."""
        _check_compat(self.weyl, x.weyl)
        # a summand in the sum's own basis leaves the basis as it is
        if x.basis != self.basis and self._adopt(x.basis, _has_d(x.terms)):
            x = x.to_power()
        if x.central:
            self.central = self.central - x.central if neg else self.central + x.central
        for k, c in x.terms.items():
            self._put(k, -c if neg else c)

    def _put(self, key: TermKey, c: Scalar) -> None:
        terms = self.terms
        size = len(terms)
        old = terms.setdefault(key, c)  # one hash of the key when new
        if len(terms) > size:
            return
        total = old + c
        if total:
            terms[key] = total
        else:
            del terms[key]

    def element(self) -> WeylElement:
        return WeylElement._trusted(self.weyl, self.terms, self.basis, self.central)


def _has_d(terms: Dict[TermKey, Scalar]) -> bool:
    return any(any(mu) for _g, mu in terms)


# -- products and brackets -------------------------------------------------


Block = List[Tuple[Mu, List[Tuple[Key, int]]]]
Blocks = Dict[Tuple[int, ...], Block]


def _cleared(x: WeylElement, grade_den: Sequence[int]) -> Tuple[int, Blocks]:
    """x over one coefficient denominator d, the lcm of the coefficients'
    stored denominators, as grade blocks: the terms grouped by their grade
    times ``grade_den`` (integers), each term its mu and its coefficient's
    numerators times d over its own denominator (integers)."""
    # a list, not a generator (see Scalar.__init__)
    d = math.lcm(*[s.den for s in x.terms.values()])
    integral = max(grade_den) == 1  # every grade is ints
    blocks: Blocks = {}
    for (g, mu), s in x.terms.items():
        m = d // s.den
        if not integral:
            g = tuple(gi.numerator * (q // gi.denominator) for gi, q in zip(g, grade_den))
        blocks.setdefault(g, []).append((mu, [(e, c * m) for e, c in s.nums.items()]))
    return d, blocks


RawTerms = Dict[Tuple[int, ...], Dict[Mu, Dict[Key, int]]]


def _shift(block: Block, b: Sequence[int], q_powers, sign: int,
           skip_lambda0: bool) -> Dict[Tuple[Mu, Key], int]:
    """sign * P(D + b) Q^M for the block P(D) = sum c_mu D^mu: the map from
    (mu - lambda, ring monomial e) to the integer coefficient of
    x^e D^(mu - lambda), summed over the block's terms.  Per coordinate the
    entry of lambda_i is C(mu_i, lambda_i) B_i^lambda_i Q_i^(M_i - lambda_i),
    an integer: b_i^lambda_i = B_i^lambda_i / Q_i^lambda_i scaled by
    Q_i^M_i.  The grade b is cleared to B, and q_powers[i] lists Q_i^0, ...,
    Q_i^M_i.  A coordinate with B_i = 0 has only its lambda_i = 0 entry.

    With ``skip_lambda0`` the lambda = 0 terms are left out.
    """
    out: Dict[Tuple[Mu, Key], int] = {}
    for mu, cx in block:
        combos = [((), sign)]
        for m, bi, qp in zip(mu, b, q_powers):
            top = len(qp) - 1
            row = [(m, qp[top])]
            if bi:
                power = 1
                for li in range(1, m + 1):
                    power *= bi
                    row.append((m - li, math.comb(m, li) * power * qp[top - li]))
            combos = [(stem + (ei,), f * fi) for stem, f in combos for ei, fi in row]
        if skip_lambda0:
            del combos[0]
        for kappa, f in combos:
            for e, c in cx:
                key = (kappa, e)
                out[key] = out.get(key, 0) + c * f
    return out


def _accumulate(acc: RawTerms, xs: Blocks, ys: Blocks, q_powers,
                sign: int, skip_lambda0: bool):
    """Add sign * x*y, over the common denominator, into ``acc``: a map from
    cleared grade to mu to integer ring coefficients.

    Per pair of grade blocks, t^a P(D) . t^b Q(D) = t^(a+b) P(D+b) Q(D): the
    x-block at grade a is shifted by b once (``_shift``), and each term of
    the y-block at b multiplies that shift, at exponent (mu - lambda) + nu.
    With ``skip_lambda0`` the lambda = 0 terms t^(a+b) D^(mu+nu) are left out.
    """
    for a, block in xs.items():
        for b, ys_b in ys.items():
            shifted = _shift(block, b, q_powers, sign, skip_lambda0)
            by_mu = acc.setdefault(tuple(map(_add, a, b)), {})
            for nu, cy in ys_b:
                for (kappa, e1), c1 in shifted.items():
                    raw = by_mu.setdefault(tuple(map(_add, kappa, nu)), {})
                    for e2, c2 in cy:
                        e = e1 + e2
                        raw[e] = raw.get(e, 0) + c1 * c2


def _element(weyl: Weyl, acc: RawTerms, grade_den: Sequence[int], d: int) -> WeylElement:
    """The element of ``acc`` with grades over ``grade_den`` and coefficients over d."""
    ring = weyl.ring
    integral = max(grade_den) == 1  # g is the canonical grade
    terms: Dict[TermKey, Scalar] = {}
    for g, by_mu in acc.items():
        gamma = g if integral else tuple(map(_canonical, map(Fraction, g, grade_den)))
        for mu, raw in by_mu.items():
            if 0 in raw.values():
                raw = {e: v for e, v in raw.items() if v}
            if raw:
                _check_exponents(ring, raw)
                terms[(gamma, mu)] = _normal(ring, d, raw)
    return WeylElement._trusted(weyl, terms, POWER)


def _product(x: WeylElement, y: WeylElement, commutator: bool) -> WeylElement:
    """x*y, or x*y - y*x without its lambda = 0 terms (see the module notes),
    of the terms alone, in the power basis: central coordinates are not read."""
    _check_compat(x.weyl, y.weyl)
    x, y = x.to_power(), y.to_power()
    keys = list(x.terms) + list(y.terms)
    grade_den = [math.lcm(*[g[i].denominator for g, _mu in keys]) for i in range(x.weyl.n)]
    top = [max((mu[i] for _g, mu in keys), default=0) for i in range(x.weyl.n)]
    q_powers = [[q ** j for j in range(m + 1)] for q, m in zip(grade_den, top)]
    dx, xs = _cleared(x, grade_den)
    dy, ys = _cleared(y, grade_den)
    acc: RawTerms = {}
    _accumulate(acc, xs, ys, q_powers, 1, commutator)
    if commutator:
        _accumulate(acc, ys, xs, q_powers, -1, True)
    return _element(x.weyl, acc, grade_den, dx * dy * math.prod(qp[-1] for qp in q_powers))


def mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Associative product (1.2), bilinear over the coefficient ring."""
    if x.central or y.central:
        raise SubalgebraError("the associative product is not defined on the center")
    return _product(x, y, False)


def bracket(x: WeylElement, y: WeylElement) -> WeylElement:
    """Lie bracket mul(x,y) - mul(y,x); in the hat algebra plus psi(x,y) C.

    The commutator is accumulated directly, skipping the lambda = 0 terms of
    both products, which cancel.  The center brackets to zero, so central
    coordinates are not read.
    """
    if x.weyl.subalgebra != HAT:
        return _product(x, y, True)
    return WeylElement._trusted(x.weyl, _product(x, y, True).terms, POWER, cocycle(x, y))


@lru_cache(maxsize=None)
def _psi(a: Rat, m: int, n: int) -> Fraction:
    """psi(t^a D^m, t^-a D^n): (1.3) summed over D^m = sum_j S(m,j) [D]_j."""
    total = Fraction(0)
    for j in range(m + 1):
        for k in range(n + 1):
            s = _stirling2(m, j) * _stirling2(n, k)
            if s:
                total += ((-1) ** j * s * math.factorial(j) * math.factorial(k)
                          * binom(a + j, j + k + 1))
    return total


def cocycle(x: WeylElement, y: WeylElement) -> Scalar:
    """The 2-cocycle psi of the one-variable central extension (1.3).

    psi(t^a [D]_mu, t^b [D]_nu) = delta_{a,-b} (-1)^mu mu! nu! C(a+mu, mu+nu+1),
    extended bilinearly.  It runs in the power basis, where D^m =
    sum_j S(m,j) [D]_j gives

        psi(t^a D^m, t^-a D^n) = sum_{j,k} S(m,j) S(n,k) (-1)^j j! k! C(a+j, j+k+1),

    one rational per (a, m, n), cached.  Falling-basis inputs are converted.
    """
    if x.weyl.n != 1:
        raise SubalgebraError("the cocycle is defined only for n = 1")
    x, y = x.to_power(), y.to_power()
    _check_compat(x.weyl, y.weyl)
    partners: Dict[Rat, List[Tuple[int, Scalar]]] = {}
    for ((b,), (n,)), cy in y.terms.items():
        partners.setdefault(-b, []).append((n, cy))
    out = x.weyl.ring.zero
    for ((a,), (m,)), cx in x.terms.items():
        for n, cy in partners.get(a, ()):
            f = _psi(a, m, n)
            if f:
                out = out + cx * cy * f
    return out


def operator_action(x: WeylElement, gamma) -> Dict[Gamma, Scalar]:
    """Apply x as a concrete operator to the basis vector t^gamma of F[Gamma].

    Built from first principles (D_i scales t^g by g_i, t^a shifts), with no
    reference to the product formula; serves as the oracle for mul.
    """
    return act_on_combination(x, {_as_vector(gamma): x.weyl.ring.one})


def act_on_combination(x: WeylElement, vec: Dict[Gamma, Scalar]) -> Dict[Gamma, Scalar]:
    """Apply x termwise to a formal combination of group-algebra basis vectors."""
    if any(len(g) != x.weyl.n for g in vec):
        raise ValueError("group-algebra vectors must have n coordinates")
    xp = x.to_power()
    ring = x.weyl.ring
    out: Dict[Gamma, Scalar] = {}
    for g, vc in vec.items():
        for (a, mu), c in xp.terms.items():
            f = 1  # an int, so integral grades stay in int arithmetic
            for gi, mi in zip(g, mu):
                f *= gi ** mi
            if f == 0:
                continue
            target = tuple(_canonical(p + q) for p, q in zip(g, a))
            out[target] = out.get(target, ring.zero) + vc * c * f
    return {g: c for g, c in out.items() if not c.is_zero()}


def degree_one_bracket(weyl: Weyl, beta, d: Sequence, gamma, d2: Sequence) -> WeylElement:
    """Closed form [t^beta d, t^gamma d'] = t^(beta+gamma)(<gamma,d>d' - <beta,d'>d),
    the directions d, d' rational vectors.  beta and gamma enter through
    Weyl.coords, so a grade outside the lattice raises ValueError."""
    beta, gamma = (weyl.lattice.ambient(weyl.coords(g)) for g in (beta, gamma))
    c1, c2 = inner(gamma, d), inner(beta, d2)
    combined = [c1 * b - c2 * a for a, b in zip(d, d2)]
    return weyl.from_direction(tuple(map(_add, beta, gamma)), combined)


# -- verifiers -------------------------------------------------------------


def verify_jacobi(x: WeylElement, y: WeylElement, z: WeylElement,
                  name: str = "jacobi") -> VerificationReport:
    """Residual [x,[y,z]] + [y,[z,x]] + [z,[x,y]]; pass iff exactly zero."""
    acc = _Sum(bracket(x, bracket(y, z)))
    acc.add(bracket(y, bracket(z, x)))
    acc.add(bracket(z, bracket(x, y)))
    res = acc.element()
    return VerificationReport(name, None if res.is_zero() else format_element(res))


def verify_cocycle_condition(x: WeylElement, y: WeylElement,
                             z: WeylElement) -> VerificationReport:
    """Residual psi([x,y],z) + psi([y,z],x) + psi([z,x],y); pass iff zero."""
    res = (cocycle(_product(x, y, True), z) + cocycle(_product(y, z, True), x)
           + cocycle(_product(z, x, True), y))
    return VerificationReport("cocycle-condition", None if res.is_zero() else str(res))
