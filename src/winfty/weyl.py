"""The Weyl-type algebras W(Gamma,n), W(Gamma,n)^(1) and the extension of W(Gamma,1).

Elements are sparse linear combinations of monomials t^gamma D^mu (power
basis) or t^gamma [D]_mu (falling-factorial basis), with exact polynomial
coefficients and, for the centrally extended one-variable algebra, a central
coordinate.  The associative product expands

    (t^a D^mu)(t^b D^nu) = sum_lambda C(mu,lambda) b^lambda t^(a+b) D^(mu+nu-lambda)

accumulating raw ring coefficients per output monomial and building one
Scalar for each at the end; the lambda_i > 0 factors vanish when b_i = 0 and
are never formed.  The Lie bracket is the commutator, accumulated directly:
the lambda = 0 terms of xy and yx are equal (the coefficient ring is
commutative), so they are skipped rather than built and cancelled.

An independent oracle realizes elements as concrete operators on the group
algebra (D_i scales t^g by g_i), which the tests play against the product
formula; it shares no code with the product kernel.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple, Union

from .lattice import Direction, Lattice, _as_vector, inner
from .report import VerificationReport
from .scalars import Exponent, Rat, Ring, Scalar, binom

Gamma = Tuple[Fraction, ...]
Mu = Tuple[int, ...]
TermKey = Tuple[Gamma, Mu]

POWER = "power"
FALLING = "falling"

FULL = "full"
W1 = "w1"
HAT = "hat"


class BasisMismatchError(ValueError):
    pass


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


@lru_cache(maxsize=None)
def _falling_coeffs(m: int) -> Tuple[int, ...]:
    """Coefficients c with x(x-1)...(x-m+1) = sum_j c[j] x^j."""
    coeffs = [1]
    for i in range(m):
        # multiply by (x - i)
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= c * i
        coeffs = nxt
    return tuple(coeffs)


def _as_gamma(g) -> Gamma:
    if isinstance(g, (int, Fraction)):
        return (Fraction(g),)
    return _as_vector(g)


class Weyl:
    """Construction context: dimension n, coefficient ring, lattice, flavor.

    ``subalgebra`` is one of "full" (all of W(Gamma,n)), "w1" (monomials with
    |mu| >= 1 only) or "hat" (n = 1, with the one-dimensional central
    extension; brackets pick up the 2-cocycle).
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

    # -- constructors -----------------------------------------------------

    def zero(self, basis: str = POWER) -> "WeylElement":
        return WeylElement(self, {}, basis=basis)

    def monomial(self, gamma, mu: Sequence[int], coeff: Union[Scalar, Rat] = 1,
                 basis: str = POWER) -> "WeylElement":
        gamma = _as_gamma(gamma)
        mu = tuple(int(m) for m in mu)
        if len(gamma) != self.n or len(mu) != self.n:
            raise ValueError("monomial exponents have wrong dimension")
        if any(m < 0 for m in mu):
            raise ValueError("D-exponents must be nonnegative")
        self.check_mu(mu)
        return WeylElement(self, {(gamma, mu): self.ring.coerce(coeff)}, basis=basis)

    def check_mu(self, mu: Sequence[int]) -> None:
        """Raise SubalgebraError if monomials t^gamma D^mu lie outside the flavor."""
        if self.subalgebra in (W1, HAT) and sum(mu) == 0:
            raise SubalgebraError("|mu| = 0 monomials are not in W^(1)")

    def one(self) -> "WeylElement":
        return self.monomial((0,) * self.n, (0,) * self.n)

    def t(self, gamma) -> "WeylElement":
        return self.monomial(gamma, (0,) * self.n)

    def D(self, i: int = 0) -> "WeylElement":
        mu = [0] * self.n
        mu[i] = 1
        return self.monomial((0,) * self.n, mu)

    def tD(self, gamma, i: int = 0) -> "WeylElement":
        """t^gamma D_i."""
        mu = [0] * self.n
        mu[i] = 1
        return self.monomial(gamma, mu)

    def central(self, coeff: Union[Scalar, Rat] = 1) -> "WeylElement":
        if self.subalgebra != HAT:
            raise SubalgebraError("central element exists only in the hat algebra")
        return WeylElement(self, {}, central=self.ring.coerce(coeff))

    def from_direction(self, beta, d: Direction) -> "WeylElement":
        """The degree-one element t^beta d = sum_i d_i t^beta D_i."""
        if d.dim != self.n:
            raise ValueError("direction has wrong dimension")
        out = self.zero()
        for i, c in enumerate(d.coeffs):
            if c != 0:
                out = out + self.tD(beta, i) * self.ring.const(c)
        return out


class WeylElement:
    """Canonical sparse element; immutable by convention."""

    __slots__ = ("weyl", "terms", "basis", "central")

    def __init__(self, weyl: Weyl, terms: Dict[TermKey, Scalar], basis: str = POWER,
                 central: Optional[Scalar] = None):
        if basis not in (POWER, FALLING):
            raise ValueError(f"unknown basis {basis!r}")
        self.weyl = weyl
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}
        self.basis = basis
        self.central = central if central is not None else weyl.ring.zero

    # -- linear structure -------------------------------------------------

    def _check_compat(self, other: "WeylElement"):
        if self.weyl is not other.weyl:
            if (self.weyl.n != other.weyl.n or self.weyl.ring != other.weyl.ring
                    or self.weyl.lattice != other.weyl.lattice):
                raise ValueError("elements of incompatible algebras")
        if self.basis != other.basis:
            raise BasisMismatchError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check_compat(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, self.weyl.ring.zero) + c
        return WeylElement(self.weyl, out, self.basis, self.central + other.central)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.weyl, {k: -c for k, c in self.terms.items()},
                           self.basis, -self.central)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scale(self, c: Union[Scalar, Rat]) -> "WeylElement":
        c = self.weyl.ring.coerce(c)
        return WeylElement(self.weyl, {k: v * c for k, v in self.terms.items()},
                           self.basis, self.central * c)

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

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
        from .printer import format_element
        return f"<{format_element(self)}>"

    # -- structure queries ------------------------------------------------

    def grade(self) -> Optional[Gamma]:
        """Gamma-degree of a homogeneous element, None if mixed or zero."""
        degrees = {g for (g, _mu) in self.terms}
        if len(degrees) == 1:
            return next(iter(degrees))
        return None

    def max_mu(self) -> int:
        return max((sum(mu) for (_g, mu) in self.terms), default=0)

    def project(self, window) -> "WeylElement":
        """Keep the monomials whose Gamma-degree lies in ``window``, and the
        central coordinate (of degree 0) when the window holds 0."""
        kept = {k: c for k, c in self.terms.items() if window.contains(k[0])}
        central = self.central if window.contains((0,) * self.weyl.n) else None
        return WeylElement(self.weyl, kept, self.basis, central)

    def in_w1(self) -> bool:
        return all(sum(mu) >= 1 for (_g, mu) in self.terms)

    # -- basis conversion -------------------------------------------------

    def to_power(self) -> "WeylElement":
        if self.basis == POWER:
            return self
        out: Dict[TermKey, Scalar] = {}
        for (g, mu), c in self.terms.items():
            # expand each coordinate's falling factorial into powers of D_i
            partial = {(): Fraction(1)}
            for m in mu:
                coeffs = _falling_coeffs(m)
                nxt: Dict[Tuple[int, ...], Fraction] = {}
                for stem, sc in partial.items():
                    for j, fc in enumerate(coeffs):
                        if fc:
                            key = stem + (j,)
                            nxt[key] = nxt.get(key, Fraction(0)) + sc * fc
                partial = nxt
            for nu, f in partial.items():
                key = (g, nu)
                out[key] = out.get(key, self.weyl.ring.zero) + c * f
        return WeylElement(self.weyl, out, POWER, self.central)

    def to_falling(self) -> "WeylElement":
        if self.basis == FALLING:
            return self
        out: Dict[TermKey, Scalar] = {}
        for (g, mu), c in self.terms.items():
            partial = {(): 1}
            for m in mu:
                nxt: Dict[Tuple[int, ...], int] = {}
                for stem, sc in partial.items():
                    for j in range(0, m + 1):
                        s2 = _stirling2(m, j)
                        if s2:
                            key = stem + (j,)
                            nxt[key] = nxt.get(key, 0) + sc * s2
                partial = nxt
            for nu, f in partial.items():
                key = (g, nu)
                out[key] = out.get(key, self.weyl.ring.zero) + c * f
        return WeylElement(self.weyl, out, FALLING, self.central)


class GradingWindow:
    """A predicate on Gamma-degrees; for n = 1 an integer interval [p, q)."""

    def __init__(self, predicate, description: str = ""):
        self._predicate = predicate
        self.description = description

    def contains(self, gamma) -> bool:
        return self._predicate(_as_gamma(gamma))

    @classmethod
    def interval(cls, p, q=None) -> "GradingWindow":
        """Degrees k with p <= k < q (q = None means unbounded above); n = 1."""
        lo = Fraction(p)
        hi = None if q is None else Fraction(q)

        def pred(g: Gamma) -> bool:
            k = g[0]
            return k >= lo and (hi is None or k < hi)

        desc = f"[{p},{'inf' if q is None else q})"
        return cls(pred, desc)


# -- products and brackets -------------------------------------------------


def _check_product_inputs(x: WeylElement, y: WeylElement):
    x._check_compat(y)
    if x.basis != POWER:
        raise BasisMismatchError("mul needs power-basis inputs")
    if not x.central.is_zero() or not y.central.is_zero():
        raise SubalgebraError("the associative product is not defined on the center")


def _lambda_factors(mu: Mu, b: Gamma):
    """Per coordinate, the pairs (lambda_i, C(mu_i, lambda_i) b_i^lambda_i).

    Each list starts with lambda_i = 0; when b_i = 0 it holds only that
    entry, since every lambda_i > 0 factor vanishes.
    """
    out = []
    for m, bi in zip(mu, b):
        row = [(0, 1)]
        if bi:
            if bi.denominator == 1:
                bi = bi.numerator  # int factors keep the products cheap
            power = 1
            for li in range(1, m + 1):
                power *= bi
                row.append((li, math.comb(m, li) * power))
        out.append(row)
    return out


RawTerms = Dict[Gamma, Dict[Mu, Dict[Exponent, Fraction]]]


def _accumulate(acc: RawTerms, x: WeylElement, y: WeylElement, sign: int,
                skip_lambda0: bool):
    """Add sign * x*y into ``acc``, a map gamma -> mu -> raw ring coefficients.

    Keyed by gamma first so the Fraction tuple is hashed once per term pair.
    With ``skip_lambda0`` the lambda = 0 terms t^(a+b) D^(mu+nu) are left out.
    """
    for (a, mu), cx in x.terms.items():
        for (b, nu), cy in y.terms.items():
            coeff: Dict[Exponent, Fraction] = {}
            for e1, c1 in cx.terms.items():
                for e2, c2 in cy.terms.items():
                    e = tuple(p + q for p, q in zip(e1, e2))
                    coeff[e] = coeff.get(e, 0) + c1 * c2
            by_mu = acc.setdefault(tuple(p + q for p, q in zip(a, b)), {})
            lambdas = itertools.product(*_lambda_factors(mu, b))
            if skip_lambda0:
                next(lambdas)
            for lam in lambdas:
                f = sign
                exp = []
                for (li, fl), m, n in zip(lam, mu, nu):
                    f *= fl
                    exp.append(m + n - li)
                raw = by_mu.setdefault(tuple(exp), {})
                for e, c in coeff.items():
                    raw[e] = raw.get(e, 0) + c * f


def _element(weyl: Weyl, acc: RawTerms) -> WeylElement:
    ring = weyl.ring
    return WeylElement(weyl, {(g, mu): Scalar(ring, raw)
                              for g, by_mu in acc.items() for mu, raw in by_mu.items()},
                       POWER)


def mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Associative product (1.2), bilinear over the coefficient ring."""
    _check_product_inputs(x, y)
    acc: RawTerms = {}
    _accumulate(acc, x, y, 1, False)
    return _element(x.weyl, acc)


def _commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """mul(x,y) - mul(y,x) without the lambda = 0 terms.

    Those terms are c_x c_y t^(a+b) D^(mu+nu) in both products, equal because
    the coefficient ring is commutative, so they always cancel.
    """
    _check_product_inputs(x, y)
    acc: RawTerms = {}
    _accumulate(acc, x, y, 1, True)
    _accumulate(acc, y, x, -1, True)
    return _element(x.weyl, acc)


def bracket(x: WeylElement, y: WeylElement) -> WeylElement:
    """Lie bracket mul(x,y) - mul(y,x); in the hat algebra adds the cocycle.

    The commutator is accumulated directly, skipping the lambda = 0 terms of
    both products, which cancel.
    """
    if x.weyl.subalgebra == HAT or y.weyl.subalgebra == HAT:
        return ext_bracket(x, y)
    return _commutator(x, y)


def cocycle(x: WeylElement, y: WeylElement) -> Scalar:
    """The 2-cocycle psi of the one-variable central extension (1.3).

    psi(t^a [D]_mu, t^b [D]_nu) = delta_{a,-b} (-1)^mu mu! nu! C(a+mu, mu+nu+1),
    extended bilinearly; power-basis inputs are converted first.
    """
    if x.weyl.n != 1:
        raise SubalgebraError("the cocycle is defined only for n = 1")
    xf = x.to_falling()
    yf = y.to_falling()
    out = x.weyl.ring.zero
    for (a, mu), cx in xf.terms.items():
        for (b, nu), cy in yf.terms.items():
            if tuple(-v for v in b) != a:
                continue
            m, n = mu[0], nu[0]
            f = (Fraction((-1) ** m) * math.factorial(m) * math.factorial(n)
                 * binom(a[0] + m, m + n + 1))
            if f:
                out = out + cx * cy * f
    return out


def ext_bracket(x: WeylElement, y: WeylElement) -> WeylElement:
    """Bracket in the centrally extended one-variable algebra."""
    xp, yp = x.to_power(), y.to_power()
    # the center contributes nothing: strip central coordinates first
    xs = WeylElement(xp.weyl, xp.terms, POWER)
    ys = WeylElement(yp.weyl, yp.terms, POWER)
    plain = _commutator(xs, ys)
    c = cocycle(xs, ys)
    return WeylElement(plain.weyl, plain.terms, POWER, c)


def operator_action(x: WeylElement, gamma) -> Dict[Gamma, Scalar]:
    """Apply x as a concrete operator to the basis vector t^gamma of F[Gamma].

    Built from first principles (D_i scales t^g by g_i, t^a shifts), with no
    reference to the product formula; serves as the oracle for mul.
    """
    return act_on_combination(x, {_as_gamma(gamma): x.weyl.ring.one})


def act_on_combination(x: WeylElement, vec: Dict[Gamma, Scalar]) -> Dict[Gamma, Scalar]:
    """Apply x termwise to a formal combination of group-algebra basis vectors."""
    xp = x.to_power()
    ring = x.weyl.ring
    out: Dict[Gamma, Scalar] = {}
    for g, vc in vec.items():
        for (a, mu), c in xp.terms.items():
            f = Fraction(1)
            for gi, mi in zip(g, mu):
                f *= gi ** mi
            if f == 0:
                continue
            target = tuple(p + q for p, q in zip(g, a))
            out[target] = out.get(target, ring.zero) + vc * c * f
    return {g: c for g, c in out.items() if not c.is_zero()}


def degree_one_bracket(weyl: Weyl, beta, d: Direction, gamma, d2: Direction) -> WeylElement:
    """Closed form [t^beta d, t^gamma d'] = t^(beta+gamma)(<gamma,d>d' - <beta,d'>d)."""
    beta_g = _as_gamma(beta)
    gamma_g = _as_gamma(gamma)
    if len(beta_g) != weyl.n or d.dim != weyl.n or d2.dim != weyl.n:
        raise ValueError("dimension mismatch")
    s = tuple(p + q for p, q in zip(beta_g, gamma_g))
    c1 = inner(gamma_g, d)
    c2 = inner(beta_g, d2)
    combined = Direction(tuple(c1 * b - c2 * a for a, b in zip(d.coeffs, d2.coeffs)))
    return weyl.from_direction(s, combined)


# -- verifiers -------------------------------------------------------------


def verify_jacobi(x: WeylElement, y: WeylElement, z: WeylElement,
                  name: str = "jacobi") -> VerificationReport:
    """Residual [x,[y,z]] + [y,[z,x]] + [z,[x,y]]; pass iff exactly zero."""
    res = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
           + bracket(z, bracket(x, y)))
    from .printer import format_element
    return VerificationReport(name, res.is_zero(),
                              None if res.is_zero() else format_element(res))


def verify_cocycle_condition(x: WeylElement, y: WeylElement, z: WeylElement,
                             name: str = "cocycle-condition") -> VerificationReport:
    """Residual psi([x,y],z) + psi([y,z],x) + psi([z,x],y); pass iff zero."""
    xs, ys, zs = (e.to_power() for e in (x, y, z))

    res = (cocycle(_commutator(xs, ys), zs) + cocycle(_commutator(ys, zs), xs)
           + cocycle(_commutator(zs, xs), ys))
    return VerificationReport(name, res.is_zero(), None if res.is_zero() else str(res))
