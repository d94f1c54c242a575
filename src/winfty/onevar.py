"""The one-variable specialization: t^i D f(D) normal form and its checks.

Covers the closed-form bracket on elements t^i D f(D), the d/dt calculus
(d/dt = t^(-1) D, so t^(i+j)(d/dt)^j = t^i [D]_j), the named operator
identities used to control the matrices Q_i, and desk-scale certification of
the generation claim: brackets of t^(i0)D, t^(i0+1)D, t^(i0)D^2 and a tail
of one-variable polynomials reach every t^k D^m in a truncation window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .echelon import Echelon, integral
from .printer import format_element
from .report import VerificationReport
from .scalars import Rat, Ring, Scalar, falling
from .weyl import HAT, POWER, BasisMismatchError, Weyl, WeylElement, bracket

_DRING = Ring(("D",))
_D = _DRING.sym("D")

Coeffs = Union[Dict[int, Rat], Sequence[Rat]]  # {exponent: coefficient} or a list


def _d_poly(f: Coeffs) -> Scalar:
    """f(D) as a polynomial on the one-symbol ring ("D",)."""
    items = f.items() if isinstance(f, dict) else enumerate(f)
    return sum((_DRING.const(c) * _D ** e for e, c in items), _DRING.zero)


@dataclass(frozen=True)
class DfElement:
    """t^degree * D * f(D) with f a rational polynomial on the ring ("D",)."""

    degree: int
    f: Scalar

    @classmethod
    def of(cls, degree: int, f: Coeffs) -> "DfElement":
        return cls(degree, _d_poly(f))

    def is_zero(self) -> bool:
        return self.f.is_zero()

    def to_weyl(self, weyl: Weyl) -> WeylElement:
        out = weyl.zero()
        for (e,), c in sorted(self.f.terms.items()):
            out = out + weyl.monomial((self.degree,), (e + 1,), c)
        return out

    @classmethod
    def from_weyl(cls, x: WeylElement) -> "DfElement":
        """Inverse of to_weyl; requires a homogeneous W^(1) element."""
        if x.is_zero():
            return cls.of(0, {})
        if x.weyl.n != 1:
            raise ValueError("one-variable elements only")
        deg = x.grade()
        if deg is None:
            raise ValueError("element is not homogeneous")
        f: Dict[int, Fraction] = {}
        for (_g, mu), c in x.to_power().terms.items():
            if mu[0] < 1:
                raise ValueError("element has a |mu| = 0 component")
            f[mu[0] - 1] = c.as_fraction()
        if deg[0].denominator != 1:
            raise ValueError("degree is not an integer")
        return cls.of(int(deg[0]), f)


def df_bracket(i: int, f: Coeffs, j: int, g: Coeffs) -> DfElement:
    """[t^i D f(D), t^j D g(D)] in closed form (one bracket, no expansion):

    t^(i+j) D ( (D+j) f(D+j) g(D) - (D+i) g(D+i) f(D) ).
    """
    f, g = _d_poly(f), _d_poly(g)
    left = (_D + j) * f.shift("D", j) * g
    right = (_D + i) * g.shift("D", i) * f
    return DfElement(i + j, left - right)


def ddt_power(weyl: Weyl, j: int) -> WeylElement:
    """(d/dt)^j = t^(-j) [D]_j, returned in the power basis; j >= 1."""
    if j < 1:
        raise ValueError("ddt_power needs j >= 1")
    return weyl.monomial((-j,), (j,), basis="falling").to_power()


def t_ddt(weyl: Weyl, k: int) -> WeylElement:
    """t^k d/dt = t^(k-1) D."""
    return weyl.tD((k - 1,))


def _ddt_or_zero(weyl: Weyl, j: int) -> WeylElement:
    # the "treat undefined notions as zero" convention for (d/dt)^j, j <= 0
    return ddt_power(weyl, j) if j >= 1 else weyl.zero()


NAMED_IDENTITIES = ("L23-1", "L23-2", "L23-3", "CUBE")

# L23-3 is printed with unbalanced brackets; each reading inserts the missing
# closing bracket at a different place.
L233_READINGS = ("close-inner", "close-after-t5-term", "close-at-end")


def verify_named_identity(weyl: Weyl, name: str, i: int = 1) -> VerificationReport:
    """Check one of the displayed operator identities exactly.

    L23-1 : -[i+1]_4 (d/dt)^(i-2) = 3[T2,[T2,X]] + 2(2i-1)[T3,X]
    L23-2 : 0 = [T2,[T2,[T2,X]]] + (i-1)(i-2)[T4,X] + 2(i-1)[T2,[T3,X]]
    L23-3 : [i+1]_6 (d/dt)^(i-4) = 10[T3,[T3,X] ... (every reading evaluated)
    CUBE  : [(d/dt)^2, [(d/dt)^2, t^2 d/dt]] = 8 (d/dt)^3

    where Tk = t^k d/dt and X = (d/dt)^i; undefined powers are zero.
    """
    if name not in NAMED_IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; choose from {NAMED_IDENTITIES}")
    T = {k: t_ddt(weyl, k) for k in range(2, 6)}
    if name == "CUBE":
        d2 = ddt_power(weyl, 2)
        lhs = bracket(d2, bracket(d2, T[2]))
        rhs = ddt_power(weyl, 3).scale(8)
        res = lhs - rhs
        return VerificationReport("CUBE", res.is_zero(),
                                  None if res.is_zero() else format_element(res))
    if i < 1:
        raise ValueError("identity index i must be >= 1")
    X = ddt_power(weyl, i)
    if name == "L23-1":
        lhs = _ddt_or_zero(weyl, i - 2).scale(-falling(i + 1, 4))
        rhs = (bracket(T[2], bracket(T[2], X)).scale(3)
               + bracket(T[3], X).scale(2 * (2 * i - 1)))
        res = rhs - lhs
        return VerificationReport(f"L23-1[i={i}]", res.is_zero(),
                                  None if res.is_zero() else format_element(res))
    if name == "L23-2":
        res = (bracket(T[2], bracket(T[2], bracket(T[2], X)))
               + bracket(T[4], X).scale((i - 1) * (i - 2))
               + bracket(T[2], bracket(T[3], X)).scale(2 * (i - 1)))
        return VerificationReport(f"L23-2[i={i}]", res.is_zero(),
                                  None if res.is_zero() else format_element(res))
    # L23-3: evaluate every syntactically plausible nesting and record which
    # of them balances; the display in the source is ambiguous.
    lhs = _ddt_or_zero(weyl, i - 4).scale(falling(i + 1, 6))
    t5_term = bracket(T[5], X).scale(6 * (i - 4))
    t2_term = bracket(T[2], bracket(T[4], X)).scale(15)
    readings = {
        "close-inner":
            bracket(T[3], bracket(T[3], X)).scale(10) - t5_term - t2_term,
        "close-after-t5-term":
            bracket(T[3], bracket(T[3], X) - t5_term).scale(10) - t2_term,
        "close-at-end":
            bracket(T[3], bracket(T[3], X) - t5_term - t2_term).scale(10),
    }
    outcomes = {}
    residuals = {}
    for label, rhs in readings.items():
        res = rhs - lhs
        outcomes[label] = res.is_zero()
        if not res.is_zero():
            residuals[label] = format_element(res)
    passed = any(outcomes.values())
    zero_readings = sorted(k for k, ok in outcomes.items() if ok)
    return VerificationReport(
        f"L23-3[i={i}]", passed,
        None if passed else "; ".join(f"{k}: {v}" for k, v in sorted(residuals.items())),
        details={"zero_readings": zero_readings, "outcomes": outcomes})


# -- generation claim at desk scale ---------------------------------------


MonoKey = Tuple[Rat, int]  # (t-degree, D-exponent); the degree is an int when integral
Vec = Dict[MonoKey, Rat]
IntVec = Dict[MonoKey, int]

Word = Union[str, Tuple[str, int, int]]  # generator name or ("br", gen_idx, raw_idx)


def _to_vec(x: WeylElement) -> Vec:
    """The coefficients of a one-variable power-basis element with rational
    coefficients (as_fraction raises on any other scalar)."""
    return {(g[0].numerator if g[0].denominator == 1 else g[0], mu[0]): c.as_fraction()
            for (g, mu), c in x.terms.items()}


def _bracket_vec(x: Vec, y: Vec) -> Vec:
    """[x, y] by the product formula (1.2) for n = 1, extended bilinearly:

    [t^a D^p, t^b D^q] = sum_{l>=1} (C(p,l) b^l - C(q,l) a^l) t^(a+b) D^(p+q-l).

    The l = 0 terms cancel.  Integral degrees and coefficients give an
    integral result.
    """
    out: Vec = {}
    for (a, p), cx in x.items():
        for (b, q), cy in y.items():
            k = a + b
            c = cx * cy
            al = bl = 1
            for lam in range(1, max(p, q) + 1):
                al *= a
                bl *= b
                f = math.comb(p, lam) * bl - math.comb(q, lam) * al
                if f:
                    key = (k, p + q - lam)
                    out[key] = out.get(key, 0) + c * f
    return {key: c for key, c in out.items() if c}


class GeneratedSubalgebra:
    """Bracket closure of a generator list inside a truncation box.

    The truncation keeps t-degrees in [deg_lo, deg_hi] and D-exponents in
    [1, d_cap]; bracket results with any monomial outside the box are
    discarded (never silently projected), so every recorded element genuinely
    lies in the generated subalgebra.  Closure uses left-normed brackets
    [g, x] with g a generator, which span the generated subalgebra.

    Preconditions, checked on entry: the algebra has n = 1 and no central
    extension, and every generator is in the power basis with rational
    coefficients.  Membership targets are converted to the power basis.

    The closure runs on integer vectors {(k, m): c}: brackets come from the
    one-variable product formula and the fraction-free elimination of
    :mod:`winfty.echelon`, whose rows keep the integer combination of raw
    elements each one equals.  Only accepted brackets become WeylElements
    (the ``raw`` entries), and ``eval_word`` re-evaluates a witness through
    the generic ``bracket``, which re-checks it against the independent Weyl
    kernel.
    """

    def __init__(self, weyl: Weyl, generators: Sequence[Tuple[str, WeylElement]],
                 deg_lo: int = 0, deg_hi: int = 40, d_cap: int = 6):
        if weyl.n != 1 or weyl.subalgebra == HAT:
            raise ValueError("the closure needs a one-variable algebra without "
                             "central extension")
        for name, g in generators:
            if g.weyl.n != 1:
                raise ValueError(f"generator {name} is not a one-variable element")
            if g.basis != POWER:
                raise BasisMismatchError(f"generator {name} is not in the power basis")
        self.weyl = weyl
        self.generators = list(generators)
        self.deg_lo, self.deg_hi, self.d_cap = deg_lo, deg_hi, d_cap
        self.raw: List[Tuple[WeylElement, Word]] = []
        self._vecs: List[Tuple[IntVec, int]] = []  # raw[r] == vec / scale
        self._echelon = Echelon()
        self.rounds = 0
        self._grow()

    def _in_box(self, vec: Vec) -> bool:
        return all(self.deg_lo <= k <= self.deg_hi and 1 <= m <= self.d_cap
                   for (k, m) in vec)

    def _try_add(self, vec: Vec, scale: int, word: Word,
                 x: Optional[WeylElement] = None) -> bool:
        """Record vec / scale as raw element ``word`` if it is nonzero, in the
        box and independent of the rows; x is its element, if already built."""
        if not vec or not self._in_box(vec):
            return False
        ivec, s = integral(vec, scale)
        if not self._echelon.insert(ivec, s, len(self.raw)):
            return False
        if x is None:
            const = self.weyl.ring.const
            x = WeylElement(self.weyl, {((Fraction(k),), (m,)): const(Fraction(c, s))
                                        for (k, m), c in ivec.items()})
        self._vecs.append((ivec, s))
        self.raw.append((x, word))
        return True

    def _grow(self):
        gens = [integral(_to_vec(g)) for _name, g in self.generators]
        frontier = []
        for (name, g), (vec, s) in zip(self.generators, gens):
            if self._try_add(vec, s, name, g):
                frontier.append(len(self.raw) - 1)
        while frontier:
            self.rounds += 1
            nxt = []
            for idx in frontier:
                x, xs = self._vecs[idx]
                for gi, (g, gs) in enumerate(gens):
                    if self._try_add(_bracket_vec(g, x), gs * xs, ("br", gi, idx)):
                        nxt.append(len(self.raw) - 1)
            frontier = nxt

    @property
    def dimension(self) -> int:
        return len(self._echelon)

    # -- queries -----------------------------------------------------------

    def membership(self, target: WeylElement) -> Optional[List[Tuple[Fraction, int]]]:
        """A combination sum c_r * raw[r] equal to target, or None."""
        if target.weyl.n != 1:
            raise ValueError("target is not a one-variable element")
        vec = _to_vec(target.to_power())
        if not self._in_box(vec):
            raise ValueError("target lies outside the truncation caps")
        coeffs = self._echelon.solve(*integral(vec))
        if coeffs is None:
            return None
        return [(coeffs[r], r) for r in sorted(coeffs)]

    def word_text(self, word: Word) -> str:
        if isinstance(word, str):
            return word
        _, gi, idx = word
        return f"[{self.generators[gi][0]},{self.word_text(self.raw[idx][1])}]"

    def eval_word(self, word: Word) -> WeylElement:
        """Re-evaluate a bracket word from the generators alone."""
        if isinstance(word, str):
            for name, g in self.generators:
                if name == word:
                    return g
            raise KeyError(word)
        _, gi, idx = word
        return bracket(self.generators[gi][1], self.eval_word(self.raw[idx][1]))


def standard_generators(weyl: Weyl, i0: int, m0: int, d_cap: int = 6
                        ) -> List[Tuple[str, WeylElement]]:
    """t^(i0)D, t^(i0+1)D, t^(i0)D^2 plus the tail D f(D), deg f >= m0."""
    gens = [
        (f"t^{i0}D", weyl.tD((i0,))),
        (f"t^{i0 + 1}D", weyl.tD((i0 + 1,))),
        (f"t^{i0}D2", weyl.monomial((i0,), (2,))),
    ]
    for m in range(m0, d_cap):
        gens.append((f"D{m + 1}", weyl.monomial((0,), (m + 1,))))
    return gens


def generation_membership(weyl: Weyl, i0: int, m0: int, target: DfElement,
                          deg_hi: int = 40, d_cap: int = 6,
                          sub: Optional[GeneratedSubalgebra] = None
                          ) -> VerificationReport:
    """Certify target in the subalgebra generated per the one-variable claim.

    The returned report carries an explicit bracket-word witness whose
    re-evaluation equals the target (tests exercise this).
    """
    if sub is None:
        sub = GeneratedSubalgebra(weyl, standard_generators(weyl, i0, m0, d_cap),
                                  deg_lo=0, deg_hi=deg_hi, d_cap=d_cap)
    elt = target.to_weyl(weyl)
    name = f"generation[i0={i0},m0={m0},target=t^{target.degree}Df]"
    combo = sub.membership(elt)
    if combo is None:
        return VerificationReport(name, False, residual="target not reached within caps",
                                  details={"dimension": sub.dimension})
    witness = [(str(c), sub.word_text(sub.raw[r][1])) for c, r in combo]
    return VerificationReport(name, True, details={"witness": witness,
                                                   "combo": [(str(c), r) for c, r in combo],
                                                   "dimension": sub.dimension})
