"""The one-variable specialization: t^i D f(D) normal form and its checks.

Covers the closed-form bracket on elements t^i D f(D), the named operator
identities used to control the matrices Q_i (each a line of the element
grammar, whose d/dt the parser reads as t^(-1) D), and desk-scale
certification of the generation claim: brackets of t^(i0)D, t^(i0+1)D,
t^(i0)D^2 and a tail of one-variable polynomials reach every t^k D^m in a
truncation window.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .echelon import Echelon, integral
from .lattice import _canonical
from .parser import Session, parse_element
from .printer import format_element
from .report import VerificationReport
from .scalars import Rat, Ring, Scalar, falling
from .weyl import HAT, Weyl, WeylElement, bracket

_DRING = Ring(("D",))
_D = _DRING.sym("D")

Coeffs = Union[Dict[int, Rat], Sequence[Rat]]  # {exponent: coefficient} or a list


def _d_poly(f: Coeffs) -> Scalar:
    """f(D) as a polynomial on the one-symbol ring ("D",)."""
    items = f.items() if isinstance(f, dict) else enumerate(f)
    return Scalar(_DRING, {(e,): c for e, c in items})


def _times_td(weyl: Weyl, degree: int, f: Scalar) -> WeylElement:
    """t^degree D f(D) in ``weyl``, for f a polynomial on the ring ("D",)."""
    return WeylElement(weyl, {((degree,), (e + 1,)): c for (e,), c in f.terms.items()})


def df_element(weyl: Weyl, degree: int, f: Coeffs) -> WeylElement:
    """t^degree D f(D), f given by its rational coefficients."""
    return _times_td(weyl, degree, _d_poly(f))


def df_bracket(weyl: Weyl, i: int, f: Coeffs, j: int, g: Coeffs) -> WeylElement:
    """[t^i D f(D), t^j D g(D)] in closed form (one bracket, no expansion):

    t^(i+j) D ( (D+j) f(D+j) g(D) - (D+i) g(D+i) f(D) ),
    i and j entering through Weyl.coords: a grade outside the lattice raises.
    """
    (i,), (j,) = (weyl.lattice.ambient(weyl.coords((k,))) for k in (i, j))
    f, g = _d_poly(f), _d_poly(g)
    left = (_D + j) * f.shift("D", j) * g
    right = (_D + i) * g.shift("D", i) * f
    return _times_td(weyl, i + j, left - right)


NAMED_IDENTITIES = ("L23-1", "L23-2", "L23-3", "CUBE")


def _moved(c: Rat, j: int) -> str:
    # the left side c (d/dt)^j moved over; none for c = 0 (then j <= 0)
    return f" - ({c})*(d/dt)^{j}" if c else ""


def verify_named_identity(weyl: Weyl, name: str, i: int = 1) -> VerificationReport:
    """Check one of the displayed operator identities exactly.

    L23-1 : -[i+1]_4 (d/dt)^(i-2) = 3[T2,[T2,X]] + 2(2i-1)[T3,X]
    L23-2 : 0 = [T2,[T2,[T2,X]]] + (i-1)(i-2)[T4,X] + 2(i-1)[T2,[T3,X]]
    L23-3 : [i+1]_6 (d/dt)^(i-4) = 10[T3,[T3,X] ... (every reading evaluated)
    CUBE  : [(d/dt)^2, [(d/dt)^2, t^2 d/dt]] = 8 (d/dt)^3

    where Tk = t^k d/dt and X = (d/dt)^i.  Each is evaluated as its display
    in the element grammar with the left side moved over, a line that
    ``winfty eval`` also reads; a left side with coefficient zero, whose
    power of d/dt is undefined, is left out.
    """
    if name not in NAMED_IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; choose from {NAMED_IDENTITIES}")
    session = Session(weyl)

    def residual(text: str) -> Optional[str]:
        res = parse_element(text, session)
        return None if res.is_zero() else format_element(res)

    T2, T3, T4, T5 = (f"t^({k})*d/dt" for k in range(2, 6))
    if name == "CUBE":
        return VerificationReport("CUBE", residual(f"[(d/dt)^2,[(d/dt)^2,{T2}]] - 8*(d/dt)^3"))
    if i < 1:
        raise ValueError("identity index i must be >= 1")
    X = f"(d/dt)^{i}"
    if name == "L23-1":
        return VerificationReport(f"L23-1[i={i}]", residual(
            f"3*[{T2},[{T2},{X}]] + ({2 * (2 * i - 1)})*[{T3},{X}]"
            + _moved(-falling(i + 1, 4), i - 2)))
    if name == "L23-2":
        return VerificationReport(f"L23-2[i={i}]", residual(
            f"[{T2},[{T2},[{T2},{X}]]] + ({(i - 1) * (i - 2)})*[{T4},{X}]"
            f" + ({2 * (i - 1)})*[{T2},[{T3},{X}]]"))
    # L23-3: evaluate every placement of the display's ambiguous closing
    # bracket and record which of them balances.
    inner, t5_term = f"[{T3},{X}]", f"({6 * (i - 4)})*[{T5},{X}]"
    t2_term, lhs = f"15*[{T2},[{T4},{X}]]", _moved(falling(i + 1, 6), i - 4)
    readings = {
        "close-inner": f"10*[{T3},{inner}] - {t5_term} - {t2_term}",
        "close-after-t5-term": f"10*[{T3},{inner} - {t5_term}] - {t2_term}",
        "close-at-end": f"10*[{T3},{inner} - {t5_term} - {t2_term}]",
    }
    residuals = {label: residual(text + lhs) for label, text in readings.items()}
    outcomes = {label: res is None for label, res in residuals.items()}
    zero_readings = sorted(k for k, ok in outcomes.items() if ok)
    return VerificationReport(
        f"L23-3[i={i}]",
        None if zero_readings else "; ".join(f"{k}: {v}" for k, v in sorted(residuals.items())),
        details={"zero_readings": zero_readings, "outcomes": outcomes})


# -- generation claim at desk scale ---------------------------------------


MonoKey = Tuple[Rat, int]  # (t-degree, D-exponent); the degree is an int when integral
Vec = Dict[MonoKey, Rat]
IntVec = Dict[MonoKey, int]

Word = Union[str, Tuple[str, int, int]]  # generator name or ("br", gen_idx, raw_idx)


def _int_vec(x: WeylElement) -> Tuple[IntVec, int]:
    """(w, s) with x == w / s on the keys (t-degree, D-exponent), for a
    one-variable power-basis element with rational coefficients (ValueError
    on any other); s > 0 is the lcm of the denominators.  Each coefficient is
    nums[0] / den in lowest terms, so w and s have no common factor, and no
    Fraction is built.  The grades are already canonical."""
    s = math.lcm(*[c.den for c in x.terms.values()])
    vec = {}
    for (g, mu), c in x.terms.items():
        if not c.is_rational():
            raise ValueError(f"not a rational constant: {c}")
        vec[g[0], mu[0]] = c.nums[0] * (s // c.den)
    return vec, s


def _top(vec: Vec) -> int:
    """The highest D-exponent of a vector, 0 if it is empty."""
    return max([m for _k, m in vec], default=0)


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
            if type(k) is Fraction:  # a formal (Scalar) degree has no one form
                k = _canonical(k)
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
    extension, the generator names are distinct, and every generator is an
    element of it (same ring, lattice and flavor) with rational coefficients.
    Generators and membership targets in the falling basis are converted to
    the power basis.

    The closure runs on integer vectors {(k, m): c}: brackets come from the
    one-variable product formula and the fraction-free elimination of
    :mod:`winfty.echelon`, whose rows keep the integer combination of raw
    elements each one equals.  Only accepted brackets become WeylElements
    (the ``raw`` entries), and ``eval_word`` re-evaluates a witness through
    the generic ``bracket``, which re-checks it against the independent Weyl
    kernel.

    Most frontier x generator pairs are skipped before their bracket is
    computed.  The terms of [g, x] sit at degrees a + b with a a degree of g
    and b one of x.  By (1.2) the l = 0 terms cancel, so each term has
    D-exponent at most top(g) + top(x) - 1, top being the highest D-exponent
    of an element.  Accepted raw vectors are independent, so once the raw
    vectors that lie on the single degree k are as many as their highest
    D-exponent p, they span the prefix {(k, m) : 1 <= m <= p}; the largest
    such p is spanned(k).  A bracket whose every degree a + b is outside
    [deg_lo, deg_hi] or has spanned(a + b) >= min(top(g) + top(x) - 1, d_cap)
    has each term out of the box or inside a spanned prefix, so the echelon
    would reject it.  Skipping it leaves the rows, ``raw``, ``rounds`` and
    every answer as they were, for any generators, homogeneous or not.
    """

    def __init__(self, weyl: Weyl, generators: Sequence[Tuple[str, WeylElement]],
                 deg_lo: int = 0, deg_hi: int = 40, d_cap: int = 6):
        if weyl.n != 1 or weyl.subalgebra == HAT:
            raise ValueError("the closure needs a one-variable algebra without "
                             "central extension")
        if not all(isinstance(v, int) for v in (deg_lo, deg_hi, d_cap)):
            raise ValueError("deg_lo, deg_hi and d_cap must be ints")
        if d_cap < 1 or deg_lo > deg_hi:
            raise ValueError(f"empty truncation box: degrees [{deg_lo}, {deg_hi}], "
                             f"D-exponents [1, {d_cap}]")
        names = [name for name, _g in generators]
        if len(set(names)) != len(names):
            # eval_word finds a generator by its name
            raise ValueError(f"duplicate generator names in {names!r}")
        for name, g in generators:
            if g.weyl != weyl:
                raise ValueError(f"generator {name} is not in the closure's algebra")
        self.weyl = weyl
        self.generators = [(name, g.to_power()) for name, g in generators]
        self.deg_lo, self.deg_hi, self.d_cap = deg_lo, deg_hi, d_cap
        self.raw: List[Tuple[WeylElement, Word]] = []
        self._vecs: List[Tuple[IntVec, int]] = []  # raw[r] == vec / scale
        # per degree: (count, top) of the raw vectors on that degree alone
        self._on_degree: Dict[Rat, Tuple[int, int]] = {}
        self._spanned: Counter = Counter()  # the D-order prefix each degree spans
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
            # each coefficient c / s in lowest terms: one gcd, no Fraction
            ring = self.weyl.ring
            terms = {}
            for (k, m), c in ivec.items():
                g = math.gcd(c, s)
                terms[((k,), (m,))] = Scalar._trusted(ring, s // g, {0: c // g})
            x = WeylElement._trusted(self.weyl, terms)
        degs = {k for k, _m in ivec}
        if len(degs) == 1:
            k = degs.pop()
            count, top = self._on_degree.get(k, (0, 0))
            count, top = count + 1, max(top, _top(ivec))
            self._on_degree[k] = count, top
            if count == top:
                self._spanned[k] = top
        self._vecs.append((ivec, s))
        self.raw.append((x, word))
        return True

    def _futile(self, a: Set[Rat], b: Set[Rat], order: int) -> bool:
        """True when every degree a + b is outside the box or spanned up to
        D-order min(order, d_cap), so a bracket of elements on degrees a and
        b with terms of D-order at most ``order`` cannot be accepted."""
        lo, hi, spanned = self.deg_lo, self.deg_hi, self._spanned
        order = min(order, self.d_cap)
        return all(k < lo or k > hi or spanned[k] >= order
                   for k in {p + q for p in a for q in b})

    def _grow(self):
        gens = [_int_vec(g) for _name, g in self.generators]
        gen_degs = [{k for k, _m in vec} for vec, _s in gens]
        gen_tops = [_top(vec) for vec, _s in gens]
        frontier = []
        for (name, g), (vec, s) in zip(self.generators, gens):
            if self._try_add(vec, s, name, g):
                frontier.append(len(self.raw) - 1)
        while frontier:
            self.rounds += 1
            nxt = []
            for idx in frontier:
                x, xs = self._vecs[idx]
                x_degs = {k for k, _m in x}
                x_top = _top(x) - 1
                for gi, (g, gs) in enumerate(gens):
                    if self._futile(gen_degs[gi], x_degs, gen_tops[gi] + x_top):
                        continue
                    if self._try_add(_bracket_vec(g, x), gs * xs, ("br", gi, idx)):
                        nxt.append(len(self.raw) - 1)
            frontier = nxt

    @property
    def dimension(self) -> int:
        return len(self._echelon)

    # -- queries -----------------------------------------------------------

    def membership(self, target: WeylElement) -> Optional[List[Tuple[Fraction, int]]]:
        """A combination sum c_r * raw[r] equal to target, or None."""
        if target.weyl != self.weyl:
            raise ValueError("target is not in the closure's algebra")
        vec, s = _int_vec(target.to_power())
        if not self._in_box(vec):
            raise ValueError("target lies outside the truncation caps")
        coeffs = self._echelon.solve(vec, s)
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
