"""Expression parser for the canonical element grammar (FORMAT.md, version 1).

parse() builds a small tuple-based AST; evaluate() interprets it against a
Session (dimension, coefficient ring, subalgebra flavor) and yields a
WeylElement or a Scalar.  The grammar round-trips with the printer:
parse(format_element(x)) evaluates back to x for every canonical element.

Sums and products are n-ary nodes.  A sum is folded left to right by
weyl._Sum, the fold behind WeylElement.__add__, so its value, its basis (the
rule in FORMAT.md, "Semantics") and its first error are those of
((a + b) + c) + ...  The factors of a written monomial merge into one _Mono
without going through the associative product, and _Mono.finalize is the one
way a monomial becomes an element, for sums, products, brackets, powers and
evaluate alike.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .scalars import Rat, Scalar
from .weyl import FALLING, POWER, Weyl, WeylElement, _Sum, bracket, mul


class ParseError(ValueError):
    """Syntax error, carrying the 0-based position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    pass


@dataclass
class Session:
    """Evaluation context: the algebra, whose ring declares the parameter names."""

    weyl: Weyl


# -- tokenizer -------------------------------------------------------------

_FRAC = r"-?\d+(?:/\d+)?"

# BAD catches any character no other token starts with, so one finditer
# pass covers the whole text.
_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<DDT>d/dt)
    | (?P<TPOW>t\^\(FRAC\))
    | (?P<TVEC>t\[FRAC(?:,FRAC)*\])
    | (?P<FALL>\[D\d*\]_\d+)
    | (?P<NUM>\d+(?:/\d+)?)
    | (?P<DNAME>D\d*)
    | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<OP>[-+*^()\[\],])
    | (?P<BAD>.)
    """.replace("FRAC", _FRAC),
    re.VERBOSE | re.DOTALL,
)

_FALL_RE = re.compile(r"\[D(\d*)\]_(\d+)")

# (kind, text, position); an operator's kind is its own text.
_Token = Tuple[str, str, int]


def _tokenize(text: str) -> List[_Token]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "WS":
            continue
        tok = m.group()
        if kind == "BAD":
            raise ParseError(f"unexpected character {tok!r}", m.start())
        out.append((tok if kind == "OP" else kind, tok, m.start()))
    out.append(("EOF", "", len(text)))
    return out


def _rational(text: str, pos: int) -> Rat:
    """The rational written as ``text`` (an optionally signed ``p`` or ``p/q``),
    of any length."""
    num, _, den = text.partition("/")
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError:  # int() refuses a text past sys.get_int_max_str_digits()
        p, q = int(Decimal(num)), int(Decimal(den or 1))
    if not den:
        return p
    if not q:
        raise ParseError(f"zero denominator in {text!r}", pos)
    return Fraction(p, q)


# -- AST -------------------------------------------------------------------
# Nodes are plain tuples: ("num", Rat), ("name", str, pos),
# ("t", (Rat,...), pos), ("d", index, explicit, pos),
# ("fall", index, order, pos), ("ddt", pos), ("neg", a),
# ("sum", ((neg, a), ...)) with neg False on the first summand,
# ("prod", ((pos, a), ...)) with pos the "*" before each factor (the first
# factor's own position for the first), ("pow", a, int, pos of "^") and
# ("br", a, b, pos of "[").  Evaluation errors report those positions.

AST = tuple


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.cur = self.tokens[0]

    def _advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        self.cur = self.tokens[self.i]
        return tok

    def _expect(self, kind: str) -> _Token:
        if self.cur[0] != kind:
            raise ParseError(f"expected {kind!r}, found {self.cur[1]!r}", self.cur[2])
        return self._advance()

    def parse(self) -> AST:
        node = self.expr()
        if self.cur[0] != "EOF":
            raise ParseError(f"trailing input {self.cur[1]!r}", self.cur[2])
        return node

    def expr(self) -> AST:
        node = self.term()
        if self.cur[0] not in ("+", "-"):
            return node
        summands = [(False, node)]
        while self.cur[0] in ("+", "-"):
            neg = self._advance()[0] == "-"
            summands.append((neg, self.term()))
        return ("sum", tuple(summands))

    def term(self) -> AST:
        start = self.cur[2]
        node = self.unary()
        if self.cur[0] != "*":
            return node
        factors = [(start, node)]
        while self.cur[0] == "*":
            pos = self._advance()[2]
            factors.append((pos, self.unary()))
        return ("prod", tuple(factors))

    def unary(self) -> AST:
        if self.cur[0] == "-":
            self._advance()
            return ("neg", self.unary())
        return self.power()

    def power(self) -> AST:
        node = self.atom()
        if self.cur[0] == "^":
            tok = self._advance()
            e = self.cur
            if e[0] != "NUM" or "/" in e[1]:
                raise ParseError("exponent must be a nonnegative integer", tok[2] + 1)
            self._advance()
            node = ("pow", node, int(e[1]), tok[2])
        return node

    def atom(self) -> AST:
        kind, text, pos = self.cur
        if kind == "NUM":
            self._advance()
            return ("num", _rational(text, pos))
        if kind == "TPOW":
            self._advance()
            return ("t", (_rational(text[3:-1], pos + 3),), pos)
        if kind == "TVEC":
            self._advance()
            comps = []
            at = pos + 2
            for part in text[2:-1].split(","):
                comps.append(_rational(part, at))
                at += len(part) + 1
            return ("t", tuple(comps), pos)
        if kind == "FALL":
            self._advance()
            m = _FALL_RE.fullmatch(text)
            idx = int(m.group(1)) - 1 if m.group(1) else 0
            return ("fall", idx, int(m.group(2)), pos)
        if kind == "DDT":
            self._advance()
            return ("ddt", pos)
        if kind == "DNAME":
            self._advance()
            idx = int(text[1:]) - 1 if len(text) > 1 else 0
            return ("d", idx, len(text) > 1, pos)
        if kind == "NAME":
            self._advance()
            return ("name", text, pos)
        if kind == "(":
            self._advance()
            node = self.expr()
            self._expect(")")
            return node
        if kind == "[":
            self._advance()
            lhs = self.expr()
            self._expect(",")
            rhs = self.expr()
            self._expect("]")
            return ("br", lhs, rhs, pos)
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text: str) -> AST:
    """Parse an expression in the element grammar; raises ParseError."""
    return _Parser(text).parse()


# -- evaluation ------------------------------------------------------------


class _Mono:
    """A monomial under construction: coeff * t^gamma D^mu (or [D]_mu).

    A coefficient of None means 1, and exponents of None mean 0, so merging
    a factor that lacks them does no arithmetic.  Factors are merged without
    invoking the associative product as long as the written order matches
    the canonical normal form (all t's before all D's), which is exactly how
    the printer emits monomials.  Deferring the build also lets t-only
    prefixes appear inside W^(1)-mode expressions like "t^(1)*D" without
    tripping the subalgebra guard early.
    """

    __slots__ = ("coeff", "gamma", "mu", "basis")

    def __init__(self, coeff: Optional[Scalar] = None, gamma: Optional[tuple] = None,
                 mu: Optional[tuple] = None, basis: str = POWER):
        self.coeff = coeff
        self.gamma = gamma
        self.mu = mu
        self.basis = basis

    @property
    def has_d(self) -> bool:
        return self.mu is not None and any(self.mu)

    def finalize(self, weyl: Weyl) -> WeylElement:
        """The monomial as an element, after the constructor's checks that a
        written monomial can fail: the grade enters through Weyl.coords and
        takes the lattice's ambient form, and mu fits the flavor."""
        gamma = (0,) * weyl.n if self.gamma is None else weyl.lattice.ambient(
            weyl.coords(self.gamma))
        mu = self.mu or (0,) * weyl.n
        weyl.check_mu(mu)
        c = weyl.ring.one if self.coeff is None else self.coeff
        return WeylElement._trusted(weyl, {(gamma, mu): c} if c else {}, self.basis)


# quoted: typing caches each subscription, so a class named here stays alive
Value = Union["Scalar", "WeylElement", "_Mono"]


def _finalize(v: Value, weyl: Weyl, pos: int) -> WeylElement:
    if isinstance(v, Scalar):
        raise ParseError("expected an algebra element, found a scalar", pos)
    return as_element(v, weyl)


def _times(x: Optional[Scalar], y: Optional[Scalar]) -> Optional[Scalar]:
    if y is None:
        return x
    return y if x is None else x * y


def _plus(x: Optional[tuple], y: Optional[tuple]) -> Optional[tuple]:
    if y is None:
        return x
    return y if x is None else tuple(map(operator.add, x, y))


def _mul_values(a: Value, b: Value, weyl: Weyl, pos: int) -> Value:
    if isinstance(a, Scalar) or isinstance(b, Scalar):
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a * b
        s, other = (a, b) if isinstance(a, Scalar) else (b, a)
        if isinstance(other, _Mono):
            return _Mono(_times(other.coeff, s), other.gamma, other.mu, other.basis)
        return other.scale(s)
    if isinstance(a, _Mono) and isinstance(b, _Mono):
        # Merge when the written order is already normal (t's left of D's
        # factor-wise) and the D-parts add: one basis, and falling factors on
        # distinct coordinates.  Otherwise fall back to the associative product.
        a_d = a.has_d
        if not a_d or b.gamma is None or not any(b.gamma):
            clash = a_d and b.has_d and (a.basis != b.basis or a.basis == FALLING and any(
                x and y for x, y in zip(a.mu, b.mu)))
            if not clash:
                return _Mono(_times(a.coeff, b.coeff), _plus(a.gamma, b.gamma),
                             _plus(a.mu, b.mu), a.basis if a_d else b.basis)
    return mul(_finalize(a, weyl, pos), _finalize(b, weyl, pos))


def _pow_value(a: Value, e: int, weyl: Weyl, pos: int) -> Value:
    if isinstance(a, Scalar):
        return a ** e
    if isinstance(a, _Mono):
        # Exponentiating a pure t-power or a pure D-power is exponent scaling;
        # anything mixed needs the associative product.
        pure = not a.has_d or a.gamma is None or not any(a.gamma)
        if pure and a.basis == POWER and (a.coeff is None or a.coeff == 1):
            return _Mono(None, a.gamma and tuple(g * e for g in a.gamma),
                         a.mu and tuple(m * e for m in a.mu), POWER)
        a = _finalize(a, weyl, pos)
    if e == 0:
        return weyl.one()
    acc = a
    for _ in range(e - 1):
        acc = mul(acc, a)
    return acc


def _neg_value(a: Value, weyl: Weyl) -> Value:
    if isinstance(a, _Mono):
        coeff = weyl.ring.const(-1) if a.coeff is None else -a.coeff
        return _Mono(coeff, a.gamma, a.mu, a.basis)
    return -a


def _eval_sum(summands, session: Session) -> Value:
    # The first summand joins the sum only once the second is evaluated, and
    # a run of scalar summands stays a scalar, as in pairwise addition.
    weyl = session.weyl
    it = iter(summands)
    head = _eval(next(it)[1], session)
    acc = None
    for neg, node in it:
        v = _eval(node, session)
        if acc is None:
            if isinstance(head, Scalar) and isinstance(v, Scalar):
                head = head - v if neg else head + v
                continue
            acc = _Sum(as_element(head, weyl))
        acc.add(as_element(v, weyl), neg)
    return head if acc is None else acc.element()


def evaluate(node: AST, session: Session) -> Union[Scalar, WeylElement]:
    v = _eval(node, session)
    return v.finalize(session.weyl) if isinstance(v, _Mono) else v


def _eval(node: AST, session: Session) -> Value:
    weyl = session.weyl
    kind = node[0]
    if kind == "sum":
        return _eval_sum(node[1], session)
    if kind == "prod":
        it = iter(node[1])
        value = _eval(next(it)[1], session)
        for pos, factor in it:
            value = _mul_values(value, _eval(factor, session), weyl, pos)
        return value
    if kind == "t":
        gamma, pos = node[1], node[2]
        if len(gamma) != weyl.n:
            raise ParseError(f"t-monomial has {len(gamma)} coordinates, "
                             f"session has n = {weyl.n}", pos)
        return _Mono(gamma=gamma)
    if kind == "d":
        idx, explicit, pos = node[1], node[2], node[3]
        if not explicit and weyl.n != 1:
            raise ParseError("bare D is ambiguous for n > 1; use D1..Dn", pos)
        if not 0 <= idx < weyl.n:
            raise ParseError(f"D{idx + 1} out of range for n = {weyl.n}", pos)
        mu = [0] * weyl.n
        mu[idx] = 1
        return _Mono(mu=tuple(mu))
    if kind == "num":
        # the parser's own int or Fraction, in lowest terms; a zero is the empty map
        q, ring = node[1], weyl.ring
        return Scalar._trusted(ring, q.denominator, {0: q.numerator} if q else {})
    if kind == "pow":
        return _pow_value(_eval(node[1], session), node[2], weyl, node[3])
    if kind == "fall":
        idx, order, pos = node[1], node[2], node[3]
        if not 0 <= idx < weyl.n:
            raise ParseError(f"falling index out of range for n = {weyl.n}", pos)
        mu = [0] * weyl.n
        mu[idx] = order
        return _Mono(mu=tuple(mu), basis=FALLING)
    if kind == "name":
        ring = weyl.ring
        name, pos = node[1], node[2]
        if name == "C":
            if weyl.subalgebra != "hat":
                raise UnknownSymbolError(
                    "central element C requires the hat algebra", pos)
            return weyl.central(1)
        if name in ring.symbols:
            return ring.sym(name)
        raise UnknownSymbolError(f"unknown symbol {name!r}", pos)
    if kind == "ddt":
        if weyl.n != 1:
            raise ParseError("d/dt requires n = 1", node[1])
        # d/dt is the element t^(-1) D; its powers go through the product,
        # which is what turns (d/dt)^2 into t^(-2) [D]_2 and not t^(-2) D^2.
        return weyl.monomial((-1,), (1,))
    if kind == "neg":
        return _neg_value(_eval(node[1], session), weyl)
    if kind == "br":
        pos = node[3]
        a = _finalize(_eval(node[1], session), weyl, pos)
        b = _finalize(_eval(node[2], session), weyl, pos)
        return bracket(a, b)
    raise AssertionError(f"unhandled node {kind}")


def parse_element(text: str, session: Session) -> Union[Scalar, WeylElement]:
    """parse + evaluate in one call."""
    return evaluate(parse(text), session)


def as_element(value: Value, weyl: Weyl) -> WeylElement:
    """Lift an evaluation result to a WeylElement: scalar c becomes c * 1, and
    a monomial goes through _Mono.finalize, as every parsed monomial does."""
    if isinstance(value, Scalar):
        value = _Mono(value)
    return value.finalize(weyl) if isinstance(value, _Mono) else value
