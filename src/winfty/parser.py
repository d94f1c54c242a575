"""Expression parser for the canonical element grammar (FORMAT.md, version 1).

parse() builds a small tuple-based AST; evaluate() interprets it against a
Session (dimension, coefficient ring, subalgebra flavor) and yields a
WeylElement or a Scalar.  The grammar round-trips with the printer:
parse(format_element(x)) evaluates back to x for every canonical element.

A token is a pair (text, position in the input), cut by one findall pass of
one regular expression; whitespace is dropped, and the parser tells tokens
apart by their text alone.

Sums and products are n-ary nodes.  A sum is folded left to right by
weyl._Sum, the fold behind WeylElement.__add__, so its value, its basis (the
rule in FORMAT.md, "Semantics") and its first error are those of
((a + b) + c) + ...  The factors of a written monomial merge in place into
one _Mono without going through the associative product, and _Mono.finalize
is the one way a monomial becomes an element, for sums, products, brackets,
powers and evaluate alike.  A left factor with no D only shifts grades, so
in w1 and hat mode it skips the flavor's check of mu: a lone t-monomial
through _Mono._element, and a sum of t-monomials and scalars (negated,
nested or not) as a _Shift wherever every factor to its left has no D.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Tuple, Union

from .scalars import Rat, Scalar
from .weyl import FALLING, FULL, POWER, Weyl, WeylElement, _Sum, bracket, mul


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

# One findall pass: whitespace, d/dt, t^(q), t[q,...], [Dk]_j, number, Dk,
# name, operator, and "." for a character that starts no token, in that
# order of precedence.
_TOKEN_RE = re.compile(
    r"\s+|d/dt|t\^\(FRAC\)|t\[FRAC(?:,FRAC)*\]|\[D\d*\]_\d+|\d+(?:/\d+)?|D\d*"
    r"|[A-Za-z_][A-Za-z_0-9]*|[-+*^()\[\],]|.".replace("FRAC", _FRAC),
    re.DOTALL,
)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_FALL_RE = re.compile(r"\[D(\d*)\]_(\d+)")

# (text, position); the end of the input is ("", len(text)), twice, so that
# an atom or an exponent can be read past it before the error is raised.
_Token = Tuple[str, int]


def _tokenize(text: str) -> List[_Token]:
    toks = _TOKEN_RE.findall(text)
    out = [(tok, pos) for tok, pos in zip(toks, accumulate(map(len, toks), initial=0))
           if not tok.isspace()]
    out += [("", len(text))] * 2
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
        self._next = iter(self.tokens).__next__
        self.cur = self._next()

    def _advance(self) -> _Token:
        tok = self.cur
        self.cur = self._next()
        return tok

    def _expect(self, text: str) -> _Token:
        if self.cur[0] != text:
            raise ParseError(f"expected {text!r}, found {self.cur[0]!r}", self.cur[1])
        return self._advance()

    def parse(self) -> AST:
        try:
            node = self.expr()
            if self.cur[0]:
                raise ParseError(f"trailing input {self.cur[0]!r}", self.cur[1])
            return node
        except (ValueError, RecursionError):  # a ParseError, int()'s digit limit, deep nesting
            # A character that starts no token (every token starts with a name
            # character, a decimal digit or an operator) is reported ahead of
            # whatever error the parse met.  No rule accepts one, so a parse
            # that succeeds holds none, and only a failed parse looks.
            for tok, pos in self.tokens:
                if len(tok) == 1 and not (tok in _NAME_START or tok in "-+*^()[],"
                                          or tok.isdecimal()):
                    raise ParseError(f"unexpected character {tok!r}", pos) from None
            raise

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
        start = self.cur[1]
        node = self.unary()
        if self.cur[0] != "*":
            return node
        factors = [(start, node)]
        while self.cur[0] == "*":
            pos = self._advance()[1]
            factors.append((pos, self.unary()))
        return ("prod", tuple(factors))

    def unary(self) -> AST:
        if self.cur[0] == "-":
            self._advance()
            return ("neg", self.unary())
        node = self.atom()
        if self.cur[0] == "^":
            pos = self._advance()[1]
            e = self._advance()[0]
            if not e.isdecimal():  # a number with no "/"
                raise ParseError("exponent must be a nonnegative integer", pos + 1)
            node = ("pow", node, int(e), pos)
        return node

    def atom(self) -> AST:
        # the atoms told apart by their text, numbers (the commonest) first
        text, pos = self._advance()
        c = text[0] if text else ""
        if c.isdecimal():
            return ("num", _rational(text, pos))
        if c == "t" and text[1:2] in ("^", "["):
            if text[1] == "^":
                return ("t", (_rational(text[3:-1], pos + 3),), pos)
            comps = []
            at = pos + 2
            for part in text[2:-1].split(","):
                comps.append(_rational(part, at))
                at += len(part) + 1
            return ("t", tuple(comps), pos)
        if c == "D":
            idx = int(text[1:]) - 1 if len(text) > 1 else 0
            return ("d", idx, len(text) > 1, pos)
        if c == "[" and text != "[":
            m = _FALL_RE.fullmatch(text)
            idx = int(m.group(1)) - 1 if m.group(1) else 0
            return ("fall", idx, int(m.group(2)), pos)
        if text == "d/dt":
            return ("ddt", pos)
        if c in _NAME_START:
            return ("name", text, pos)
        if text == "(":
            node = self.expr()
            self._expect(")")
            return node
        if text == "[":
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
    the printer emits monomials.  Deferring the build also lets a t-only
    factor stand left of any element in W^(1) mode, as in "t^(1)*D" or
    "t^(2)*d/dt", without tripping the subalgebra guard: it only shifts
    grades.

    A _Mono belongs to the product that is building it: each leaf and power
    makes its own, nothing else holds it, and the AST's tuples are only read.
    So a product merges its next factor into it in place, and a negation
    negates its coefficient in place.
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
        x = self._element(weyl)
        weyl.check_mu(self.mu or (0,) * weyl.n)
        return x

    def _element(self, weyl: Weyl) -> WeylElement:
        # finalize without the flavor's check of mu
        gamma = (0,) * weyl.n if self.gamma is None else weyl.lattice.ambient(
            weyl.coords(self.gamma))
        mu = self.mu or (0,) * weyl.n
        c = weyl.ring.one if self.coeff is None else self.coeff
        return WeylElement._trusted(weyl, {(gamma, mu): c} if c else {}, self.basis)


class _Shift:
    """A sum with no D, standing in a product in w1 or hat mode where every
    factor to its left has no D, whose flavor refuses it as an element.  Like
    a lone t-monomial there it only shifts grades, so it multiplies any
    element (FORMAT.md, "Semantics"): ``x`` is the sum, its summands built
    without the flavor's check of mu.  A product whose factors all lack D
    stays a _Shift, and is refused with that check's error when it ends.
    """

    __slots__ = ("x",)

    def __init__(self, x: WeylElement):
        self.x = x

    def __neg__(self) -> "_Shift":
        self.x = -self.x
        return self


# quoted: typing caches each subscription, so a class named here stays alive
Value = Union["Scalar", "WeylElement", "_Mono", "_Shift"]


def _no_d(v: Value) -> bool:
    """A scalar, a monomial with no D or a _Shift: it only shifts grades."""
    return type(v) is Scalar or type(v) is _Shift or type(v) is _Mono and not v.has_d


def _shift_part(v: Value, weyl: Weyl) -> WeylElement:
    """A summand or factor of a _Shift: a value with no D as an element,
    without the flavor's check of mu.  A value with a D raises that check's
    error, as adding it to a sum with no D would."""
    if type(v) is _Shift:
        return v.x
    if not _no_d(v):
        weyl.check_mu((0,) * weyl.n)  # raises in w1 and hat mode
    return (v if type(v) is _Mono else _Mono(v))._element(weyl)


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
    # the next factor merges into a running _Mono in place (see _Mono)
    ta, tb = type(a), type(b)
    if ta is _Mono:
        if tb is Scalar:
            a.coeff = _times(a.coeff, b)
            return a
        if tb is _Mono:
            # Merge when the written order is already normal (t's left of D's
            # factor-wise) and the D-parts add: one basis, and falling factors
            # on distinct coordinates.  Otherwise fall back to the associative
            # product.
            a_d = a.has_d
            if not a_d or b.gamma is None or not any(b.gamma):
                clash = a_d and b.has_d and (a.basis != b.basis or a.basis == FALLING and any(
                    x and y for x, y in zip(a.mu, b.mu)))
                if not clash:
                    a.coeff = _times(a.coeff, b.coeff)
                    a.gamma, a.mu = _plus(a.gamma, b.gamma), _plus(a.mu, b.mu)
                    a.basis = a.basis if a_d else b.basis
                    return a
        elif not a.has_d and tb is not _Shift:  # it only shifts grades, so the
            return mul(a._element(weyl), b)      # flavor need not admit it
    elif ta is Scalar:
        if tb is Scalar:
            return a * b
        if tb is _Mono:
            b.coeff = _times(b.coeff, a)
            return b
        if tb is not _Shift:
            return b.scale(a)
    elif ta is _Shift:
        if _no_d(b):  # the product has no D either
            a.x = mul(a.x, _shift_part(b, weyl))
            return a
        return mul(a.x, _finalize(b, weyl, pos))
    elif tb is Scalar:
        return a.scale(b)
    if tb is _Shift:  # a has no D either (see _eval), so the product is a _Shift
        b.x = mul(_shift_part(a, weyl), b.x)
        return b
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
    if type(a) is _Mono:
        a.coeff = weyl.ring.const(-1) if a.coeff is None else -a.coeff
        return a
    return -a


def _eval_sum(summands, session: Session, left: bool = False) -> Value:
    # The first summand joins the sum only once the second is evaluated, and
    # a run of scalar summands stays a scalar, as in pairwise addition.  A
    # sum standing where it may only shift grades (``left``: in w1 and hat
    # mode, with no factor with a D to its left, see _eval) that starts with
    # no D is a _Shift, and its summands stand there too.
    weyl = session.weyl
    lift = as_element
    ev = _eval_left if left else _eval
    it = iter(summands)
    head = ev(next(it)[1], session)
    if left and _no_d(head):
        lift = _shift_part
    else:
        ev = _eval
    acc = None
    for neg, node in it:
        v = ev(node, session)
        if acc is None:
            if isinstance(head, Scalar) and isinstance(v, Scalar):
                head = head - v if neg else head + v
                continue
            acc = _Sum(lift(head, weyl))
        acc.add(lift(v, weyl), neg)
    if acc is None:
        return head
    return acc.element() if lift is as_element else _Shift(acc.element())


def _eval_left(node: AST, session: Session) -> Value:
    """A factor in w1 or hat mode with no factor with a D to its left: a sum
    there, negated or not, may be a _Shift (see _eval_sum)."""
    kind = node[0]
    if kind == "sum":
        return _eval_sum(node[1], session, left=True)
    if kind == "neg":
        return _neg_value(_eval_left(node[1], session), session.weyl)
    return _eval(node, session)


def evaluate(node: AST, session: Session) -> Union[Scalar, WeylElement]:
    v = _eval(node, session)
    return v.finalize(session.weyl) if isinstance(v, _Mono) else v


def _eval(node: AST, session: Session) -> Value:
    # node kinds in the order a printed element uses them most
    weyl = session.weyl
    kind = node[0]
    if kind == "prod":
        # in w1 and hat mode a sum with no D may stand where every factor to
        # its left has none (see _Shift); in full mode _eval_left reads as
        # _eval, so a printed element takes the plain loop alone
        shifting = weyl.subalgebra != FULL
        it = iter(node[1])
        first = next(it)[1]
        if first[0] == "sum":  # a coefficient such as (alpha + 1), or a shift
            value = _eval_sum(first[1], session, left=shifting)
        else:
            value = _eval_left(first, session) if shifting else _eval(first, session)
        if shifting:
            for pos, factor in it:
                value = _mul_values(value, _eval_left(factor, session) if _no_d(value)
                                    else _eval(factor, session), weyl, pos)
        for pos, factor in it:
            value = _mul_values(value, _eval(factor, session), weyl, pos)
        if type(value) is _Shift:  # no factor had a D: refused as the sum was
            weyl.check_mu((0,) * weyl.n)  # raises
        return value
    if kind == "t":
        gamma, pos = node[1], node[2]
        if len(gamma) != weyl.n:
            raise ParseError(f"t-monomial has {len(gamma)} coordinates, "
                             f"session has n = {weyl.n}", pos)
        return _Mono(gamma=gamma)
    if kind == "num":
        # the parser's own int or Fraction, in lowest terms; a zero is the empty map
        q, ring = node[1], weyl.ring
        return Scalar._trusted(ring, q.denominator, {0: q.numerator} if q else {})
    if kind == "d":
        idx, explicit, pos = node[1], node[2], node[3]
        if not explicit and weyl.n != 1:
            raise ParseError("bare D is ambiguous for n > 1; use D1..Dn", pos)
        if not 0 <= idx < weyl.n:
            raise ParseError(f"D{idx + 1} out of range for n = {weyl.n}", pos)
        mu = [0] * weyl.n
        mu[idx] = 1
        return _Mono(mu=tuple(mu))
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
    if kind == "sum":
        return _eval_sum(node[1], session)
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
