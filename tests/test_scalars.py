"""Exact scalar arithmetic: the sparse polynomial ring over Q."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from winfty.intermediate import make_module
from winfty.scalars import Ring, Scalar, binom, falling, rising
from winfty.weightlab import WEIGHTLAB_SYMBOLS
from winfty.weyl import Weyl, mul

RING = Ring(("a", "b"))
A = RING.sym("a")
B = RING.sym("b")

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))


def poly(draw_terms):
    out = RING.zero
    for (ea, eb), c in draw_terms:
        out = out + RING.const(c) * A ** ea * B ** eb
    return out


polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals),
    max_size=4).map(poly)


def test_constants_and_symbols():
    assert RING.const(Fraction(3, 2)).as_fraction() == Fraction(3, 2)
    assert RING.sym("a") == A
    with pytest.raises(KeyError):
        RING.sym("missing")


def test_rational_constants_hash_like_fractions():
    assert len({Ring().const(3), 3}) == 1
    assert {RING.const(Fraction(1, 2)): "x"}[Fraction(1, 2)] == "x"
    assert hash(Ring().zero) == hash(0)


def test_binom_examples():
    assert binom(2, 3) == 0
    assert binom(A + 1, 2) == (A * A + A) / 2
    assert binom(A, 0) == RING.one


def test_rising_falling_examples():
    k = A
    assert rising(k, 2) == k * k + k
    assert falling(k, 2) == k * k - k
    assert falling(A, 0) == RING.one


@pytest.mark.parametrize("j", range(1, 7))
def test_binom_times_factorial_is_falling(j):
    import math
    assert binom(A, j) * math.factorial(j) == falling(A, j)


@pytest.mark.parametrize("j", range(9))
def test_rising_is_shifted_falling(j):
    assert rising(A, j) == falling(A + j - 1, j)


OTHER = Ring(("x",)).sym("x")


@pytest.mark.parametrize("build, error, message", (
    (lambda: Ring(("a", "a")), ValueError, "duplicate symbols"),
    (lambda: A.as_fraction(), ValueError, "not a rational constant"),
    (lambda: A + OTHER, ValueError, "scalars from different rings"),
    (lambda: A * OTHER, ValueError, "scalars from different rings"),
    (lambda: RING.coerce(OTHER), ValueError, "scalars from different rings"),
    (lambda: A / 0, ZeroDivisionError, "division of scalar by zero"),
    (lambda: A ** -1, ValueError, "negative powers unsupported"),
    (lambda: falling(A, -1), ValueError, "needs j >= 0"),
    (lambda: rising(A, -1), ValueError, "needs j >= 0"),
    (lambda: binom(A, -1), ValueError, "needs j >= 0"),
), ids=("duplicate-symbols", "non-constant-fraction", "two-rings", "two-rings-mul",
        "coerce-two-rings",
        "divide-by-zero", "negative-power", "falling-negative-j", "rising-negative-j",
        "binom-negative-j"))
def test_invalid_scalar_input_raises(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_a_ring_hands_out_one_zero_and_one_one():
    r = Ring(("a", "b"))
    a, b = r.sym("a"), r.sym("b")
    assert r.zero is r.zero and r.const(0) is r.zero
    assert r.one is r.one
    results = [r.zero + a, a + r.zero, r.zero - a, r.one - a, r.one * a, a * r.one,
               r.zero * a, -r.zero, -r.one, r.one + r.one, r.one * r.one, a ** 0,
               r.zero.exact_div(a + 1), (a * b).exact_div(r.one), r.one.exact_div(r.one),
               r.one.substitute({"a": r.zero}), a.substitute({"a": r.one, "b": r.zero}),
               r.zero.substitute({"b": a})]
    assert [str(x) for x in results] == ["a", "a", "-a", "-a + 1", "a", "a", "0", "0", "-1",
                                         "2", "1", "1", "0", "a*b", "1", "1", "1", "0"]
    assert r.zero.terms == {}
    assert r.one == 1


def test_reflected_subtraction_and_division_by_a_constant_scalar():
    assert 1 - A == -(A - 1)
    assert A / RING.const(2) == A * Fraction(1, 2)


def test_exact_div():
    p = (A + 1) * (A - B)
    assert p.exact_div(A + 1) == A - B
    with pytest.raises(ValueError):
        (A + 1).exact_div(B)


def test_truediv_by_polynomial_rejected():
    with pytest.raises((TypeError, ZeroDivisionError, ValueError)):
        (A + 1) / B


def test_substitute_and_shift():
    p = A * A + 3 * B
    assert p.substitute({"a": Fraction(2)}) == RING.const(4) + 3 * B
    assert (A * A).shift("a", 1) == A * A + 2 * A + 1


def test_coeff_of():
    p = 5 * A * A * B + 2 * A + 7
    assert p.coeff_of("a", 2) == 5 * B
    assert p.coeff_of("a", 0) == RING.const(7)


def test_str_is_canonical():
    assert str(A - B) in ("a - b",)
    assert str(RING.zero) == "0"


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == RING.zero


@given(polys, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_power_matches_repeated_product(p, e):
    expected = RING.one
    for _ in range(e):
        expected = expected * p
    assert p ** e == expected


@pytest.mark.parametrize("bad", (0.1, 0.5, "1/2"))
def test_non_rational_constants_are_rejected(bad):
    with pytest.raises(TypeError):
        RING.const(bad)
    with pytest.raises(TypeError):
        RING.coerce(bad)
    with pytest.raises(TypeError):
        A / bad
    # Fraction(bad) would read 0.1 as its binary expansion and parse "1/2"
    for combinatorial in (falling, rising, binom):
        with pytest.raises(TypeError):
            combinatorial(bad, 2)


@pytest.mark.parametrize("bad", (0.5, 0.1, "1/2"))
def test_the_public_constructor_admits_only_ints_and_fractions(bad):
    # a float was stored as is: its square's terms read {(2,): 0.25}, and
    # str() of a 0.1 coefficient raised AttributeError
    with pytest.raises(TypeError, match="int or Fraction"):
        Scalar(Ring(("a",)), {(1,): bad})
    assert Scalar(Ring(("a",)), {(1,): Fraction(1, 2), (0,): 3}).terms == {
        (1,): Fraction(1, 2), (0,): Fraction(3)}


def test_float_coefficients_rejected_by_elements_and_modules():
    # a float used to be stored as its binary expansion, 3602879701896397/2^55
    with pytest.raises(TypeError):
        Weyl(1).monomial((1,), (1,), 0.1)
    with pytest.raises(TypeError):
        make_module("A", [0.1], Weyl(1, ring=Ring(("alpha",)), subalgebra="w1"))


@pytest.mark.parametrize("op", (
    lambda s: s + 0.5, lambda s: 0.5 + s, lambda s: s - 0.5, lambda s: 0.5 - s,
    lambda s: s * 0.5, lambda s: 0.5 * s,
), ids=("add", "radd", "sub", "rsub", "mul", "rmul"))
def test_float_operands_are_rejected_by_the_one_rule(op):
    with pytest.raises(TypeError, match="int or Fraction"):
        op(A + 1)


def test_int_and_fraction_operands_join_a_sum_as_constants():
    assert A + 2 == Scalar(RING, {(1, 0): 1, (0, 0): 2})
    assert Fraction(1, 2) - A == Scalar(RING, {(1, 0): -1, (0, 0): Fraction(1, 2)})
    assert (A + 1) - 1 == A and RING.zero + Fraction(-3, 4) == Fraction(-3, 4)
    assert (A + 0) is A


# -- packed monomial keys ---------------------------------------------------


@pytest.mark.parametrize("key", (
    (-1,), (1, 2), (), (2 ** 63,), (1.0,), (Fraction(1),), 1, "a",
), ids=("negative", "too-long", "too-short", "past-the-limit", "float", "fraction",
        "not-a-tuple", "string"))
def test_the_constructor_rejects_a_malformed_exponent(key):
    # (-1,) printed 1 and (1, 2) printed a: the text dropped what it could not show
    with pytest.raises(ValueError, match="an exponent must be a tuple of 1 ints"):
        Scalar(Ring(("a",)), {key: 1})


def test_the_largest_exponent_is_admitted_and_printed():
    top = 2 ** 63 - 1
    s = Scalar(RING, {(top, 0): 1, (0, top): 2})
    assert s.terms == {(top, 0): 1, (0, top): 2}
    assert str(s) == f"a^{top} + 2*b^{top}"
    assert s.degree_in("b") == top and s.coeff_of("a", top) == 1


def test_a_product_past_the_exponent_limit_raises():
    half = A ** 2 ** 62
    with pytest.raises(ValueError, match="exceeds 2\\^63 - 1"):
        half * half
    with pytest.raises(ValueError, match="exceeds 2\\^63 - 1"):
        (half + 1) * (half + B)
    with pytest.raises(ValueError, match="exceeds 2\\^63 - 1"):
        A ** 2 ** 63
    with pytest.raises(ValueError, match="exceeds 2\\^63 - 1"):
        (half * B).substitute({"b": half})
    x = Weyl(1, ring=RING).monomial((1,), (1,), half)
    with pytest.raises(ValueError, match="exceeds 2\\^63 - 1"):
        mul(x, x)
    # a lower field at its limit does not carry into the field above it
    top = B ** (2 ** 63 - 1)
    assert (top * A).terms == {(1, 2 ** 63 - 1): 1}


def test_exact_div_finds_a_negative_exponent_in_a_lower_field():
    # a^2 b / (a b^2): the a field divides, the b field borrows
    with pytest.raises(ValueError, match="not divisible"):
        (A ** 2 * B).exact_div(A * B ** 2)
    with pytest.raises(ValueError, match="not divisible"):
        (A ** 3 + B).exact_div(A * B + 1)
    assert (A ** 2 * B ** 3 - A * B ** 4).exact_div(A * B ** 2) == A * B - B ** 2


def test_key_order_is_the_lex_order_of_exponents():
    s = Scalar(RING, {(0, 5): 1, (1, 0): 2, (1, 3): 3, (0, 0): 4})
    assert [RING._unpack(e) for e in sorted(s.nums)] == [(0, 0), (0, 5), (1, 0), (1, 3)]
    assert str(s) == "3*a*b^3 + 2*a + b^5 + 4"


# -- differential check against sympy -------------------------------------
#
# Polynomials are drawn as term lists over few monomials and a small
# coefficient pool (denominators > 1, negative values), so that terms
# collide and cancel; each is built both as a Scalar (through the public
# constructor, not the arithmetic under test) and as a sympy expression.

COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                          Fraction(3, 4), Fraction(-5, 3), Fraction(2), Fraction(7, 6)])


def term_lists(ring, max_factors, min_size=0, max_size=5):
    # a monomial is a product of up to max_factors ring symbols
    mono = st.lists(st.integers(0, ring.nvars - 1), max_size=max_factors).map(
        lambda idx: tuple(idx.count(i) for i in range(ring.nvars)))
    return st.lists(st.tuples(mono, COEFFS), min_size=min_size, max_size=max_size)


def build(ring, terms):
    acc = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    gens = sympy.symbols(ring.symbols)
    expr = sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([g ** k for g, k in zip(gens, e)]) for e, c in terms),
               sympy.Integer(0))
    return Scalar(ring, acc), expr


def assert_matches(got, expr, ring):
    assert all(isinstance(c, Fraction) and c != 0 for c in got.terms.values())
    want = sympy.Poly(expr, *sympy.symbols(ring.symbols), domain="QQ").as_dict()
    assert got.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in want.items()}


RINGS = {"ab": Ring(("a", "b")), "weightlab": Ring(WEIGHTLAB_SYMBOLS)}


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_sympy(ring_name, data):
    ring = RINGS[ring_name]
    terms = term_lists(ring, 3)
    p, P = build(ring, data.draw(terms))
    q, Q = build(ring, data.draw(terms))
    m, M = build(ring, data.draw(term_lists(ring, 3, 1, 1)))  # one term, maybe a constant
    e = data.draw(st.integers(0, 4))
    for got, want in ((p + q, P + Q), (p - q, P - Q), (p * q, P * Q),
                      (p - p, 0), ((p + q) * (p - q), P ** 2 - Q ** 2), (p ** e, P ** e),
                      (m * m, M * M), (m * p, M * P), (m ** e, M ** e)):
        assert_matches(got, want, ring)
    assert hash(p * q) == hash(q * p)
    assert hash((p + q) - q) == hash(p)
    if not q.is_zero():
        assert_matches((p * q).exact_div(q), P, ring)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_div_rejects_non_divisors_like_sympy(ring_name, data):
    ring = RINGS[ring_name]
    p, P = build(ring, data.draw(term_lists(ring, 3)))
    q, Q = build(ring, data.draw(term_lists(ring, 2)))
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            p.exact_div(q)
        return
    gens = sympy.symbols(ring.symbols)
    quot, rem = sympy.div(P, Q, *gens, domain="QQ")
    if rem == 0:
        assert_matches(p.exact_div(q), quot, ring)
    else:
        with pytest.raises(ValueError):
            p.exact_div(q)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_substitute_shift_coeff_of_match_sympy(ring_name, data):
    ring = RINGS[ring_name]
    x, y = ring.symbols[0], ring.symbols[-1]
    sx, sy = sympy.symbols((x, y))
    p, P = build(ring, data.draw(term_lists(ring, 3)))
    v, V = build(ring, data.draw(term_lists(ring, 2)))
    w, Wx = build(ring, data.draw(term_lists(ring, 1)))
    d = data.draw(COEFFS)
    k = data.draw(st.integers(0, 3))
    assert_matches(p.substitute({x: v}), P.subs(sx, V), ring)
    assert_matches(p.substitute({x: v, y: w}),
                   P.subs({sx: V, sy: Wx}, simultaneous=True), ring)
    assert_matches(p.substitute({y: d}), P.subs(sy, sympy.Rational(d.numerator, d.denominator)),
                   ring)
    assert_matches(p.shift(x, d), P.subs(sx, sx + sympy.Rational(d.numerator, d.denominator)),
                   ring)
    assert_matches(p.shift(x, v), P.subs(sx, sx + V), ring)
    assert_matches(p.coeff_of(x, k), sympy.expand(P).coeff(sx, k), ring)


def test_substitute_builds_successive_powers_one_product_each(monkeypatch):
    # before, each power v^p was its own repeated squaring: 17 products here
    alpha = Ring(("alpha",)).sym("alpha")
    f = falling(alpha + Fraction(1, 2), 6)
    calls = []
    product = Scalar.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    got = f.shift("alpha", 3)
    assert len(calls) <= 5
    monkeypatch.undo()
    assert got == falling(alpha + Fraction(7, 2), 6)
    # a lone high power, and two symbols with gaps between their powers
    assert (alpha ** 9).shift("alpha", 1) == (alpha + 1) ** 9
    assert (A ** 5 * B ** 2 + A ** 2).substitute({"a": B - 1, "b": A + B}) == \
        (B - 1) ** 5 * (A + B) ** 2 + (B - 1) ** 2
