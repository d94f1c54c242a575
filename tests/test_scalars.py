"""Exact scalar arithmetic: the sparse polynomial ring over Q."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winfty.scalars import Ring, binom, falling, rising

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
