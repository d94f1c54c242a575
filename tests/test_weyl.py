"""Core algebra: the associative product, the bracket, grading, bases,
and the operator-action oracle that keeps the product formula honest."""

import random
from fractions import Fraction

import pytest

from winfty.lattice import Direction
from winfty.printer import format_element
from winfty.scalars import Ring
from winfty.weyl import (BasisMismatchError, GradingWindow, SubalgebraError,
                         Weyl, act_on_combination, bracket, cocycle,
                         degree_one_bracket, mul, operator_action, verify_jacobi)

W = Weyl(1)
W2 = Weyl(2)


def rand_element(weyl, rng, max_mu=4, w1=False):
    out = weyl.zero()
    for _ in range(rng.randint(1, 3)):
        gamma = tuple(rng.randint(-5, 5) for _ in range(weyl.n))
        mu = [0] * weyl.n
        for _ in range(rng.randint(1 if w1 else 0, max_mu)):
            mu[rng.randrange(weyl.n)] += 1
        if w1 and sum(mu) == 0:
            mu[0] = 1
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        out = out + weyl.monomial(gamma, mu, c)
    return out


# -- the product -----------------------------------------------------------


def test_mul_td_t2d():
    got = mul(W.tD((1,)), W.tD((2,)))
    assert got == W.monomial((3,), (2,)) + W.monomial((3,), (1,), 2)


def test_mul_across_negative_degree():
    got = mul(W.tD((2,)), W.tD((-2,)))
    assert got == W.monomial((0,), (2,)) + W.monomial((0,), (1,), -2)


def test_mul_with_mu_zero_left_factor_shifts():
    x = W.t((Fraction(5, 2),))
    y = W.monomial((1,), (3,))
    assert mul(x, y) == W.monomial((Fraction(7, 2),), (3,))


def test_mul_associative_on_random_triples():
    rng = random.Random(13)
    for weyl in (W, W2):
        for _ in range(100):
            x, y, z = (rand_element(weyl, rng, max_mu=3) for _ in range(3))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_mul_rejects_falling_basis():
    xf = W.monomial((1,), (2,), basis="falling")
    with pytest.raises(BasisMismatchError):
        mul(xf, xf)


# -- kernel differential checks --------------------------------------------
#
# Rational and formal coefficients (multi-term polynomials in a1, a2), and
# grades with zero coordinates, where the b_i = 0 pruning of the lambda sum
# applies.

FORMAL = Ring(("a1", "a2"))


def rand_coeff(ring, rng):
    q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    if not ring.symbols:
        return q
    a1, a2 = ring.sym("a1"), ring.sym("a2")
    return (ring.const(q) + a1 * rng.randint(-3, 3)
            + a1 ** rng.randint(0, 2) * a2 * rng.randint(-3, 3))


def rand_kernel_element(weyl, rng, max_mu=4, w1=False):
    out = weyl.zero()
    for _ in range(rng.randint(1, 3)):
        gamma = tuple(0 if rng.random() < 0.4 else rng.randint(-5, 5)
                      for _ in range(weyl.n))
        mu = [0] * weyl.n
        for _ in range(rng.randint(1 if w1 else 0, max_mu)):
            mu[rng.randrange(weyl.n)] += 1
        out = out + weyl.monomial(gamma, mu, rand_coeff(weyl.ring, rng))
    return out


KERNEL_ALGEBRAS = [Weyl(n, ring=ring) for n in (1, 2) for ring in (Ring(), FORMAL)]


@pytest.mark.parametrize("weyl", KERNEL_ALGEBRAS, ids=lambda w: f"n{w.n}-{w.ring.nvars}sym")
def test_bracket_is_commutator_of_mul(weyl):
    rng = random.Random(31 + weyl.n + weyl.ring.nvars)
    for _ in range(40):
        x, y = rand_kernel_element(weyl, rng), rand_kernel_element(weyl, rng)
        assert bracket(x, y) == mul(x, y) - mul(y, x)


@pytest.mark.parametrize("weyl", KERNEL_ALGEBRAS, ids=lambda w: f"n{w.n}-{w.ring.nvars}sym")
def test_kernel_mul_matches_operator_action(weyl):
    rng = random.Random(41 + weyl.n + weyl.ring.nvars)
    for _ in range(30):
        x, y = rand_kernel_element(weyl, rng), rand_kernel_element(weyl, rng)
        xy = mul(x, y)
        for _ in range(3):
            g = tuple(Fraction(0) if rng.random() < 0.3
                      else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(weyl.n))
            assert operator_action(xy, g) == act_on_combination(
                x, operator_action(y, g))


@pytest.mark.parametrize("ring", [Ring(), FORMAL], ids=["rational", "formal"])
def test_hat_bracket_is_commutator_plus_cocycle(ring):
    hat = Weyl(1, ring=ring, subalgebra="hat")
    rng = random.Random(51 + ring.nvars)
    for _ in range(40):
        x = rand_kernel_element(hat, rng, w1=True)
        y = rand_kernel_element(hat, rng, w1=True)
        if rng.random() < 0.5:
            # opposite grades, where the cocycle can be nonzero
            (g, mu), c = next(iter(x.terms.items()))
            y = y + hat.monomial(tuple(-v for v in g), (rng.randint(1, 4),), c)
        got = bracket(x, y)
        assert got == mul(x, y) - mul(y, x) + hat.central(cocycle(x, y))
        assert got.central == cocycle(x, y)


# -- the bracket -----------------------------------------------------------


def test_bracket_td_t2d():
    assert bracket(W.tD((1,)), W.tD((2,))) == W.tD((3,))


def test_bracket_antisymmetry_on_self():
    x = W.monomial((2,), (3,), Fraction(5, 3))
    assert bracket(x, x).is_zero()


def test_bracket_tinv_ti():
    i = 2
    assert bracket(W.tD((-1,)), W.tD((i,))) == W.tD((i - 1,)).scale(i + 1)


def test_jacobi_spot_and_random():
    assert verify_jacobi(W.tD((1,)), W.tD((2,)), W.tD((3,))).passed
    rng = random.Random(5)
    for _ in range(50):
        x, y, z = (rand_element(W2, rng, max_mu=3) for _ in range(3))
        assert verify_jacobi(x, y, z).passed


# -- basis conversion ------------------------------------------------------


def test_to_falling_d_squared():
    d2 = W.monomial((0,), (2,))
    expect = (W.monomial((0,), (2,), basis="falling")
              + W.monomial((0,), (1,), basis="falling"))
    assert d2.to_falling() == expect


def test_falling_one_is_d():
    assert W.monomial((0,), (1,), basis="falling").to_power() == W.D()


def test_t2_falling3_expansion():
    x = W.monomial((2,), (3,), basis="falling")
    expect = (W.monomial((2,), (3,)) - W.monomial((2,), (2,), 3)
              + W.monomial((2,), (1,), 2))
    assert x.to_power() == expect


def test_equality_and_hash_cross_bases():
    e = W.monomial((1,), (2,))
    f = e.to_falling()
    assert e == f and f == e
    assert hash(e) == hash(f)
    assert len({e, f}) == 1
    assert e != f.scale(2)
    hat = Weyl(1, subalgebra="hat")
    h = hat.monomial((1,), (3,)) + hat.central(2)
    assert h.to_falling() == h and hash(h.to_falling()) == hash(h)
    assert h.to_falling() != h - hat.central(1)


def test_conversions_mutually_inverse():
    rng = random.Random(3)
    for _ in range(40):
        x = rand_element(W2, rng, max_mu=4)
        assert x.to_falling().to_power() == x


# -- oracle ----------------------------------------------------------------


def test_operator_action_examples():
    g = (Fraction(7, 2),)
    assert operator_action(W.D(), g) == {g: W.ring.const(Fraction(7, 2))}
    assert operator_action(W.tD((1,)), (Fraction(2),)) == {
        (Fraction(3),): W.ring.const(2)}
    x = W.monomial((3,), (2,)) + W.monomial((3,), (1,), 2)
    gam = Fraction(5)
    assert operator_action(x, (gam,)) == {
        (Fraction(8),): W.ring.const(gam * gam + 2 * gam)}


def test_mul_agrees_with_composed_action():
    rng = random.Random(77)
    for weyl in (W, W2):
        for _ in range(60):
            x = rand_element(weyl, rng)
            y = rand_element(weyl, rng)
            xy = mul(x, y)
            for _ in range(3):
                g = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                          for _ in range(weyl.n))
                assert operator_action(xy, g) == act_on_combination(
                    x, operator_action(y, g))


# -- degree-one closed form ------------------------------------------------


def test_degree_one_bracket_vanishes_on_equal_pair():
    d = Direction.of((1, 2))
    assert degree_one_bracket(W2, (1, 1), d, (1, 1), d).is_zero()


def test_degree_one_bracket_n1():
    d = Direction.of((1,))
    i, j = 2, 5
    got = degree_one_bracket(W, (i,), d, (j,), d)
    assert got == W.tD((i + j,)).scale(j - i)


def test_degree_one_bracket_n2():
    # Both pairings <gamma,d> and <beta,d'> vanish here, so the commutator
    # is zero: D1 passes freely over t^(0,1) and D2 over t^(1,0).
    got = degree_one_bracket(W2, (1, 0), Direction.of((1, 0)),
                             (0, 1), Direction.of((0, 1)))
    assert got.is_zero()
    assert got == bracket(W2.tD((1, 0), 0), W2.tD((0, 1), 1))
    # A pair with a nonzero pairing does produce the t^(beta+gamma) term.
    got2 = degree_one_bracket(W2, (1, 0), Direction.of((0, 1)),
                              (0, 1), Direction.of((1, 0)))
    assert got2 == bracket(W2.tD((1, 0), 1), W2.tD((0, 1), 0))
    assert not got2.is_zero()


def test_degree_one_matches_generic_bracket():
    rng = random.Random(21)
    for _ in range(40):
        beta = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        gam = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        d = Direction.of([Fraction(rng.randint(-3, 3)) for _ in range(2)])
        d2 = Direction.of([Fraction(rng.randint(-3, 3)) for _ in range(2)])
        assert degree_one_bracket(W2, beta, d, gam, d2) == bracket(
            W2.from_direction(beta, d), W2.from_direction(gam, d2))


# -- grading ---------------------------------------------------------------


def test_grade():
    assert W.monomial((3,), (2,)).grade() == (Fraction(3),)
    assert (W.tD((1,)) + W.tD((2,))).grade() is None


@pytest.mark.parametrize("gamma", [(0.1,), ("1",)])
def test_non_rational_grades_rejected(gamma):
    # a float grade would be stored as its binary expansion
    with pytest.raises(TypeError):
        W.tD(gamma)
    with pytest.raises(TypeError):
        W.monomial(gamma, (1,))


def test_project_window():
    x = W.tD((1,)) + W.monomial((5,), (3,))
    win = GradingWindow.interval(2)
    assert x.project(win) == W.monomial((5,), (3,))


def test_project_keeps_central_exactly_when_window_holds_zero():
    hat = Weyl(1, subalgebra="hat")
    x = hat.tD((3,)) + hat.central(5)
    assert x.project(GradingWindow.interval(0)) == x
    assert x.project(GradingWindow.interval(1)) == hat.tD((3,))
    assert x.project(GradingWindow.interval(-2, 0)).is_zero()


def test_w1_guard():
    w1 = Weyl(1, subalgebra="w1")
    with pytest.raises(SubalgebraError):
        w1.t((1,))
    assert w1.tD((1,)).in_w1()


def test_symbolic_coefficients_flow_through_bracket():
    ring = Ring(("alpha",))
    w = Weyl(1, ring=ring)
    a = ring.sym("alpha")
    x = w.tD((1,), 0).scale(a)
    got = bracket(x, w.tD((2,)))
    assert got == w.tD((3,)).scale(a)
    assert "alpha" in format_element(got)
