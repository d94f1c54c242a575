"""The one-variable 2-cocycle and the centrally extended bracket."""

import math
import random
from fractions import Fraction

import pytest

from winfty.lattice import Lattice
from winfty.scalars import Ring
from winfty.weyl import (SubalgebraError, Weyl, _bracket_cocycle, bracket, cocycle, mul,
                         verify_cocycle_condition, verify_jacobi)

W = Weyl(1)
HAT = Weyl(1, subalgebra="hat")


def fall(weyl, a, m, coeff=1):
    return weyl.monomial((a,), (m,), coeff, basis="falling")


def test_cocycle_basic_value():
    assert cocycle(fall(W, 2, 1), fall(W, -2, 1)).as_fraction() == -1


def test_cocycle_delta_vanishes():
    assert cocycle(fall(W, 1, 1), fall(W, 2, 1)).is_zero()


def test_cocycle_negative_binomial_witness():
    # binom(-1, 4) = 1 enters here, giving the +-2 antisymmetric pair
    assert cocycle(fall(W, 3, 1), fall(W, -3, 2)).as_fraction() == -2
    assert cocycle(fall(W, -3, 2), fall(W, 3, 1)).as_fraction() == 2


def test_cocycle_accepts_power_basis():
    assert cocycle(W.tD((2,)), W.tD((-2,))).as_fraction() == -1


def test_cocycle_needs_one_variable():
    w2 = Weyl(2)
    with pytest.raises(SubalgebraError):
        cocycle(w2.tD((1, 0)), w2.tD((-1, 0), 1))


@pytest.mark.parametrize("x, y", [
    (W.tD((1,)), Weyl(2).monomial((-1, 0), (2, 0))),
    (Weyl(1, lattice=Lattice([(Fraction(1, 2),)])).monomial((1,), (2,)),
     W.monomial((-1,), (1,))),
], ids=("n=1-with-n=2", "half-Z-with-Z"))
def test_cocycle_rejects_incompatible_algebras(x, y):
    # elements of different algebras: bracket and the cocycle refuse them
    with pytest.raises(ValueError):
        bracket(x, y)
    with pytest.raises(ValueError):
        cocycle(x, y)


def test_ext_bracket_adds_central_term():
    got = bracket(fall(HAT, 2, 1).to_power(), fall(HAT, -2, 1).to_power())
    plain = bracket(W.tD((2,)), W.tD((-2,)))
    assert {k: v for k, v in got.terms.items()} == dict(plain.terms)
    assert got.central.as_fraction() == -1


def test_ext_bracket_center_is_central():
    c = HAT.central(Fraction(5, 2))
    assert bracket(c, HAT.tD((3,))).is_zero()
    assert bracket(HAT.tD((3,)), c).is_zero()


def test_cocycle_condition_accepts_a_central_part():
    # the condition raised SubalgebraError, though bracket and cocycle take it
    x = HAT.tD((2,)) + HAT.central(1)
    y, z = HAT.tD((-3,)), HAT.monomial((1,), (2,), 3)
    assert verify_cocycle_condition(x, y, z).passed
    assert verify_cocycle_condition(y, z, x).passed


def test_ext_bracket_reduces_to_plain_when_delta_fails():
    got = bracket(HAT.tD((1,)), HAT.tD((2,)))
    assert got.central.is_zero()
    assert dict(got.terms) == dict(HAT.tD((3,)).terms)


def test_cocycle_condition_examples():
    assert verify_cocycle_condition(W.tD((1,)), W.tD((-1,)), W.monomial((0,), (1,))).passed
    x = W.monomial((2,), (3,), Fraction(1, 2))
    assert verify_cocycle_condition(x, x, W.tD((1,))).passed
    assert verify_cocycle_condition(
        fall(W, 2, 2).to_power(), fall(W, -1, 1).to_power(),
        fall(W, -1, 1).to_power()).passed


def rand_hat(rng, max_mu=4):
    out = HAT.zero()
    for _ in range(rng.randint(1, 3)):
        gamma = (rng.randint(-5, 5),)
        mu = (rng.randint(1, max_mu),)
        out = out + HAT.monomial(gamma, mu,
                                 Fraction(rng.randint(-9, 9) or 1,
                                          rng.randint(1, 4)))
    return out


def test_cocycle_antisymmetry_random():
    rng = random.Random(19)
    for _ in range(60):
        x, y = rand_hat(rng), rand_hat(rng)
        assert (cocycle(x, y) + cocycle(y, x)).is_zero()


def test_extended_jacobi_random():
    """Jacobi in the hat algebra, central coordinate included."""
    rng = random.Random(23)
    for _ in range(40):
        x, y, z = rand_hat(rng), rand_hat(rng), rand_hat(rng)
        assert verify_jacobi(x, y, z).passed


def test_cocycle_condition_random():
    rng = random.Random(29)
    for _ in range(60):
        x, y, z = rand_hat(rng), rand_hat(rng), rand_hat(rng)
        assert verify_cocycle_condition(x, y, z).passed


# -- differential check against the falling-basis closed form (1.3) --------

def closed_form_binomial(x, r):
    out = Fraction(1)
    for i in range(r):
        out *= Fraction(x - i, i + 1)
    return out


def closed_form_cocycle(x, y):
    """(1.3) term by term on the falling-basis forms of x and y:
    psi(t^a [D]_m, t^-a [D]_n) = (-1)^m m! n! C(a+m, m+n+1)."""
    out = x.weyl.ring.zero
    for ((a,), (m,)), cx in x.to_falling().terms.items():
        for ((b,), (n,)), cy in y.to_falling().terms.items():
            if a + b == 0:
                f = ((-1) ** m * math.factorial(m) * math.factorial(n)
                     * closed_form_binomial(a + m, m + n + 1))
                out = out + cx * cy * f
    return out


HALF = Lattice([(Fraction(1, 2),)])


def random_side(weyl, rng, grades, basis):
    out = weyl.zero()
    for g in grades:
        if weyl.ring.nvars:
            alpha = weyl.ring.sym("alpha")
            coeff = alpha * rng.randint(-3, 3) + rng.randint(-4, 4) or alpha
        else:
            coeff = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        out = out + weyl.monomial(g, (rng.randint(1, 6),), coeff, basis=basis)
    return out


def random_pair(weyl, rng, bases):
    """x and y with opposite grades, so most of their terms pair up."""
    grades = [weyl.lattice.ambient((rng.randint(-6, 6),))
              for _ in range(rng.randint(1, 3))]
    return (random_side(weyl, rng, grades, bases[0]),
            random_side(weyl, rng, [(-g,) for (g,) in grades], bases[1]))


@pytest.mark.parametrize("bases", [("power", "power"), ("falling", "falling"),
                                   ("power", "falling"), ("falling", "power")],
                         ids=lambda b: "-".join(b))
@pytest.mark.parametrize("ring", [Ring(), Ring(("alpha",))], ids=("rational", "alpha"))
@pytest.mark.parametrize("lattice", [None, HALF], ids=("Z", "half-Z"))
def test_cocycle_matches_falling_closed_form(lattice, ring, bases):
    weyl = Weyl(1, ring=ring, lattice=lattice, subalgebra="hat")
    rng = random.Random(31)
    nonzero = negative = 0
    for _ in range(30):
        x, y = random_pair(weyl, rng, bases)
        got = cocycle(x, y)
        assert got == closed_form_cocycle(x, y)
        nonzero += not got.is_zero()
        # a + 1 < 0: the j = 1 binomial C(a+1, k+2) of the power-basis sum
        # has a negative top
        negative += any(a[0] + 1 < 0 for a, _mu in x.terms)
    assert nonzero >= 10 and negative >= 10


# -- the cocycle condition brackets only the grade blocks psi can pair -------

def block_side(weyl, rng, grades, basis):
    """An element with one to three terms on each grade of ``grades``."""
    out = weyl.zero()
    for g in grades:
        for m in rng.sample(range(1, 6), rng.randint(1, 3)):
            out = out + weyl.monomial(g, (m,), Fraction(rng.randint(-9, 9) or 1,
                                                        rng.randint(1, 4)), basis=basis)
    return out


def block_triple(weyl, rng, paired):
    """x, y, z of 1-3 grade blocks each.  With ``paired`` one grade of z is
    minus the sum of a grade of x and a grade of y; otherwise the grades are
    drawn at random, and mostly no block pair of two factors pairs with the
    third."""
    grades = [[weyl.lattice.ambient((rng.randint(-4, 4),))
               for _ in range(rng.randint(1, 3))] for _ in range(3)]
    if paired:
        grades[2][0] = (-rng.choice(grades[0])[0] - rng.choice(grades[1])[0],)
    return [block_side(weyl, rng, gs, rng.choice(("power", "falling"))) for gs in grades]


@pytest.mark.parametrize("lattice", [None, HALF], ids=("Z", "half-Z"))
def test_pairing_matches_unfiltered_bracket(lattice):
    """psi([x,y],z) from the pairing blocks equals psi of the whole
    commutator, term by term, with and without a pairing block triple."""
    weyl = Weyl(1, lattice=lattice, subalgebra="hat")
    rng = random.Random(41)
    nonzero = unpaired = 0
    for i in range(60):
        x, y, z = block_triple(weyl, rng, paired=i % 2 == 0)
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            want = cocycle(mul(a, b) - mul(b, a), c)
            assert _bracket_cocycle(a, b, c) == want
            nonzero += not want.is_zero()
            grades = {g for g, _mu in c.terms}
            unpaired += not any((-p[0] - q[0],) in grades for p, _m in a.terms
                                for q, _n in b.terms)
        assert verify_cocycle_condition(x, y, z).passed
    assert nonzero >= 40 and unpaired >= 40


def test_cocycle_condition_refusals_hold_when_no_block_pairs():
    # grades 1 + 1 + 1: no block pair pairs, and the refusals still come
    w2 = Weyl(2)
    with pytest.raises(SubalgebraError):
        verify_cocycle_condition(w2.tD((1, 0)), w2.tD((1, 0), 1), w2.tD((1, 0)))
    half = Weyl(1, lattice=HALF, subalgebra="hat")
    x, y = HAT.tD((1,)), half.monomial((1,), (2,))
    for triple in ((x, y, x), (x, x, y), (y, x, x)):
        with pytest.raises(ValueError):
            verify_cocycle_condition(*triple)
