"""Core algebra: the associative product, the bracket, grading, bases,
and the operator-action oracle that keeps the product formula honest."""

import hashlib
import random
from fractions import Fraction

import pytest

from winfty.lattice import Lattice
from winfty.printer import format_element
from winfty.scalars import Ring, falling
from winfty.weyl import (SubalgebraError, Weyl, WeylElement,
                         act_on_combination, bracket, cocycle, degree_one_bracket,
                         mul, operator_action, verify_jacobi)

W = Weyl(1)
W2 = Weyl(2)
WHALF = Weyl(1, lattice=Lattice([(Fraction(1, 2),)]))


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
    x = WHALF.monomial((Fraction(5, 2),), (0,))
    y = WHALF.monomial((1,), (3,))
    assert mul(x, y) == WHALF.monomial((Fraction(7, 2),), (3,))


def test_mul_associative_on_random_triples():
    rng = random.Random(13)
    for weyl in (W, W2):
        for _ in range(100):
            x, y, z = (rand_element(weyl, rng, max_mu=3) for _ in range(3))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_add_doubles_and_cancels():
    x = WHALF.monomial((1,), (2,), Fraction(3, 2)) + WHALF.tD((Fraction(1, 2),))
    assert (x + x).terms == x.scale(2).terms
    assert (x + x.scale(-1)).terms == {}
    assert (x - WHALF.tD((Fraction(1, 2),))).terms == WHALF.monomial((1,), (2,),
                                                                     Fraction(3, 2)).terms


_F = W.monomial((1,), (2,), basis="falling")  # t^(1)*[D]_2


@pytest.mark.parametrize("x,y,basis", (
    # same basis
    (_F, W.monomial((0,), (1,), basis="falling"), "falling"),
    (W.tD((1,)), W.monomial((0,), (3,)), "power"),
    # a side with no D-terms takes the other side's basis
    (W.monomial((2,), (0,)), _F, "falling"),
    (_F, W.monomial((2,), (0,)), "falling"),
    # both sides D-free: the right side's basis
    (W.monomial((2,), (0,), basis="falling"), W.monomial((1,), (0,)), "power"),
    (W.monomial((2,), (0,)), W.monomial((1,), (0,), basis="falling"), "falling"),
    # D-terms in two bases give power
    (_F, W.tD((1,)), "power"),
    (W.tD((1,)), _F, "power"),
    # a partial sum cancelled to D-free takes the summand's basis
    (_F - _F, W.monomial((2,), (0,), 7), "power"),
))
@pytest.mark.parametrize("op", ("+", "-"))
def test_sum_basis_rule(x, y, basis, op):
    got = x + y if op == "+" else x - y
    assert got.basis == basis
    assert got == (x.to_power() + y.to_power() if op == "+"
                   else x.to_power() - y.to_power())


def test_sum_rejects_elements_of_another_subalgebra():
    # the sum was an element of W^(1) holding t^(1), which has |mu| = 0
    with pytest.raises(ValueError, match="incompatible"):
        Weyl(1, subalgebra="w1").tD((1,)) + W.monomial((1,), (0,))


def test_bracket_rejects_elements_of_another_subalgebra():
    # the bracket of a W element with a hat one read -4*D - C
    with pytest.raises(ValueError, match="incompatible"):
        bracket(W.tD((2,)), Weyl(1, subalgebra="hat").tD((-2,)))


def test_mul_converts_falling_basis():
    xf = W.monomial((1,), (2,), basis="falling")
    assert mul(xf, xf) == mul(xf.to_power(), xf.to_power())


# -- kernel differential checks --------------------------------------------
#
# Rational and formal coefficients (multi-term polynomials in a1, a2), and
# grades with zero coordinates, where the b_i = 0 pruning of the lambda sum
# applies.  Grades come from the algebra's lattice, so Gamma = (1/2)Z and
# the rank-2 lattice Z(1/2,1/3) + Z(0,2/5) exercise the grade-denominator
# scale of the integer kernel.

FORMAL = Ring(("a1", "a2"))
HALF = Lattice([(Fraction(1, 2),)])
RANK2 = Lattice([(Fraction(1, 2), Fraction(1, 3)), (0, Fraction(2, 5))])


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
        coords = tuple(0 if rng.random() < 0.4 else rng.randint(-5, 5)
                       for _ in range(weyl.lattice.rank))
        mu = [0] * weyl.n
        for _ in range(rng.randint(1 if w1 else 0, max_mu)):
            mu[rng.randrange(weyl.n)] += 1
        out = out + weyl.monomial(weyl.lattice.ambient(coords), mu,
                                  rand_coeff(weyl.ring, rng))
    return out


def kernel_id(weyl):
    lattice = "" if weyl.lattice == Lattice.standard(weyl.n) else (
        "-half" if weyl.lattice == HALF else "-rank2")
    return f"n{weyl.n}-{weyl.ring.nvars}sym{lattice}"


NON_INTEGRAL = [Weyl(n, ring=ring, lattice=lattice)
                for n, lattice in ((1, HALF), (2, RANK2)) for ring in (Ring(), FORMAL)]
KERNEL_ALGEBRAS = ([Weyl(n, ring=ring) for n in (1, 2) for ring in (Ring(), FORMAL)]
                   + NON_INTEGRAL)


@pytest.mark.parametrize("weyl", KERNEL_ALGEBRAS, ids=kernel_id)
def test_bracket_is_commutator_of_mul(weyl):
    rng = random.Random(31 + weyl.n + weyl.ring.nvars)
    for _ in range(40):
        x, y = rand_kernel_element(weyl, rng), rand_kernel_element(weyl, rng)
        assert bracket(x, y) == mul(x, y) - mul(y, x)


@pytest.mark.parametrize("weyl", KERNEL_ALGEBRAS, ids=kernel_id)
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


def rand_block_element(weyl, rng):
    """3 to 9 distinct terms on 1 or 2 grades, so that the kernel's grade
    blocks hold several terms each."""
    grades = [weyl.lattice.ambient(tuple(0 if rng.random() < 0.3 else rng.randint(-4, 4)
                                         for _ in range(weyl.lattice.rank)))
              for _ in range(rng.randint(1, 2))]
    size = rng.randint(3, 9)
    terms = {}
    while len(terms) < size:
        mu = tuple(rng.randint(0, 8 // weyl.n) for _ in range(weyl.n))
        terms[rng.choice(grades), mu] = rand_coeff(weyl.ring, rng)
    return WeylElement(weyl, terms)


@pytest.mark.parametrize("weyl", KERNEL_ALGEBRAS, ids=kernel_id)
def test_kernel_on_shared_grades_matches_operator_action(weyl):
    rng = random.Random(71 + weyl.n + weyl.ring.nvars)
    for _ in range(12):
        x, y = rand_block_element(weyl, rng), rand_block_element(weyl, rng)
        xy = mul(x, y)
        assert bracket(x, y) == xy - mul(y, x)
        for _ in range(2):
            g = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(weyl.n))
            assert operator_action(xy, g) == act_on_combination(x, operator_action(y, g))


# sha256 of the printed products and brackets below, recorded with the
# Fraction-accumulating kernel that the integer kernel replaced.
NON_INTEGRAL_DIGEST = "5b75cf1d0b3768e6b4e02ee7ce10bfae976f794e316ed3eebebad7e2672dbe1c"


def test_non_integral_products_match_recorded_digest():
    texts = []
    for weyl in NON_INTEGRAL:
        rng = random.Random(61 + weyl.n + weyl.ring.nvars)
        for _ in range(5):
            x, y = rand_kernel_element(weyl, rng), rand_kernel_element(weyl, rng)
            texts += [format_element(mul(x, y)), format_element(bracket(x, y))]
    assert len(texts) == 40
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == NON_INTEGRAL_DIGEST


@pytest.mark.parametrize("ring,lattice", [(Ring(), None), (FORMAL, None),
                                          (Ring(), HALF), (FORMAL, HALF)],
                         ids=["rational", "formal", "rational-half", "formal-half"])
def test_hat_bracket_is_commutator_plus_cocycle(ring, lattice):
    hat = Weyl(1, ring=ring, lattice=lattice, subalgebra="hat")
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
    assert W.monomial((0,), (1,), basis="falling").to_power() == W.monomial((0,), (1,))


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


def test_contexts_built_separately_are_one_algebra():
    parts = [(Ring(("a",)), Lattice([(1, 0), (1, 2)])) for _ in range(2)]
    (r1, l1), (r2, l2) = parts
    w1, w2 = (Weyl(2, ring=r, lattice=lat, subalgebra="w1") for r, lat in parts)
    assert r1 is not r2 and l1 is not l2 and w1 is not w2
    assert hash(r1) == hash(r2) and hash(l1) == hash(l2) and hash(w1) == hash(w2)
    assert len({w1, w2}) == 1
    x = w1.monomial((0, 2), (1, 0), r1.sym("a"))
    y = w2.monomial((0, 2), (1, 0), 1)
    assert x + y == w2.monomial((0, 2), (1, 0), r2.sym("a") + 1)
    assert y - x == w1.monomial((0, 2), (1, 0), 1 - r1.sym("a"))
    assert repr(r1) == "Ring('a',)"
    assert repr(l1) == "Lattice([('1', '0'), ('1', '2')])"
    assert repr(w1) == "Weyl(n=2, subalgebra='w1')"


def test_to_power_matches_falling_action_n2():
    # [D_i]_m acts on t^g as falling(g_i, m), independently of the conversion
    ring = Ring(("alpha",))
    w = Weyl(2, ring=ring)
    a = ring.sym("alpha")
    rng = random.Random(5)
    for _ in range(30):
        x = w.zero()
        for _ in range(3):
            gamma = (rng.randint(-3, 3), rng.randint(-3, 3))
            mu = (rng.randint(0, 4), rng.randint(0, 4))
            c = a * a * rng.randint(-2, 2) + a * rng.randint(1, 3) + rng.randint(-2, 2)
            x = x + w.monomial(gamma, mu, c, basis="falling")
        g = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(2))
        want = {}
        for (gamma, mu), c in x.terms.items():
            target = tuple(p + q for p, q in zip(g, gamma))
            f = falling(g[0], mu[0]) * falling(g[1], mu[1])
            want[target] = want.get(target, ring.zero) + c * f
        assert operator_action(x.to_power(), g) == {
            k: v for k, v in want.items() if not v.is_zero()}


def test_conversions_mutually_inverse():
    rng = random.Random(3)
    for _ in range(40):
        x = rand_element(W2, rng, max_mu=4)
        assert x.to_falling().to_power() == x


# -- oracle ----------------------------------------------------------------


def test_operator_action_examples():
    g = (Fraction(7, 2),)
    assert operator_action(W.monomial((0,), (1,)), g) == {g: W.ring.const(Fraction(7, 2))}
    assert operator_action(W.tD((1,)), (Fraction(2),)) == {
        (Fraction(3),): W.ring.const(2)}
    x = W.monomial((3,), (2,)) + W.monomial((3,), (1,), 2)
    gam = Fraction(5)
    assert operator_action(x, (gam,)) == {
        (Fraction(8),): W.ring.const(gam * gam + 2 * gam)}


def test_operator_action_targets_are_canonical():
    # 7/2 + 1/2 = 4 is an int key; 7/2 + 0 stays a Fraction
    h = Fraction(1, 2)
    half = Weyl(1, lattice=Lattice([(h,)]))
    out = operator_action(half.tD((h,)) + half.monomial((0,), (2,)), (Fraction(7, 2),))
    assert out == {(4,): half.ring.const(Fraction(7, 2)),
                   (Fraction(7, 2),): half.ring.const(Fraction(49, 4))}
    assert sorted(type(g).__name__ for (g,) in out) == ["Fraction", "int"]


@pytest.mark.parametrize("g", ((2,), (2, 5, 7)))
def test_operator_action_rejects_vectors_of_the_wrong_length(g):
    # these were cut to n coordinates: {(3,): 6} and {(3, 5): 30}
    x = W2.monomial((1, 0), (1, 1), 3)
    with pytest.raises(ValueError, match="n coordinates"):
        operator_action(x, g)
    with pytest.raises(ValueError, match="n coordinates"):
        act_on_combination(x, {(Fraction(1), Fraction(1)): W2.ring.one,
                               tuple(map(Fraction, g)): W2.ring.one})


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
    d = (1, 2)
    assert degree_one_bracket(W2, (1, 1), d, (1, 1), d).is_zero()


def test_degree_one_bracket_n1():
    d = (1,)
    i, j = 2, 5
    got = degree_one_bracket(W, (i,), d, (j,), d)
    assert got == W.tD((i + j,)).scale(j - i)


def test_degree_one_bracket_n2():
    # Both pairings <gamma,d> and <beta,d'> vanish here, so the commutator
    # is zero: D1 passes freely over t^(0,1) and D2 over t^(1,0).
    got = degree_one_bracket(W2, (1, 0), (1, 0), (0, 1), (0, 1))
    assert got.is_zero()
    assert got == bracket(W2.tD((1, 0), 0), W2.tD((0, 1), 1))
    # A pair with a nonzero pairing does produce the t^(beta+gamma) term.
    got2 = degree_one_bracket(W2, (1, 0), (0, 1), (0, 1), (1, 0))
    assert got2 == bracket(W2.tD((1, 0), 1), W2.tD((0, 1), 0))
    assert not got2.is_zero()


def test_degree_one_matches_generic_bracket():
    rng = random.Random(21)
    for _ in range(40):
        beta = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        gam = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        d = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        d2 = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        assert degree_one_bracket(W2, beta, d, gam, d2) == bracket(
            W2.from_direction(beta, d), W2.from_direction(gam, d2))


# -- grading ---------------------------------------------------------------


@pytest.mark.parametrize("gamma", [(0.1,), ("1",)])
def test_non_rational_grades_rejected(gamma):
    # a float grade would be stored as its binary expansion
    with pytest.raises(TypeError):
        W.tD(gamma)
    with pytest.raises(TypeError):
        W.monomial(gamma, (1,))


@pytest.mark.parametrize("mu", ((1.7,), ("2",)), ids=("float", "str"))
def test_monomial_rejects_non_integer_d_exponents(mu):
    # int() would have truncated 1.7 to 1 and parsed "2"
    with pytest.raises(TypeError):
        W.monomial((1,), mu)


def test_w1_guard():
    w1 = Weyl(1, subalgebra="w1")
    with pytest.raises(SubalgebraError):
        w1.monomial((1,), (0,))


@pytest.mark.parametrize("build,error,message", (
    (lambda: mul(Weyl(1, subalgebra="hat").central(1), W.tD((1,))), SubalgebraError, None),
    (lambda: Weyl(2, subalgebra="hat"), SubalgebraError, None),
    (lambda: Weyl(1, subalgebra="x"), ValueError, None),
    (lambda: Weyl(2, lattice=Lattice.standard(1)), ValueError, None),
    (lambda: WeylElement(W, {}, basis="x"), ValueError, None),
    (lambda: W.from_direction((1,), (1, 2)), ValueError, None),
    (lambda: degree_one_bracket(W, (1,), (1, 2), (2,), (1,)),
     ValueError, None),
    (lambda: W.from_direction((1,), (0.5,)), TypeError, None),
    (lambda: degree_one_bracket(W, (1,), (1,), (2,), (0.5,)), TypeError, None),
    # degree_one_bracket returned -D, a bracket of two grades outside Z
    (lambda: degree_one_bracket(W, (Fraction(1, 2),), (1,), (Fraction(-1, 2),), (1,)),
     ValueError, r"^grade \(1/2\) is not in the lattice$"),
    (lambda: degree_one_bracket(W2, (1,), (1, 0), (0, 1), (0, 1)),
     ValueError, r"^vector has dimension 1, lattice is in Q\^2$"),
    (lambda: degree_one_bracket(W2, (1, 0), (1, 0), (0, 1), (1,)), ValueError, None),
    # tD((1, 0), -1) built t[1,0]*D2, and tD((1, 0), 2) raised IndexError
    (lambda: W2.tD((1, 0), -1), ValueError, r"^D index -1 is outside 0\.\.1$"),
    (lambda: W2.tD((1, 0), 2), ValueError, r"^D index 2 is outside 0\.\.1$"),
    (lambda: W.monomial((1,), (1, 2)), ValueError,
     "^monomial exponents have wrong dimension$"),
), ids=("mul-central", "hat-n2", "unknown-subalgebra", "lattice-dimension",
        "unknown-basis", "direction-dimension", "degree-one-direction-dimension",
        "float-direction", "degree-one-float-direction", "degree-one-grade-outside",
        "degree-one-grade-dimension", "degree-one-second-direction-dimension",
        "tD-negative-index", "tD-index-past-n", "mu-dimension"))
def test_invalid_algebra_use_raises(build, error, message):
    with pytest.raises(error, match=message):
        build()


# -- the constructor checks every term --------------------------------------

W1 = Weyl(1, subalgebra="w1")
PARAM = Ring(("a",))


@pytest.mark.parametrize("weyl,gamma,mu,coeff", [
    (W1, (1,), (0,), W1.ring.one),
    (W, (1,), (-1,), W.ring.one),
    (W2, (1,), (1,), W2.ring.one),
    (W, (1,), (1,), PARAM.sym("a")),
    (W, (0.5,), (1,), W.ring.one),
    (W, (1,), (Fraction(1),), W.ring.one),
    (W, (1,), (1,), 0.5),
], ids=("w1-t", "negative-mu", "short-key", "foreign-ring", "float-grade",
        "fraction-mu", "float-coeff"))
def test_constructor_rejects_what_monomial_rejects(weyl, gamma, mu, coeff):
    # the constructor stored each term as given (t^(1) in W^(1), t^(1)*D^-1,
    # a one-coordinate key in W(Z,2), an (a)*t^(1)*D from a foreign ring),
    # except the float coefficient, which raised AttributeError
    with pytest.raises(Exception) as expected:
        weyl.monomial(gamma, mu, coeff)
    with pytest.raises(expected.type):
        WeylElement(weyl, {(gamma, mu): coeff})


def test_constructor_rejects_grades_outside_the_lattice():
    # W(Z,1) built t^(-1/2)*D, a grade of the half-integer algebra
    with pytest.raises(ValueError, match=r"grade \(-1/2\) is not in the lattice"):
        W.monomial((Fraction(-1, 2),), (1,))
    with pytest.raises(ValueError, match="not in the lattice"):
        WeylElement(W2, {((Fraction(1, 2), 0), (1, 0)): 1})
    skew = Weyl(2, lattice=Lattice([(1, 0), (1, 2)]))
    with pytest.raises(ValueError, match="not in the lattice"):
        skew.tD((1, 1))  # 1 = a + b, 1 = 2b has b = 1/2
    assert format_element(skew.tD((0, 2))) == "t[0,2]*D1"
    assert format_element(WHALF.monomial((Fraction(-1, 2),), (1,))) == "t^(-1/2)*D"


def test_constructor_rejects_a_center_outside_the_hat_algebra():
    # Weyl(1) printed C for this element
    with pytest.raises(SubalgebraError):
        WeylElement(W, {}, central=W.ring.one)
    with pytest.raises(SubalgebraError):
        W.central(1)
    hat = Weyl(1, subalgebra="hat")
    assert format_element(WeylElement(hat, {}, central=Fraction(1, 2))) == "1/2*C"


def test_constructor_coerces_rational_coefficients():
    # a Fraction coefficient raised AttributeError
    x = WeylElement(W, {((1,), (1,)): Fraction(1, 2), ((2,), (1,)): 0})
    assert x == W.tD((1,)).scale(Fraction(1, 2))
    assert list(x.terms) == [((Fraction(1),), (1,))]


def test_symbolic_coefficients_flow_through_bracket():
    ring = Ring(("alpha",))
    w = Weyl(1, ring=ring)
    a = ring.sym("alpha")
    x = w.tD((1,), 0).scale(a)
    got = bracket(x, w.tD((2,)))
    assert got == w.tD((3,)).scale(a)
    assert "alpha" in format_element(got)
