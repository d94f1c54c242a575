"""One-variable normal form t^i D f(D): closed-form bracket, the d/dt
calculus as the grammar reads it, and the named operator identities."""

import random
from fractions import Fraction

import pytest

from winfty.lattice import Lattice
from winfty.onevar import (NAMED_IDENTITIES, df_bracket, df_element,
                           verify_named_identity)
from winfty.parser import Session, parse_element
from winfty.weyl import Weyl, bracket

W = Weyl(1)


def test_df_bracket_td_t2d():
    assert df_bracket(W, 1, {0: 1}, 2, {0: 1}) == W.tD((3,))


def test_df_bracket_antisymmetry():
    f = {0: Fraction(2), 3: Fraction(1, 3)}
    assert df_bracket(W, 4, f, 4, f).is_zero()


def test_df_bracket_d2_td():
    # [D*D, tD] written as t^0 D f with f = D against t^1 D
    got = df_bracket(W, 0, {1: 1}, 1, {0: 1})
    assert got == W.monomial((1,), (2,), 2) + W.tD((1,))


def test_df_bracket_matches_generic():
    rng = random.Random(31)
    for _ in range(60):
        i, j = rng.randint(-6, 6), rng.randint(-6, 6)
        f = {e: Fraction(rng.randint(-5, 5)) for e in range(rng.randint(1, 6))}
        g = {e: Fraction(rng.randint(-5, 5)) for e in range(rng.randint(1, 6))}
        closed = df_bracket(W, i, f, j, g)
        generic = bracket(df_element(W, i, f), df_element(W, j, g))
        assert closed == generic


def test_df_bracket_admits_grades_through_the_lattice():
    even = Weyl(1, lattice=Lattice([(2,)]))
    # df_bracket returned -t^(2)*D - t^(2)*D^2 for this bracket of two odd grades
    with pytest.raises(ValueError, match=r"^grade \(1\) is not in the lattice$"):
        df_bracket(even, 1, {0: 1}, 1, {1: 1})
    with pytest.raises(ValueError, match=r"^grade \(1\) is not in the lattice$"):
        df_element(even, 1, {0: 1})
    assert df_bracket(even, 2, {0: 1}, 4, {1: 1}) == bracket(
        df_element(even, 2, {0: 1}), df_element(even, 4, {1: 1}))


@pytest.mark.parametrize("f", [[0.1], {2: "3"}])
def test_non_rational_d_coefficients_rejected(f):
    with pytest.raises(TypeError):
        df_element(W, 0, f)
    with pytest.raises(TypeError):
        df_bracket(W, 0, f, 1, [1])


# -- the d/dt calculus, read by the grammar --------------------------------


def _ev(text):
    return parse_element(text, Session(W))


def test_ddt_is_tinv_d():
    assert _ev("d/dt") == W.tD((-1,))


def test_ddt_squared():
    # the product, not the square of the symbols: t^(-2) [D]_2
    assert _ev("(d/dt)^2") == W.monomial((-2,), (2,), basis="falling")


def test_t4_times_ddt2():
    assert _ev("t^(4)*(d/dt)^2") == W.monomial((2,), (2,), basis="falling")


def test_t_ddt():
    for k in range(-3, 6):
        assert _ev(f"t^({k})*d/dt") == _ev(f"t^({k - 1})*D")


def test_ddt_powers_compose():
    for j in range(0, 5):
        for l in range(0, 5):
            assert _ev(f"(d/dt)^{j}*(d/dt)^{l}") == _ev(f"(d/dt)^{j + l}")


@pytest.mark.parametrize("i", range(-4, 5))
@pytest.mark.parametrize("j", range(1, 6))
def test_ti_plus_j_ddt_j_is_falling(i, j):
    # t^(i+j) (d/dt)^j = t^i [D]_j, the identity behind the named ones
    assert _ev(f"t^({i + j})*(d/dt)^{j}") == _ev(f"t^({i})*[D]_{j}")


# -- named identities ------------------------------------------------------


def test_cube_identity():
    assert verify_named_identity(W, "CUBE").passed


@pytest.mark.parametrize("i", range(1, 13))
def test_l231(i):
    assert verify_named_identity(W, "L23-1", i).passed


@pytest.mark.parametrize("i", range(1, 13))
def test_l232(i):
    assert verify_named_identity(W, "L23-2", i).passed


@pytest.mark.parametrize("i", range(1, 13))
def test_l233_has_zero_reading(i):
    rep = verify_named_identity(W, "L23-3", i)
    assert rep.passed
    assert "close-inner" in rep.details["zero_readings"]


def test_l233_close_inner_is_the_unique_uniform_reading():
    common = None
    for i in range(1, 13):
        zr = set(verify_named_identity(W, "L23-3", i).details["zero_readings"])
        common = zr if common is None else common & zr
    assert common == {"close-inner"}


def test_l231_trivial_at_i_1():
    # [2]_4 = 0, so the left side, whose (d/dt)^(-1) is undefined, is left out
    rep = verify_named_identity(W, "L23-1", 1)
    assert rep.passed


@pytest.mark.parametrize("flavor", ["w1", "hat"])
def test_every_identity_passes_in_the_subalgebras(flavor):
    # a left side with coefficient zero written as 0 would be lifted to 0*1,
    # which W^(1) and the hat algebra refuse
    weyl = Weyl(1, subalgebra=flavor)
    for name in NAMED_IDENTITIES:
        for i in range(1, 13):
            assert verify_named_identity(weyl, name, i).passed, (name, i)


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify_named_identity(W, "L23-9", 1)


def test_identity_index_below_one_rejected():
    with pytest.raises(ValueError, match="must be >= 1"):
        verify_named_identity(W, "L23-1", 0)
