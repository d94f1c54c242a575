"""One-variable normal form t^i D f(D): closed-form bracket, the d/dt
calculus, and the named operator identities."""

import random
from fractions import Fraction

import pytest

from winfty.onevar import (DfElement, ddt_power, df_bracket, t_ddt,
                           verify_named_identity)
from winfty.weyl import Weyl, bracket, mul

W = Weyl(1)


def test_df_bracket_td_t2d():
    got = df_bracket(1, {0: 1}, 2, {0: 1})
    assert got.to_weyl(W) == W.tD((3,))


def test_df_bracket_antisymmetry():
    f = {0: Fraction(2), 3: Fraction(1, 3)}
    assert df_bracket(4, f, 4, f).is_zero()


def test_df_bracket_d2_td():
    # [D*D, tD] written as t^0 D f with f = D against t^1 D
    got = df_bracket(0, {1: 1}, 1, {0: 1})
    assert got.to_weyl(W) == W.monomial((1,), (2,), 2) + W.tD((1,))


def test_df_bracket_matches_generic():
    rng = random.Random(31)
    for _ in range(60):
        i, j = rng.randint(-6, 6), rng.randint(-6, 6)
        f = {e: Fraction(rng.randint(-5, 5)) for e in range(rng.randint(1, 6))}
        g = {e: Fraction(rng.randint(-5, 5)) for e in range(rng.randint(1, 6))}
        closed = df_bracket(i, f, j, g).to_weyl(W)
        generic = bracket(DfElement.of(i, f).to_weyl(W),
                          DfElement.of(j, g).to_weyl(W))
        assert closed == generic


def test_from_weyl_round_trip():
    x = DfElement.of(-2, {0: Fraction(1, 2), 3: Fraction(5)})
    assert DfElement.from_weyl(x.to_weyl(W)) == x


@pytest.mark.parametrize("f", [[0.1], {2: "3"}])
def test_non_rational_d_coefficients_rejected(f):
    with pytest.raises(TypeError):
        DfElement.of(0, f)
    with pytest.raises(TypeError):
        df_bracket(0, f, 1, [1])


def test_ddt_is_tinv_d():
    assert ddt_power(W, 1) == W.tD((-1,))


def test_ddt_squared():
    assert ddt_power(W, 2) == (W.monomial((-2,), (2,))
                               - W.monomial((-2,), (1,)))


def test_t4_times_ddt2():
    got = mul(W.t((4,)), ddt_power(W, 2))
    assert got == W.monomial((2,), (2,), basis="falling").to_power()


def test_ddt_requires_positive_power():
    with pytest.raises(ValueError):
        ddt_power(W, 0)


def test_t_ddt():
    assert t_ddt(W, 3) == W.tD((2,))


def test_ddt_powers_compose():
    for j in range(1, 5):
        for l in range(1, 5):
            if j + l <= 8:
                assert mul(ddt_power(W, j), ddt_power(W, l)) == ddt_power(W, j + l)


@pytest.mark.parametrize("i", range(-4, 5))
@pytest.mark.parametrize("j", range(1, 6))
def test_ti_plus_j_ddt_j_is_falling(i, j):
    got = mul(W.t((i + j,)), ddt_power(W, j))
    assert got == W.monomial((i,), (j,), basis="falling").to_power()


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
    # (d/dt)^(-1) = 0 by convention, so both sides collapse to zero
    rep = verify_named_identity(W, "L23-1", 1)
    assert rep.passed


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify_named_identity(W, "L23-9", 1)
