"""Free abelian groups embedded in Q^n and their membership solver."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from winfty.lattice import Direction, Lattice, inner


def test_standard_membership():
    z2 = Lattice.standard(2)
    assert z2.membership((2, 3)) == (2, 3)
    assert z2.membership((Fraction(1, 2), 0)) is None


def test_skew_membership():
    g = Lattice([(1, 0), (1, 2)])
    assert g.membership((0, 2)) == (-1, 1)
    assert g.membership((1, 1)) is None  # 1 = a + b, 1 = 2b has b = 1/2


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        Lattice.standard(2).membership((1, 2, 3))


def test_dependent_generators_rejected():
    with pytest.raises(ValueError):
        Lattice([(1, 1), (2, 2), (0, 3)])


def test_nondegenerate():
    assert Lattice.standard(2).nondegenerate()
    assert not Lattice([(1, 0)]).nondegenerate()  # rank 1 inside Q^2


@pytest.mark.parametrize("build", [
    lambda: Lattice([(0.1,)]),
    lambda: Lattice([(1, 0), (0, "2")]),
    lambda: Lattice.standard(1).membership(("3",)),
    lambda: Direction.of((0.1,)),
    lambda: inner((0.5,), Direction.of((1,))),
], ids=["float-generator", "str-generator", "str-member", "float-direction",
        "float-inner"])
def test_non_rational_coordinates_rejected(build):
    # a float would be stored as its binary expansion, a string parsed
    with pytest.raises(TypeError):
        build()


def test_inner_examples():
    d = Direction.of((1, 3))
    assert inner((1, 2), d) == 7
    assert inner((0, 0), d) == 0
    assert inner((1, -1), Direction.of((1, 1))) == 0


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_membership_inverts_ambient(coords):
    lat = Lattice([(1, 0), (1, 2)])
    assert lat.membership(lat.ambient(coords)) == tuple(coords)


# -- differential check against sympy -------------------------------------

small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def lattice_cases(draw):
    """r <= n <= 3 generators in Q^n, the last one sometimes a rational
    combination of the others, and query vectors: integral and rational
    combinations of the generators, and free vectors."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, n))
    vector = st.lists(small_rationals, min_size=n, max_size=n)
    gens = draw(st.lists(vector, min_size=r, max_size=r))

    def combination(coeffs):
        return [sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0))
                for i in range(n)]

    if r > 1 and draw(st.booleans()):
        gens[-1] = combination(draw(st.lists(small_rationals, min_size=r - 1,
                                             max_size=r - 1)))
    coeff_lists = st.one_of(st.lists(st.integers(-5, 5), min_size=r, max_size=r),
                            st.lists(small_rationals, min_size=r, max_size=r))
    targets = draw(st.lists(st.one_of(coeff_lists.map(combination), vector),
                            min_size=1, max_size=4))
    return n, gens, targets


def _sympy_vector(v):
    return sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in v])


@given(lattice_cases())
@settings(max_examples=200, deadline=None)
def test_lattice_matches_sympy(case):
    n, gens, targets = case
    G = sympy.Matrix.hstack(*(_sympy_vector(g) for g in gens))
    rank = G.rank()
    if rank < len(gens):
        with pytest.raises(ValueError):
            Lattice(gens)
        return
    lat = Lattice(gens)
    assert lat.nondegenerate() == (rank == n)
    for v in targets:
        try:
            sol, params = G.gauss_jordan_solve(_sympy_vector(v))
        except ValueError:  # inconsistent system
            want = None
        else:
            assert params.shape[0] == 0  # independent columns: one solution
            want = (tuple(int(x) for x in sol) if all(x.is_integer for x in sol)
                    else None)
        assert lat.membership(v) == want
