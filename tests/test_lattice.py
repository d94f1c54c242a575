"""Free abelian groups embedded in Q^n and their membership solver."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from winfty.lattice import Lattice, inner


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


def test_membership_answers_a_repeated_vector_without_eliminating(monkeypatch):
    g = Lattice([(1, 0), (1, 2)])
    solve = g._echelon.solve
    calls = []
    monkeypatch.setattr(g._echelon, "solve", lambda v, s: calls.append(v) or solve(v, s))
    for _ in range(3):
        assert g.membership((0, 2)) == (-1, 1)
        assert g.membership([Fraction(0), 2]) == (-1, 1)
        assert g.membership((1, 1)) is None
    assert len(calls) == 2
    for _ in range(2):
        with pytest.raises(ValueError, match="dimension 3"):
            g.membership((0, 2, 0))
        with pytest.raises(TypeError):
            g.membership((0.0, 2))
    assert len(calls) == 2


def test_a_stored_answer_is_read_only_for_an_exact_vector():
    g = Lattice([(1, 0), (1, 2)])
    assert g.membership((0, 2)) == (-1, 1)
    assert g.membership((Fraction(1, 2), 0)) is None
    assert g.membership((0, 2)) == (-1, 1)
    assert g.membership((Fraction(0), Fraction(2))) == (-1, 1)
    assert g.membership((Fraction(1, 2), 0)) is None
    # 0.5 equals and hashes like its stored Fraction twin, and still raises
    with pytest.raises(TypeError):
        g.membership((0.5, 0))
    with pytest.raises(TypeError):
        g.membership((0, 2.0))
    with pytest.raises(TypeError):
        (0.5, 0) in g


def test_ambient_is_canonical_and_stored():
    g = Lattice([(1, 0), (Fraction(1, 2), Fraction(1, 3))])
    v = g.ambient((2, 3))
    # 2 + 3/2 = 7/2 stays a Fraction, 3 * 1/3 = 1 becomes an int
    assert v == (Fraction(7, 2), 1) and [type(x) for x in v] == [Fraction, int]
    assert [type(x) for x in g.ambient((1, 2))] == [int, Fraction]
    assert [type(x) for x in g.ambient([0, 0])] == [int, int]
    assert g.ambient((2, 3)) is v
    assert g.ambient([2, 3]) == v
    # a Fraction or float key equals its stored int twin, and still raises
    with pytest.raises(TypeError):
        g.ambient((Fraction(2), 3))
    with pytest.raises(TypeError):
        g.ambient((2.0, 3))


def test_dependent_generators_rejected():
    with pytest.raises(ValueError):
        Lattice([(1, 1), (2, 2), (0, 3)])


@pytest.mark.parametrize("build,message", [
    (lambda: Lattice([]), "at least one generator"),
    (lambda: Lattice([(1,), (1, 2)]), "mixed dimensions"),
    (lambda: Lattice.standard(2).ambient((1,)), "expected 2 coordinates"),
    (lambda: inner((1, 2), (1,)), "dimension mismatch"),
], ids=["no-generators", "mixed-dimensions", "ambient-count", "inner-dimension"])
def test_malformed_lattice_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build", [
    lambda: Lattice([(0.1,)]),
    lambda: Lattice([(1, 0), (0, "2")]),
    lambda: Lattice.standard(1).membership(("3",)),
    lambda: inner((1,), (0.1,)),
    lambda: inner((0.5,), (1,)),
    lambda: Lattice([(1, 0), (1, 2)]).ambient((0.5, 1)),
    lambda: Lattice([(1, 0), (1, 2)]).ambient((Fraction(1, 2), 1)),
], ids=["float-generator", "str-generator", "str-member", "float-direction",
        "float-inner", "float-ambient", "fraction-ambient"])
def test_non_rational_coordinates_rejected(build):
    # a float would be stored as its binary expansion, a string parsed; lattice
    # coordinates must be ints, as (1/2, 1) maps to (3/2, 2), outside the lattice
    with pytest.raises(TypeError):
        build()


def test_inner_examples():
    d = (1, 3)
    assert inner((1, 2), d) == 7
    assert inner((0, 0), d) == 0
    assert inner((1, -1), (1, 1)) == 0


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


# Z, Z^2, 1/2 Z and a lattice in Q^2 with a non-integral generator; each is
# shared across examples, so a query meets both fresh and stored answers
QUERY_LATTICES = (Lattice.standard(1), Lattice.standard(2), Lattice([(Fraction(1, 2),)]),
                  Lattice([(1, 0), (Fraction(1, 2), Fraction(1, 3))]))


@st.composite
def lattice_queries(draw):
    lat = draw(st.sampled_from(QUERY_LATTICES))
    coords = draw(st.tuples(*[st.integers(-6, 6)] * lat.rank))
    v = draw(st.tuples(*[st.one_of(st.integers(-4, 4), small_rationals)] * lat.dim))
    return lat, coords, v


@given(lattice_queries())
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_contains_membership_and_ambient_agree(case):
    lat, coords, v = case
    assert lat.membership(lat.ambient(coords)) == coords
    if lat == Lattice.standard(lat.dim):
        # Z^n holds exactly the integral vectors
        assert (lat.membership(v) is not None) == all(x.denominator == 1 for x in v)


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
