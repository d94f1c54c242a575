"""Property net over the representations every layer reads.

The scalar slice: a Scalar is integer numerators over one positive
denominator with their gcd divided out, keyed by packed monomials, and every
operation must hand back that canonical form.  Equal values reached along different paths must then
have equal fields and equal hashes, a rational constant must hash like its
Fraction, and the text must match the printer tests' reference renderer.

The grade slice: a grade coordinate is an int when it is integral and a
Fraction with denominator > 1 otherwise.  Every way an element is made must
hand back grades in that form, and an element built from Fraction(3) grades
must be the element built from 3: equal, with an equal hash and equal text.

The parser slice: a written monomial, alone or as a later summand, is the
element the WeylElement constructor builds, and where the constructor raises
the parser raises the same exception type.

The admission slice: a grade enters the algebra through Weyl.coords alone.
A monomial exists exactly when Lattice.membership finds the grade, its key
is the lattice's ambient form of those coordinates, and a non-member gets
one message from the constructor, the parser and the module action.

The kernel slice: on random homogeneous triples of several terms each (one
grade block per element), the Jacobi identity holds in the hat algebra over
Z, (1/2)Z and a formal coefficient ring, and so does the cocycle condition
on the 2-cocycle psi.

The cross-layer slice, over Z, (1/2)Z and a rank-2 lattice in Q^2, on
elements in either basis: mul agrees with the operator action on a random
t^g; every grade that mul, bracket and + put out lies in the lattice; the
modules A_alpha and B_alpha with formal alpha satisfy the Lie-module axiom;
and a sum of three is the same value however it is grouped, its basis
following FORMAT.md's left-fold rule at each step (the basis itself may
depend on the grouping).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_printer import _ref_scalar

from winfty.intermediate import act, make_module
from winfty.lattice import Lattice
from winfty.parser import Session, as_element, parse_element
from winfty.printer import format_element
from winfty.scalars import Ring, Scalar
from winfty.weightlab import WEIGHTLAB_SYMBOLS
from winfty.weyl import (Weyl, WeylElement, act_on_combination, bracket, mul,
                         operator_action, verify_cocycle_condition, verify_jacobi)

RINGS = {"const": Ring(()), "ab": Ring(("a", "b")), "weightlab": Ring(WEIGHTLAB_SYMBOLS)}

NET = settings(max_examples=12, derandomize=True, database=None, deadline=None)
# The multi-term kernel properties skip the shrink phase: minimizing a failing
# product of several multi-term elements takes minutes, and the failing
# example prints unshrunk.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)
KERNEL = settings(NET, phases=NO_SHRINK)

# denominators that share factors, so sums and products carry a content to divide out
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12)))
NONZERO = RATIONALS.filter(bool)


def exponents(ring, max_degree=2):
    if not ring.nvars:
        return st.just(())
    # a monomial is a product of up to max_degree ring symbols
    return st.lists(st.integers(0, ring.nvars - 1), max_size=max_degree).map(
        lambda idx: tuple(idx.count(i) for i in range(ring.nvars)))


def polys(ring, max_terms=4):
    return st.dictionaries(exponents(ring), RATIONALS, max_size=max_terms).map(
        lambda terms: Scalar(ring, terms))


def assert_canonical(s, ring):
    assert s.ring is ring
    assert type(s.den) is int and s.den > 0
    assert all(type(c) is int and c != 0 for c in s.nums.values())
    # a key is one int, with no guard bit set, that unpacks and packs back to itself
    assert all(type(e) is int and not e & ring._guard and ring._pack(ring._unpack(e)) == e
               for e in s.nums)
    # zero is den 1 with no numerators: gcd(den) is den
    assert math.gcd(s.den, *s.nums.values()) == 1
    assert str(s) == _ref_scalar(s)


def assert_same(x, y):
    assert (x.den, x.nums) == (y.den, y.nums)
    assert x == y and hash(x) == hash(y)


def operation_results(ring, data):
    """The results of every Scalar operation on drawn operands."""
    p, q, v = (data.draw(polys(ring)) for _ in range(3))
    c = data.draw(NONZERO)
    e = data.draw(st.integers(0, 3))
    # (p + q)(p - q) cancels its cross terms inside the product
    results = [p, p + q, p - q, p * q, (p + q) * (p - q), p ** e, -p, p * c, c * p,
               p + c, c - p, p / c, p / ring.const(c)]
    if not q.is_zero():
        results.append((p * q).exact_div(q))
    for name in ring.symbols[:1] + ring.symbols[-1:]:
        results += [p.substitute({name: v}), p.substitute({name: c}),
                    p.shift(name, c), p.shift(name, v),
                    p.coeff_of(name, data.draw(st.integers(0, 2)))]
    return results


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@NET
@given(data=st.data())
def test_every_operation_returns_the_canonical_form(ring_name, data):
    ring = RINGS[ring_name]
    for s in operation_results(ring, data):
        assert_canonical(s, ring)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@NET
@given(data=st.data())
def test_packed_keys_order_and_round_trip_like_exponent_tuples(ring_name, data):
    ring = RINGS[ring_name]
    for s in operation_results(ring, data):
        # int order of the keys is the lex order of their exponent tuples
        assert [ring._unpack(e) for e in sorted(s.nums)] == sorted(s.terms)
        assert_same(Scalar(ring, s.terms), s)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@NET
@given(data=st.data())
def test_equal_values_have_equal_fields_and_hashes(ring_name, data):
    ring = RINGS[ring_name]
    p, q, r = (data.draw(polys(ring)) for _ in range(3))
    c = data.draw(NONZERO)
    assert_same((p + q) + r, p + (q + r))
    assert_same(p * q, q * p)
    assert_same((p + q) * r, p * r + q * r)
    assert_same(p - q + q, p)
    assert_same(p ** 2, p * p)
    assert_same(p * c / c, p)
    assert_same(Scalar(ring, p.terms), p)
    if not q.is_zero():
        assert_same((p * q).exact_div(q), p)
    for name in ring.symbols[:1]:
        x = ring.sym(name)
        assert_same(p.shift(name, c).shift(name, -c), p)
        assert_same(p.substitute({name: x}), p)
        assert_same(sum((p.coeff_of(name, k) * x ** k for k in range(5)), ring.zero), p)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@NET
@given(q=RATIONALS | st.integers(-20, 20))
def test_a_rational_constant_hashes_like_its_fraction(ring_name, q):
    ring = RINGS[ring_name]
    s = ring.const(q)
    assert s == q and hash(s) == hash(q) == hash(Fraction(q))
    assert_same(s, Scalar(ring, {(0,) * ring.nvars: q}))


# -- grades ------------------------------------------------------------------

LATTICES = {"Z": Lattice.standard(1), "Z2": Lattice.standard(2),
            "halfZ": Lattice([(Fraction(1, 2),)]),
            "skew": Lattice([(1, 0), (Fraction(1, 2), Fraction(1, 3))])}
ALGEBRAS = {f"{name}-{flavour}": Weyl(lat.dim, lattice=lat, subalgebra=flavour)
            for name, lat in LATTICES.items() for flavour in ("w1", "full", "hat")
            if flavour != "hat" or lat.dim == 1}


def grade_terms(weyl):
    """Nonempty term maps on lattice points, grades in the form ambient()
    returns (a zero element prints as the scalar 0, which is not in W^(1))."""
    lat, n = weyl.lattice, weyl.n
    least = 0 if weyl.subalgebra == "full" else 1
    grade = st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank).map(lat.ambient)
    mu = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(
        lambda m: sum(m) >= least)
    return st.dictionaries(st.tuples(grade, mu), NONZERO, min_size=1, max_size=3)


def assert_canonical_grades(x):
    for gamma, _mu in x.terms:
        for g in gamma:
            assert type(g) is int or (type(g) is Fraction and g.denominator > 1), gamma


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@NET
@given(data=st.data())
def test_every_operation_returns_canonical_grades(name, data):
    weyl = ALGEBRAS[name]
    terms = data.draw(grade_terms(weyl))
    basis = data.draw(st.sampled_from(("power", "falling")))
    # the same element from Fraction(3) grades and from 3
    x = WeylElement(weyl, {(tuple(map(Fraction, g)), mu): c for (g, mu), c in terms.items()},
                    basis=basis)
    twin = WeylElement(weyl, terms, basis=basis)
    text = format_element(x)
    assert x == twin and hash(x) == hash(twin) and format_element(twin) == text
    y = WeylElement(weyl, data.draw(grade_terms(weyl)))
    c = data.draw(NONZERO)
    back = as_element(parse_element(text, Session(weyl)), weyl)
    assert back == x and format_element(back) == text
    for z in (x, twin, y, mul(x, y), bracket(x, y), x + y, x - y, x.scale(c),
              x.to_falling(), x.to_power(), back):
        assert_canonical_grades(z)


@pytest.mark.parametrize("text", ["t^(2/2)*D", "D + t^(1/2)*t^(1/2)*D",
                                  "D + (t^(1/2))^2*D", "D - t^(-3/2)*t^(3/2)*D^2"])
def test_parsed_integral_grades_are_ints(text):
    weyl = ALGEBRAS["halfZ-full"]
    x = parse_element(text, Session(weyl))
    assert all(type(g) is int for gamma, _mu in x.terms for g in gamma)


# -- the parser's monomials --------------------------------------------------

ALPHA = Ring(("alpha",))
MONOMIAL_ALGEBRAS = {f"{name}-{flavour}": Weyl(LATTICES[name].dim, ring=ALPHA,
                                                lattice=LATTICES[name], subalgebra=flavour)
                     for name in ("Z", "halfZ", "skew") for flavour in ("w1", "full", "hat")
                     if flavour != "hat" or LATTICES[name].dim == 1}
# grade coordinates in Gamma and out of it on each lattice
COORDS = st.sampled_from((0, 1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3),
                          Fraction(5, 6)))


def written_monomials(weyl):
    """(grade, mu, coefficient, basis, text): one monomial of the grammar,
    with its grade maybe outside Gamma and mu maybe 0 (then, with a zero
    grade, the text is a bare scalar, which as_element lifts)."""
    n = weyl.n
    gamma = st.lists(COORDS, min_size=n, max_size=n).map(tuple)
    mu = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    rational = RATIONALS.map(lambda q: (q, f"({q})"))
    formal = st.tuples(NONZERO, RATIONALS).map(
        lambda ab: (ab[0] * ALPHA.sym("alpha") + ab[1], f"(({ab[0]})*alpha + ({ab[1]}))"))
    return st.tuples(gamma, mu, rational | formal, st.sampled_from(("power", "falling")),
                     st.booleans()).map(lambda drawn: _write(n, *drawn))


def _write(n, gamma, mu, coeff, basis, coeff_last):
    c, c_text = coeff
    names = ["D"] if n == 1 else [f"D{i + 1}" for i in range(n)]
    parts = []
    if any(gamma):
        coords = [str(g) for g in gamma]
        parts.append(f"t^({coords[0]})" if n == 1 else "t[" + ",".join(coords) + "]")
    for name, m in zip(names, mu):
        if m:
            parts.append(f"[{name}]_{m}" if basis == "falling" else f"{name}^{m}")
    parts.insert(len(parts) if coeff_last else 0, c_text)
    return gamma, mu, c, basis, "*".join(parts)


@pytest.mark.parametrize("name", sorted(MONOMIAL_ALGEBRAS))
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_parsed_monomial_is_the_constructors_element(name, data):
    """The parser's guards are the constructor's checks: a written monomial,
    alone or as a later summand, is WeylElement(weyl, {(gamma, mu): c}), and
    when the constructor raises, the parser raises the same exception type."""
    weyl = MONOMIAL_ALGEBRAS[name]
    gamma, mu, c, basis, text = data.draw(written_monomials(weyl))
    first = weyl.tD((1,) + (0,) * (weyl.n - 1))
    head = "t^(1)*D" if weyl.n == 1 else "t[1,0]*D1"
    session = Session(weyl)
    try:
        want = WeylElement(weyl, {(gamma, mu): c}, basis=basis)
    except ValueError as exc:
        for written in (text, f"{head} + {text}"):
            with pytest.raises(type(exc)) as raised:
                as_element(parse_element(written, session), weyl)
            assert type(raised.value) is type(exc), written
        return
    for written, value in ((text, want), (f"{head} + {text}", first + want)):
        got = as_element(parse_element(written, session), weyl)
        assert got == value and format_element(got) == format_element(value), written


# -- grade admission -----------------------------------------------------------

ADMISSION_LATTICES = {"Z": Lattice.standard(1), "Z2": Lattice.standard(2),
                      "halfZ": LATTICES["halfZ"], "sixthZ": Lattice([(Fraction(1, 6),)]),
                      "skew": LATTICES["skew"], "Z(1,0)": Lattice([(1, 0)])}
# ints, Fractions with denominator 1 (Fraction(4, 2) is Fraction(2)) and
# coordinates that some of the lattices above miss; every one lies in (1/12)Z
ADMISSION_COORDS = st.sampled_from((0, 1, -3, Fraction(4, 2), Fraction(-6, 3), Fraction(0, 5),
                                    Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3),
                                    Fraction(5, 6), Fraction(-1, 4)))


@pytest.mark.parametrize("name", sorted(ADMISSION_LATTICES))
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_grade_is_admitted_through_membership_alone(name, data):
    lat = ADMISSION_LATTICES[name]
    n = lat.dim
    weyl = Weyl(n, lattice=lat, subalgebra="w1")
    gamma = tuple(data.draw(st.lists(ADMISSION_COORDS, min_size=n, max_size=n)))
    mu = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)))
    coords = lat.membership(gamma)
    if coords is not None:
        x = weyl.monomial(gamma, mu)
        (key, _mu), = x.terms
        assert key == lat.ambient(coords) == gamma
        assert all((type(k) is int) == (Fraction(k).denominator == 1) for k in key), key
        assert parse_element(format_element(x), Session(weyl)) == x
        return
    message = rf"^grade \({', '.join(str(Fraction(g)) for g in gamma)}\) is not in the lattice$"
    with pytest.raises(ValueError, match=message):
        weyl.monomial(gamma, mu)
    written = (f"t^({gamma[0]})*D^{mu[0]}" if n == 1
               else "t[" + ",".join(map(str, gamma)) + "]*" + "*".join(
                   f"D{i + 1}^{m}" for i, m in enumerate(mu) if m))
    with pytest.raises(ValueError, match=message):
        parse_element(written, Session(weyl))
    # an element of (1/12)Z^n, which holds every drawn grade, acting on the module over lat
    twelfths = Weyl(n, lattice=Lattice([[Fraction(int(i == j), 12) for j in range(n)]
                                         for i in range(n)]), subalgebra="w1")
    with pytest.raises(ValueError, match=message):
        act(make_module("A", [Fraction(1, 2)] * n, weyl), twelfths.monomial(gamma, mu),
            (0,) * lat.rank)


# -- the kernel on grade blocks ------------------------------------------------

HATS = {"Z": Weyl(1, subalgebra="hat"),
        "halfZ": Weyl(1, lattice=LATTICES["halfZ"], subalgebra="hat"),
        "formal": Weyl(1, ring=RINGS["ab"], subalgebra="hat")}


def homogeneous(weyl, coords, data):
    """2 to 4 terms t^g D^mu on one grade, the lattice point ``coords``."""
    coeffs = (polys(weyl.ring, max_terms=3).filter(lambda c: not c.is_zero())
              if weyl.ring.nvars else NONZERO)
    terms = data.draw(st.dictionaries(st.integers(1, 4), coeffs, min_size=2, max_size=4))
    g = weyl.lattice.ambient((coords,))
    return WeylElement(weyl, {(g, (m,)): c for m, c in terms.items()})


@pytest.mark.parametrize("name", sorted(HATS))
@settings(max_examples=6, derandomize=True, database=None, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_jacobi_and_the_cocycle_condition_hold_on_grade_blocks(name, data):
    weyl = HATS[name]
    a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    # grades summing to zero, where psi([x,y],z) can be nonzero, or any three
    c = -(a + b) if data.draw(st.booleans()) else data.draw(st.integers(-3, 3))
    x, y, z = (homogeneous(weyl, k, data) for k in (a, b, c))
    assert verify_jacobi(x, y, z).passed
    assert verify_cocycle_condition(x, y, z).passed


# -- across the layers ---------------------------------------------------------

CROSS = {name: Weyl(LATTICES[name].dim, lattice=LATTICES[name])
         for name in ("Z", "halfZ", "skew")}
# the same lattices, W^(1) with a formal alpha for the modules
MODULE_ALGEBRAS = {name: Weyl(w.n, ring=Ring(("alpha",) if w.n == 1 else ("a1", "a2")),
                              lattice=w.lattice, subalgebra="w1")
                   for name, w in CROSS.items()}


def elements(weyl):
    """Nonzero elements of up to three terms on lattice points, in either basis."""
    return st.tuples(grade_terms(weyl), st.sampled_from(("power", "falling"))).map(
        lambda drawn: WeylElement(weyl, drawn[0], basis=drawn[1]))


def points(lattice):
    return st.lists(st.integers(-3, 3), min_size=lattice.rank,
                    max_size=lattice.rank).map(tuple)


@pytest.mark.parametrize("name", sorted(CROSS))
@KERNEL
@given(data=st.data())
def test_mul_agrees_with_the_operator_action(name, data):
    weyl = CROSS[name]
    x, y = data.draw(elements(weyl)), data.draw(elements(weyl))
    g = weyl.lattice.ambient(data.draw(points(weyl.lattice)))
    assert operator_action(mul(x, y), g) == act_on_combination(x, operator_action(y, g))


@pytest.mark.parametrize("name", sorted(CROSS))
@KERNEL
@given(data=st.data())
def test_every_output_grade_lies_in_the_lattice(name, data):
    weyl = CROSS[name]
    x, y = data.draw(elements(weyl)), data.draw(elements(weyl))
    for z in (mul(x, y), bracket(x, y), x + y):
        assert all(weyl.lattice.membership(g) is not None for g, _mu in z.terms), z


@pytest.mark.parametrize("kind", ("A", "B"))
@pytest.mark.parametrize("name", sorted(MODULE_ALGEBRAS))
@KERNEL
@given(data=st.data())
def test_the_lie_module_axiom_holds_with_formal_alpha(name, kind, data):
    weyl = MODULE_ALGEBRAS[name]
    m = make_module(kind, "formal", weyl)
    x, y = data.draw(elements(weyl)), data.draw(elements(weyl))
    v = data.draw(points(weyl.lattice))
    xy, yx = act(m, x, act(m, y, v)), act(m, y, act(m, x, v))
    zero = weyl.ring.zero
    rhs = {k: xy.get(k, zero) - yx.get(k, zero) for k in xy.keys() | yx.keys()}
    assert act(m, bracket(x, y), v) == {k: c for k, c in rhs.items() if c}


def _sum_basis(partial, summand):
    """FORMAT.md's basis of partial + summand."""
    def has_d(z):
        return any(any(mu) for _g, mu in z.terms)
    if not has_d(partial):
        return summand.basis
    if partial.basis != summand.basis and has_d(summand):
        return "power"
    return partial.basis


@pytest.mark.parametrize("name", sorted(CROSS))
@NET
@given(data=st.data())
def test_a_sum_is_one_value_however_grouped(name, data):
    weyl = CROSS[name]
    a, b, c = (data.draw(elements(weyl)) for _ in range(3))
    # or c cancels b, so that b + c has no D-terms
    c = data.draw(st.sampled_from((c, -b.to_power(), -b.to_falling())))
    ab, bc = a + b, b + c
    left, right = ab + c, a + bc
    assert left == right and hash(left) == hash(right)
    for partial, summand, total in ((a, b, ab), (b, c, bc), (ab, c, left), (a, bc, right)):
        assert total.basis == _sum_basis(partial, summand)


def test_a_sums_basis_depends_on_its_grouping():
    weyl = CROSS["Z"]
    session = Session(weyl)
    a, b, c = (as_element(parse_element(text, session), weyl)
               for text in ("-t^(1)*[D]_1 - t^(1)*[D]_2", "-t^(1)*D", "t^(1)*[D]_1"))
    left, right = (a + b) + c, a + (b + c)
    assert left == right
    assert (format_element(left), format_element(right)) == (
        "-t^(1)*D^2", "-t^(1)*[D]_1 - t^(1)*[D]_2")
