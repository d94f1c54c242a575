"""Modules of the intermediate series: actions, the associativity
dichotomy, submodule scans, and the d/dt-normalized basis data."""

import itertools
from fractions import Fraction

import pytest

from winfty.intermediate import (act, highest_weight_scan, make_module,
                                 normalize_ddt_basis, submodule_scan)
from winfty.lattice import Lattice
from winfty.scalars import Ring, Scalar, rising
from winfty.suites import SuiteOptions, run_suite
from winfty.weyl import Weyl

RING = Ring(("alpha",))
W1 = Weyl(1, ring=RING, subalgebra="w1")


def frac(v):
    return Fraction(v)


# -- actions ---------------------------------------------------------------


def test_action_kind_a():
    m = make_module("A", [frac("1/2")], W1)
    got = act(m, W1.monomial((2,), (3,)), (1,))
    assert got == {(3,): RING.const(Fraction(27, 8))}


def test_action_kind_a_alpha_zero_kills_y0():
    m = make_module("A", [0], W1)
    assert act(m, W1.monomial((3,), (2,)), (0,)) == {}


def test_action_kind_b():
    m = make_module("B", [frac("1/2")], W1)
    assert act(m, W1.tD((1,)), (0,)) == {(1,): RING.const(Fraction(3, 2))}
    # even |mu|: (-1)^(2+1) (1/2 + 1 + 0)^2 = -9/4
    assert act(m, W1.monomial((1,), (2,)), (0,)) == {(1,): RING.const(Fraction(-9, 4))}


RING2 = Ring(("a1", "a2"))
SKEW = Lattice([(1, 0), (1, 2)])
W2_SKEW = Weyl(2, ring=RING2, lattice=SKEW, subalgebra="w1")


@pytest.mark.parametrize("kind", ("A", "B"))
@pytest.mark.parametrize("mu", ((2, 1), (1, 1), (0, 2), (3, 0)))
def test_action_rank2_formal_matches_docstring(kind, mu):
    # b = ambient(1, -1) = (0, -2) acting on g = ambient(2, 1) = (3, 2)
    a1, a2 = RING2.sym("a1"), RING2.sym("a2")
    if kind == "A":
        want = (a1 + 3) ** mu[0] * (a2 + 2) ** mu[1]
    else:
        want = (a1 + 0 + 3) ** mu[0] * (a2 - 2 + 2) ** mu[1] * (-1) ** (sum(mu) + 1)
    m = make_module(kind, "formal", W2_SKEW)
    assert act(m, W2_SKEW.monomial((0, -2), mu), (2, 1)) == {(3, 0): want}


@pytest.mark.parametrize("coords", ((1.5,), ("1",), (Fraction(1, 2),)),
                         ids=("float", "str", "fraction"))
def test_act_rejects_non_integer_coordinates(coords):
    m = make_module("A", [frac("1/2")], W1)
    with pytest.raises(TypeError):
        act(m, W1.tD((1,)), coords)


def test_act_solves_each_exponent_once(monkeypatch):
    def module_and_element(calls=None):
        # a lattice of its own, so no coordinates are stored yet
        lattice = Lattice([[1]])
        if calls is not None:
            # count from before the element is built: its constructor checks
            # each grade through the same stored membership answers
            solve = lattice._echelon.solve
            monkeypatch.setattr(lattice._echelon, "solve", lambda v, s:
                                calls.append(Fraction(v.get(0, 0), s)) or solve(v, s))
        weyl = Weyl(1, ring=RING, lattice=lattice, subalgebra="w1")
        x = weyl.monomial((2,), (1,)) + weyl.monomial((2,), (2,)) + weyl.monomial((3,), (1,))
        return make_module("A", [frac("1/2")], weyl), x

    vec = {(0,): RING.one, (1,): RING.sym("alpha"), (5,): RING.const(3)}
    m, x = module_and_element()
    expected = {}
    for coords, vc in vec.items():
        for k, v in act(m, x, coords).items():
            expected[k] = expected.get(k, RING.zero) + v * vc
    expected = {k: v for k, v in expected.items() if v}
    calls = []
    m, x = module_and_element(calls)
    assert act(m, x, vec) == expected
    # one elimination per exponent, not one per (vector term, element term) pair
    assert sorted(calls) == [2, 3]
    calls.clear()
    assert act(m, x, vec) == expected
    assert calls == []


def test_act_rejects_off_lattice_exponent():
    weyl = Weyl(1, ring=RING, lattice=Lattice([[2]]), subalgebra="w1")
    m = make_module("A", [frac("1/2")], weyl)
    with pytest.raises(ValueError, match="not in the lattice"):
        act(m, weyl.monomial((2,), (1,)) + weyl.monomial((3,), (1,)), (0,))
    # an element of another algebra reaches the module's Weyl.coords, which
    # writes the constructor's message; act's own message, built with str(),
    # raised "Exceeds the limit (4300 digits) for integer string conversion"
    # on the long grade
    z = Weyl(1, ring=RING, subalgebra="w1")
    for other, grade, text in ((z, 3, "3"), (z, 10 ** 5000 + 1, "10{4999}1"),
                               (Weyl(1, ring=RING, lattice=Lattice([[frac("1/2")]]),
                                     subalgebra="w1"), frac("3/2"), "3/2")):
        with pytest.raises(ValueError, match=rf"^grade \({text}\) is not in the lattice$"):
            act(m, other.monomial((grade,), (1,)), (0,))


def test_act_refuses_a_term_outside_the_subalgebra_on_an_empty_vector():
    # before, the refusals ran inside the loop over vector entries, so an
    # empty vector returned {} for any x
    m = make_module("A", [0], Weyl(1))
    with pytest.raises(ValueError, match="not in the acting subalgebra"):
        act(m, Weyl(1).monomial((1,), (0,)), {})


@pytest.mark.parametrize("vec", ((0,), {}), ids=("basis", "empty"))
def test_act_refusals_come_in_term_order(vec):
    # a bad mu and an off-lattice grade, on the empty vector too: the first
    # term in x's order decides
    m = make_module("A", [frac("1/2")], Weyl(1, ring=RING, lattice=Lattice([[2]]),
                                             subalgebra="w1"))
    z = Weyl(1, ring=RING)
    off, flat = z.monomial((3,), (1,)), z.monomial((2,), (0,))
    with pytest.raises(ValueError, match="not in the lattice"):
        act(m, off + flat, vec)
    with pytest.raises(ValueError, match="not in the acting subalgebra"):
        act(m, flat + off, vec)
    # one term that is both: mu is checked first
    with pytest.raises(ValueError, match="not in the acting subalgebra"):
        act(m, z.monomial((3,), (0,)), vec)


def test_act_evaluates_each_grade_block_once(monkeypatch):
    # three terms on two grades, acting on a two-entry vector: two lattice
    # queries for x and no ** at all (each power comes from the one before)
    ring = Ring(("a1", "a2"))
    weyl = Weyl(2, ring=ring, lattice=Lattice([(1, 0), (frac("1/2"), frac("1/3"))]),
                subalgebra="w1")
    m = make_module("B", "formal", weyl)
    b, c = weyl.lattice.ambient((1, -1)), weyl.lattice.ambient((0, 2))
    x = weyl.monomial(b, (3, 1)) + weyl.monomial(b, (0, 2), 5) + weyl.monomial(c, (1, 0))
    vec = {(0, 0): ring.one, (1, 1): ring.sym("a1")}
    want = act(m, x, vec)
    grades, powers = [], []
    membership, power = Lattice.membership, Scalar.__pow__
    monkeypatch.setattr(Lattice, "membership",
                        lambda lat, v: grades.append(v) or membership(lat, v))
    monkeypatch.setattr(Scalar, "__pow__", lambda s, e: powers.append(e) or power(s, e))
    assert act(m, x, vec) == want
    assert (grades, powers) == ([b, c], [])
    # the B argument x = -(alpha + b + g) at b = (1/2, -1/3) on y_(0,0)
    x1, x2 = -(ring.sym("a1") + frac("1/2")), -(ring.sym("a2") - frac("1/3"))
    assert want[(1, -1)] == -(x1 * x1 * x1 * x2 + 5 * x2 * x2)


def test_alpha_needs_n_coordinates_on_low_rank_lattice():
    # Gamma = Z(1,1) in Q^2 has rank 1, but alpha lies in F^2: a rank-length
    # alpha leaves act() nothing to pair with the D2 exponent.
    w = Weyl(2, lattice=Lattice([[1, 1]]), subalgebra="w1")
    with pytest.raises(ValueError):
        make_module("A", [Fraction(1, 3)], w)
    m = make_module("A", [Fraction(1, 3), Fraction(1, 3)], w)
    assert act(m, w.monomial((1, 1), (0, 2)), (0,)) == {(1,): Ring().const(Fraction(1, 9))}


@pytest.mark.parametrize("call,message", (
    (lambda: normalize_ddt_basis(make_module("A", "formal", Weyl(2, ring=RING2)),
                                 range(-3, 4)), "rank-one"),
    (lambda: submodule_scan(make_module("A", "formal", W1), [(0,), (1,)]),
     "numeric alpha"),
    (lambda: highest_weight_scan(make_module("B", "formal", W1), [(0,), (1,)]),
     "numeric alpha"),
    (lambda: act(make_module("A", [0], Weyl(1)), Weyl(1).monomial((1,), (0,)), (0,)),
     "not in the acting subalgebra"),
    (lambda: make_module("C", [frac("1/2")], W1), "kind must be A or B"),
    (lambda: normalize_ddt_basis(make_module("A", "formal", W1), []), "k_range"),
    # one k leaves nothing to compare Q_i across
    (lambda: normalize_ddt_basis(make_module("A", "formal", W1), [0]), "k_range"),
), ids=("normalize-n2", "submodule-scan-formal", "highest-weight-formal",
        "act-mu-0", "kind-C", "normalize-empty-k-range", "normalize-one-k"))
def test_module_misuse_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- module axioms (the modules and assoc-dichotomy suites) ------------------


def _check(suite, name, **options):
    doc = run_suite(suite, SuiteOptions(**options))
    return {c.name: c for c in doc.checks}[name]


@pytest.mark.parametrize("kind", ("A", "B"))
def test_lie_module_axiom_formal(kind):
    rep = _check("modules", f"lie-module[{kind},n=1]", samples=60, seed=1,
                 max_mu=3, kind=kind)
    assert rep.passed


@pytest.mark.parametrize("kind", ("A", "B"))
def test_lie_module_axiom_formal_n2(kind):
    rep = _check("modules", f"lie-module[{kind},n=2]", samples=30, seed=3,
                 max_mu=2, kind=kind)
    assert rep.passed


def test_assoc_passes_for_a():
    rep = _check("assoc-dichotomy", "assoc-dichotomy[A]", samples=40, seed=2,
                 max_mu=3, kind="A")
    assert rep.passed and not rep.details["witnesses"]


def test_assoc_fails_for_b_with_canonical_witness():
    rep = _check("assoc-dichotomy", "assoc-dichotomy[B]", samples=40, seed=2,
                 max_mu=3, kind="B")
    assert rep.passed  # the dichotomy: B *must* produce witnesses
    w = rep.details["witnesses"][0]
    assert w["product_action"] == "(-15/4)*y[2]"
    assert w["staged_action"] == "(15/4)*y[2]"
    assert w["residual"] == "(-15/2)*y[2]"


# -- submodules and weights -----------------------------------------------


@pytest.fixture(scope="module")
def window():
    return [(k,) for k in range(-8, 9)]


def test_no_submodules_off_lattice(window):
    for kind in ("A", "B"):
        m = make_module(kind, [frac("1/2")], W1)
        assert submodule_scan(m, window) == []


def test_a0_has_trivial_line(window):
    m = make_module("A", [0], W1)
    assert submodule_scan(m, window) == [[(0,)]]


def test_b0_has_coline(window):
    m = make_module("B", [0], W1)
    found = submodule_scan(m, window)
    assert found == [sorted(c for c in window if c != (0,))]


def test_highest_weight_scan(window):
    # no vector below the window's top is killed; the top sees no positive action
    for kind, alpha in (("A", frac("1/2")), ("B", frac("1/2")), ("B", 0)):
        assert highest_weight_scan(make_module(kind, [alpha], W1), window) == (8,)
    assert highest_weight_scan(make_module("A", [0], W1), window) == (0,)


@pytest.mark.parametrize("kind", ("A", "B"))
@pytest.mark.parametrize("alpha", ((0, 2), (0, frac("1/2")), (-1, 0)))
def test_submodule_scan_rank2_matches_brute_force(kind, alpha):
    # reachability read off act on every t^b D^mu with |mu| <= 2
    window = list(itertools.product(range(-1, 2), repeat=2))
    m = make_module(kind, list(alpha), Weyl(2, lattice=SKEW, subalgebra="w1"))
    mus = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def reaches(src, dst):
        b = SKEW.ambient(tuple(d - s for d, s in zip(dst, src)))
        return any(act(m, m.weyl.monomial(b, mu), src) for mu in mus)

    found = []
    for start in window:
        closure, stack = {start}, [start]
        while stack:
            cur = stack.pop()
            for nxt in window:
                if nxt not in closure and reaches(cur, nxt):
                    closure.add(nxt)
                    stack.append(nxt)
        if len(closure) < len(window) and sorted(closure) not in found:
            found.append(sorted(closure))
    found.sort(key=lambda c: (len(c), c))
    assert submodule_scan(m, window) == found


def test_highest_weight_scan_empty_window():
    m = make_module("A", [0], W1)
    assert highest_weight_scan(m, []) is None


# -- normalization ---------------------------------------------------------


@pytest.mark.parametrize("kind", ("A", "B"))
def test_normalize_p_is_rising_formal(kind):
    m = make_module(kind, "formal", W1)
    data = normalize_ddt_basis(m, range(-3, 4))
    a = m.alpha[0]
    for i in range(-1, 6):
        for k in range(-3, 4):
            assert data.p[(i, k)] == rising(a + k, i + 1)
    assert data.p1_const == RING.zero
    assert data.p2_const == RING.zero


@pytest.mark.parametrize("kind,expected_q2", (("A", 1), ("B", -1)))
def test_normalize_q_signs(kind, expected_q2):
    m = make_module(kind, "formal", W1)
    data = normalize_ddt_basis(m, range(-3, 4))
    for i in (1, 3, 5):
        assert data.q[i] == RING.one
    assert data.q[2] == RING.const(expected_q2)
    assert data.q[2] * data.q[2] == RING.one


@pytest.mark.parametrize("k_range", ([0.5, 1.7, 2.9], ["1"]), ids=("float", "str"))
def test_normalize_rejects_non_integer_k(k_range):
    # int() read [0.5, 1.7, 2.9] as (0, 1, 2) and parsed "1"
    with pytest.raises(TypeError):
        normalize_ddt_basis(make_module("A", "formal", W1), k_range)


def test_normalize_rejects_vanishing_denominator():
    m = make_module("A", [0], W1)
    with pytest.raises(ZeroDivisionError):
        normalize_ddt_basis(m, range(-3, 4))


# t^-1 D acts on y_k by alpha + k (A) and alpha + k - 1 (B); the rescale is
# checked on k in [-8, 9] for the range [-3, 3], first and last k here
@pytest.mark.parametrize("kind,alpha", (("A", 8), ("A", -9), ("B", 9), ("B", -8)))
def test_normalize_rejects_vanishing_denominator_at_range_edges(kind, alpha):
    m = make_module(kind, [alpha], W1)
    with pytest.raises(ZeroDivisionError):
        normalize_ddt_basis(m, range(-3, 4))
