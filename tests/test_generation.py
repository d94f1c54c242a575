"""Desk-scale certification that brackets of t^(i0)D, t^(i0+1)D, t^(i0)D^2
and a tail of pure D-polynomials generate every t^k D^m in a window."""

import hashlib
import random
from fractions import Fraction

import pytest

from winfty import onevar
from winfty.echelon import Echelon, integral
from winfty.lattice import Lattice
from winfty.onevar import GeneratedSubalgebra, _bracket_vec, _int_vec, standard_generators
from winfty.printer import format_element
from winfty.scalars import Ring
from winfty.weyl import Weyl, WeylElement, bracket

W1 = Weyl(1, subalgebra="w1")


def _reevaluate(sub, combo):
    """sum c * raw[r], each raw element re-evaluated from the generators alone"""
    acc = sub.weyl.zero()
    for c, r in combo:
        acc = acc + sub.eval_word(sub.raw[r][1]).scale(c)
    return acc


@pytest.fixture(scope="module")
def sub_i1():
    return GeneratedSubalgebra(W1, standard_generators(W1, 1, 2),
                               deg_lo=0, deg_hi=40, d_cap=6)


def test_generator_is_member(sub_i1):
    assert sub_i1.membership(W1.tD((1,))) is not None


def test_t5d_member_via_nested_brackets(sub_i1):
    combo = sub_i1.membership(W1.tD((5,)))
    assert combo is not None
    assert _reevaluate(sub_i1, combo) == W1.tD((5,))


def test_eval_word_reads_generator_names(sub_i1):
    assert sub_i1.eval_word("t^1D") == W1.tD((1,))
    with pytest.raises(KeyError):
        sub_i1.eval_word("nope")


def test_degree_two_reduction_identity():
    # [t^(k-1)D, tD^2] = (3-2k) t^k D^2 + (degree-one terms), k = 12
    k = 12
    got = bracket(W1.tD((k - 1,)), W1.monomial((1,), (2,)))
    target = W1.monomial((k,), (2,), 3 - 2 * k)
    leftover = got - target
    assert all(mu == (1,) for (_g, mu) in leftover.terms)


def test_membership_of_d2_targets(sub_i1):
    for k in (3, 12, 25, 40):
        assert sub_i1.membership(W1.monomial((k,), (2,))) is not None


def test_nonmember_low_degree(sub_i1):
    # D and D^2 are not generated: the tail of pure D-polynomials starts
    # at order 3 and brackets cannot lower the Gamma-degree below 0
    assert sub_i1.membership(W1.monomial((0,), (1,))) is None
    assert sub_i1.membership(W1.monomial((0,), (2,))) is None


def test_out_of_box_target_rejected(sub_i1):
    with pytest.raises(ValueError):
        sub_i1.membership(W1.monomial((41,), (1,)))


def test_i0_2_coverage_sample():
    sub = GeneratedSubalgebra(W1, standard_generators(W1, 2, 2),
                              deg_lo=0, deg_hi=40, d_cap=6)
    for m in range(1, 5):
        for k in (6, 20, 40):
            assert sub.membership(W1.monomial((k,), (m,))) is not None


# -- input handling ----------------------------------------------------------


def test_falling_basis_target_is_converted():
    sub = GeneratedSubalgebra(W1, standard_generators(W1, 1, 2), deg_hi=12)
    target = W1.monomial((3,), (2,), basis="falling")  # t^3 D^2 - t^3 D
    combo = sub.membership(target)
    assert combo is not None
    assert _reevaluate(sub, combo) == target


def test_rejects_two_variable_algebra():
    w2 = Weyl(2, subalgebra="w1")
    gens = [("t[1,0]D1", w2.tD((1, 0))), ("t[1,5]D2", w2.tD((1, 5), 1)),
            ("t[1,0]D1^2", w2.monomial((1, 0), (2, 0)))]
    with pytest.raises(ValueError):
        GeneratedSubalgebra(w2, gens, deg_hi=12)
    sub = GeneratedSubalgebra(W1, standard_generators(W1, 1, 2), deg_hi=12)
    with pytest.raises(ValueError):
        sub.membership(w2.tD((3, 5)))


HALF_W1 = Weyl(1, lattice=Lattice([(Fraction(1, 2),)]), subalgebra="w1")


@pytest.mark.parametrize("foreign", [
    HALF_W1.tD((Fraction(1, 2),)),
    Weyl(1, ring=Ring(("a",)), subalgebra="w1").tD((2,)),
    Weyl(1).tD((2,)),
], ids=("half-Z", "foreign-ring", "full-flavor"))
def test_generators_and_targets_belong_to_the_algebra(foreign):
    # the closure took each of these; with the half-Z one it recorded raw
    # elements such as 1/2*t^(3/2)*D, which lie outside W(Z,1)^(1)
    with pytest.raises(ValueError, match="closure's algebra"):
        GeneratedSubalgebra(W1, standard_generators(W1, 1, 2) + [("g", foreign)],
                            deg_hi=12)
    sub = GeneratedSubalgebra(W1, standard_generators(W1, 1, 2), deg_hi=12)
    with pytest.raises(ValueError, match="closure's algebra"):
        sub.membership(foreign)


@pytest.mark.parametrize("box", [
    {"d_cap": 0}, {"d_cap": -1}, {"deg_lo": 5, "deg_hi": 2},
    {"d_cap": 2.5}, {"deg_hi": 12.0}, {"deg_lo": Fraction(0)},
], ids=("d_cap-0", "d_cap-negative", "lo-above-hi", "float-d_cap", "float-deg_hi",
        "fraction-deg_lo"))
def test_rejects_a_box_that_cannot_hold_anything(box):
    # each of these built a silently empty (or float-capped) closure
    with pytest.raises(ValueError):
        GeneratedSubalgebra(W1, standard_generators(W1, 1, 2), **box)


def test_rejects_central_extension():
    hat = Weyl(1, subalgebra="hat")
    with pytest.raises(ValueError):
        GeneratedSubalgebra(hat, standard_generators(hat, 1, 2), deg_hi=12)


def test_falling_basis_generators_are_converted():
    def closure(gens):
        sub = GeneratedSubalgebra(W1, gens, deg_hi=12)
        return (sub.dimension, sub.rounds,
                [(format_element(x), sub.word_text(word)) for x, word in sub.raw])

    # t^50 [D]_2 lies outside the box, so none of its brackets is taken
    for gens in ([("t^1[D]_2", W1.monomial((1,), (2,), basis="falling"))]
                 + standard_generators(W1, 1, 2),
                 [("t^50[D]_2", W1.monomial((50,), (2,), basis="falling"))]):
        assert closure(gens) == closure([(name, g.to_power()) for name, g in gens])


# -- the integer closure against the generic kernel --------------------------


def _scaled(gens):
    return [(name, g.scale(Fraction(3, 2 + i))) for i, (name, g) in enumerate(gens)]


@pytest.mark.parametrize("deg_hi,d_cap,i0,scale", [
    (28, 4, 1, False), (28, 4, 2, False), (14, 5, 1, False), (14, 5, 2, False),
    (14, 5, 1, True)])
def test_raw_entries_match_generic_bracket(deg_hi, d_cap, i0, scale):
    gens = standard_generators(W1, i0, 2, d_cap)
    if scale:
        gens = _scaled(gens)
    sub = GeneratedSubalgebra(W1, gens, deg_hi=deg_hi, d_cap=d_cap)
    brackets = 0
    for x, word in sub.raw:
        if isinstance(word, str):
            continue
        _, gi, idx = word
        assert x == bracket(sub.generators[gi][1], sub.raw[idx][0])
        brackets += 1
    assert brackets == len(sub.raw) - len(gens)


K = Ring(("k",)).sym("k")


@pytest.mark.parametrize("i0", (1, 2))
@pytest.mark.parametrize("q", (1, 2, 3, 4))
def test_bracket_vec_takes_a_formal_degree(i0, q):
    # the diagonal of [t^(i0)D, t^(k-i0)D^q] that the step of Lemma 2.1 reads
    out = _bracket_vec({(i0, 1): 1}, {(K - i0, q): 1})
    assert out[(K, q)] == K - (q + 1) * i0


def test_bracket_vec_formal_degree_full_bracket():
    # [D^3, t^k D] = 3k D^3 + 3k^2 D^2 + k^3 D
    assert _bracket_vec({(0, 3): 1}, {(K, 1): 1}) == {
        (K, 3): 3 * K, (K, 2): 3 * K ** 2, (K, 1): K ** 3}


def test_duplicate_generator_names_rejected():
    # eval_word finds a generator by name, so the second "g" re-evaluated as
    # the first: raw[1] = t^(1)*D^2 came back as t^(1)*D
    with pytest.raises(ValueError, match="duplicate generator names"):
        GeneratedSubalgebra(W1, [("g", W1.tD((1,))), ("g", W1.monomial((1,), (2,)))],
                            deg_hi=4, d_cap=3)


def test_bracket_vec_matches_generic_bracket():
    # rational degrees and coefficients, where the product formula leaves
    # non-integral vectors
    rng = random.Random(17)
    w = Weyl(1, lattice=Lattice([(Fraction(1, 2),)]))

    def element():
        out = w.zero()
        for _ in range(rng.randint(1, 3)):
            out = out + w.monomial((Fraction(rng.randint(-6, 6), 2),), (rng.randint(1, 4),),
                                   Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)))
        return out

    for _ in range(60):
        x, y = element(), element()
        (xv, xs), (yv, ys) = _int_vec(x), _int_vec(y)
        ivec, s = integral(_bracket_vec(xv, yv), xs * ys)
        assert all(type(c) is int for c in ivec.values()) and s > 0
        assert (ivec, s) == _int_vec(bracket(x, y))


def test_stretch_box_100_10():
    # ROADMAP stretch goal: every t^k D^m at (deg_hi, d_cap) = (100, 10)
    sub = GeneratedSubalgebra(W1, standard_generators(W1, 1, 2, 10),
                              deg_hi=100, d_cap=10)
    for m in range(1, 11):
        for k in range(3, 101):
            assert sub.membership(W1.monomial((k,), (m,))) is not None
    target = W1.monomial((100,), (10,))
    assert _reevaluate(sub, sub.membership(target)) == target


# -- the skipped closure against an unskipped one ------------------------------


def _naive_closure(gens, deg_lo, deg_hi, d_cap):
    """The closure with every frontier x generator bracket computed: dimension,
    rounds, raw words and raw vectors."""
    echelon = Echelon()
    vecs, words = [], []

    def add(vec, scale, word):
        if not vec or not all(deg_lo <= k <= deg_hi and 1 <= m <= d_cap for k, m in vec):
            return False
        ivec, s = integral(vec, scale)
        if not echelon.insert(ivec, s, len(vecs)):
            return False
        vecs.append((ivec, s))
        words.append(word)
        return True

    gvecs = [_int_vec(g) for _name, g in gens]
    frontier = []
    for (name, _g), (vec, s) in zip(gens, gvecs):
        if add(vec, s, name):
            frontier.append(len(vecs) - 1)
    rounds = 0
    while frontier:
        rounds += 1
        nxt = []
        for idx in frontier:
            x, xs = vecs[idx]
            for gi, (g, gs) in enumerate(gvecs):
                if add(_bracket_vec(g, x), gs * xs, ("br", gi, idx)):
                    nxt.append(len(vecs) - 1)
        frontier = nxt
    return len(echelon), rounds, words, vecs


def _closure_summary(sub):
    return (sub.dimension, sub.rounds, [w for _x, w in sub.raw],
            [_int_vec(x) for x, _w in sub.raw])


def _assert_matches_naive(weyl, gens, deg_lo, deg_hi, d_cap):
    sub = GeneratedSubalgebra(weyl, gens, deg_lo=deg_lo, deg_hi=deg_hi, d_cap=d_cap)
    assert _closure_summary(sub) == _naive_closure(gens, deg_lo, deg_hi, d_cap)
    return sub


@pytest.mark.parametrize("deg_hi,d_cap", [(28, 4), (32, 4), (14, 5), (16, 5)])
@pytest.mark.parametrize("i0", [1, 2])
def test_closure_matches_unskipped_closure_on_benchmark_boxes(deg_hi, d_cap, i0):
    _assert_matches_naive(W1, standard_generators(W1, i0, 2, d_cap), 0, deg_hi, d_cap)


def _counting_brackets(monkeypatch):
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return _bracket_vec(x, y)

    monkeypatch.setattr(onevar, "_bracket_vec", counted)
    return calls


def test_closure_matches_unskipped_closure_on_inhomogeneous_generators(monkeypatch):
    calls = _counting_brackets(monkeypatch)
    rng = random.Random(7)
    pairs = 0
    for _ in range(40):
        gens = []
        for gi in range(rng.randint(2, 5)):
            g = W1.zero()
            for k in rng.sample(range(-1, 5), rng.randint(1, 2)):
                g = g + W1.monomial((k,), (rng.randint(1, 3),), rng.randint(-3, 3) or 1)
            gens.append((f"g{gi}", g))
        sub = _assert_matches_naive(W1, gens, rng.randint(-2, 0), rng.randint(6, 14),
                                    rng.randint(2, 4))
        pairs += len(sub.raw) * len(gens)
    # the naive closures computed every pair; the skipped ones must have
    # computed fewer, or this test compares nothing
    assert calls[0] < pairs


def _cofinite_s(rng, codim, d_cap):
    """An echelon basis of a random S of codimension ``codim`` in span{D, ...,
    D^d_cap}: D^p + sum c_(p,q) D^q for each order p but ``codim`` missing ones,
    q running over the missing orders below p, with integer c."""
    missing = rng.sample(range(1, d_cap + 1), codim)
    return [(f"S{p}", WeylElement(W1, {((0,), (q,)): rng.randint(-4, 4)
                                        for q in missing if q < p} | {((0,), (p,)): 1}))
            for p in range(1, d_cap + 1) if p not in missing]


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("codim", (1, 2, 3))
def test_closure_matches_unskipped_closure_on_a_cofinite_s(monkeypatch, codim, seed):
    # the generators of Lemma 2.1 with a generic S: non-monomial generators
    # that reach partly spanned D-order prefixes
    calls = _counting_brackets(monkeypatch)
    rng = random.Random(seed)
    gens = standard_generators(W1, 1 + seed % 2, 2)[:3] + _cofinite_s(rng, codim, 6)
    sub = _assert_matches_naive(W1, gens, 0, 20, 6)
    assert any(len(g.terms) > 1 for _name, g in gens)
    assert calls[0] < len(sub.raw) * len(gens)


def test_closure_matches_unskipped_closure_on_half_z():
    half = Fraction(1, 2)
    gens = [("t^(1/2)D", HALF_W1.tD((half,))), ("t^(3/2)D", HALF_W1.tD((3 * half,))),
            ("t^(1/2)D2", HALF_W1.monomial((half,), (2,))),
            ("D3+t^(1/2)D", HALF_W1.monomial((0,), (3,)) + HALF_W1.monomial((half,), (1,), 2))]
    sub = _assert_matches_naive(HALF_W1, gens, 0, 8, 4)
    assert any(isinstance(k, Fraction) for x, _w in sub.raw for k, _m in _int_vec(x)[0])


def test_half_z_closure_keys_are_canonical():
    # degrees 1/2 + 1/2 add to an integral Fraction; every raw key holds it
    # as an int, and the closure's summary is the one recorded before that
    half = Fraction(1, 2)
    gens = [("a", HALF_W1.tD((half,))), ("b", HALF_W1.tD((3 * half,))),
            ("c", HALF_W1.monomial((half,), (2,))),
            ("d", HALF_W1.monomial((0,), (3,)) + HALF_W1.monomial((1,), (1,), half))]
    sub = GeneratedSubalgebra(HALF_W1, gens, deg_lo=0, deg_hi=6, d_cap=3)
    degrees = [k for x, _w in sub.raw for (k,), _m in x.terms]
    assert all(type(k) is int or k.denominator > 1 for k in degrees)
    assert {type(k) for k in degrees} == {int, Fraction}
    digest = hashlib.sha256("\n".join(format_element(x) for x, _w in sub.raw).encode())
    assert [sub.dimension, sub.rounds, digest.hexdigest()] == [
        35, 6, "0d42b0713ff619ae2d7112ccb441a19d2fcf02e0292ccdf02e9cfc32ce7c68f3"]


def test_settled_degrees_skip_most_brackets(monkeypatch):
    # every accepted raw element is bracketed with every generator once, so
    # an unskipped closure computes len(raw) * len(gens) brackets (570 here);
    # skipping the brackets that land in spanned D-order prefixes leaves 115
    calls = _counting_brackets(monkeypatch)
    gens = standard_generators(W1, 1, 2, 4)
    sub = GeneratedSubalgebra(W1, gens, deg_lo=0, deg_hi=28, d_cap=4)
    assert calls[0] < len(sub.raw) * len(gens) / 4


def test_closure_reads_only_rational_coefficients():
    # the closure's vectors are integers over one denominator, so a formal
    # coefficient is refused where it enters, as a generator or a target
    w = Weyl(1, ring=Ring(("a",)), subalgebra="w1")
    formal = w.tD((3,)).scale(w.ring.sym("a"))
    with pytest.raises(ValueError, match="not a rational constant: a"):
        GeneratedSubalgebra(w, standard_generators(w, 1, 2) + [("g", formal)], deg_hi=12)
    sub = GeneratedSubalgebra(w, standard_generators(w, 1, 2), deg_hi=12)
    with pytest.raises(ValueError, match="not a rational constant: a"):
        sub.membership(formal)
