"""Desk-scale certification that brackets of t^(i0)D, t^(i0+1)D, t^(i0)D^2
and a tail of pure D-polynomials generate every t^k D^m in a window."""

import random
from fractions import Fraction

import pytest

from winfty.echelon import integral
from winfty.onevar import (DfElement, GeneratedSubalgebra, _bracket_vec, _to_vec,
                           generation_membership, standard_generators)
from winfty.weyl import BasisMismatchError, Weyl, bracket

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
    assert sub_i1.membership(W1.D()) is None
    assert sub_i1.membership(W1.monomial((0,), (2,))) is None


def test_out_of_box_target_rejected(sub_i1):
    with pytest.raises(ValueError):
        sub_i1.membership(W1.monomial((41,), (1,)))


def test_generation_membership_report(sub_i1):
    rep = generation_membership(W1, 1, 2, DfElement.of(7, {2: Fraction(1)}),
                                sub=sub_i1)
    assert rep.passed
    witness = rep.details["witness"]
    assert witness and all(isinstance(w, tuple) and len(w) == 2
                           for w in witness)


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


def test_rejects_central_extension():
    hat = Weyl(1, subalgebra="hat")
    with pytest.raises(ValueError):
        GeneratedSubalgebra(hat, standard_generators(hat, 1, 2), deg_hi=12)


def test_rejects_falling_basis_generators():
    with pytest.raises(BasisMismatchError):
        GeneratedSubalgebra(W1, [("t^1[D]_2", W1.monomial((1,), (2,), basis="falling"))]
                            + standard_generators(W1, 1, 2), deg_hi=12)
    # also when no generator lies in the box, so no bracket is ever taken
    with pytest.raises(BasisMismatchError):
        GeneratedSubalgebra(W1, [("t^50[D]_2", W1.monomial((50,), (2,), basis="falling"))],
                            deg_hi=12)


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


def test_bracket_vec_matches_generic_bracket():
    # rational degrees and coefficients, where the product formula leaves
    # non-integral vectors
    rng = random.Random(17)
    w = Weyl(1)

    def element():
        out = w.zero()
        for _ in range(rng.randint(1, 3)):
            out = out + w.monomial((Fraction(rng.randint(-6, 6), 2),), (rng.randint(1, 4),),
                                   Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)))
        return out

    for _ in range(60):
        x, y = element(), element()
        expect = _to_vec(bracket(x, y))
        assert _bracket_vec(_to_vec(x), _to_vec(y)) == expect
        ivec, s = integral(expect)
        assert all(type(c) is int for c in ivec.values()) and s > 0
        assert {k: Fraction(c, s) for k, c in ivec.items()} == expect


def test_stretch_box_100_10():
    # ROADMAP stretch goal: every t^k D^m at (deg_hi, d_cap) = (100, 10)
    sub = GeneratedSubalgebra(W1, standard_generators(W1, 1, 2, 10),
                              deg_hi=100, d_cap=10)
    for m in range(1, 11):
        for k in range(3, 101):
            assert sub.membership(W1.monomial((k,), (m,))) is not None
    target = W1.monomial((100,), (10,))
    assert _reevaluate(sub, sub.membership(target)) == target
