"""Acceptance gate: the ten top-level criteria, checked exactly.

Every check is exact rational/polynomial equality; each test prints one
pass/fail line for its criterion (run pytest with -s to see them all).
"""

import random
from fractions import Fraction

import pytest

from winfty.intermediate import make_module, normalize_ddt_basis, submodule_scan
from winfty.onevar import (GeneratedSubalgebra, df_bracket, df_element,
                           standard_generators, verify_named_identity)
from winfty.scalars import Ring, rising
from winfty.suites import SuiteOptions, run_suite
from winfty.weightlab import (WEIGHTLAB_SYMBOLS, build_f_polynomials,
                              virasoro_consistency)
from winfty.weyl import (Weyl, act_on_combination, bracket, cocycle,
                         degree_one_bracket, mul, operator_action,
                         verify_cocycle_condition, verify_jacobi)


def _report(num, label, passed):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num}: {label}")
    assert passed, f"criterion {num} failed: {label}"


def _random_w1_element(weyl, rng, max_mu=4, coord_bound=5):
    out = weyl.zero()
    for _ in range(rng.randint(1, 3)):
        gamma = tuple(rng.randint(-coord_bound, coord_bound)
                      for _ in range(weyl.n))
        mu = [0] * weyl.n
        for _ in range(rng.randint(1, max_mu)):
            mu[rng.randrange(weyl.n)] += 1
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        out = out + weyl.monomial(gamma, tuple(mu), c)
    return out


def test_criterion_1_jacobi():
    """200 random homogeneous triples in W(Gamma,n)^(1) for n in {1, 2}."""
    ok = True
    for n in (1, 2):
        weyl = Weyl(n, subalgebra="w1")
        rng = random.Random(101 + n)
        for _ in range(200):
            x, y, z = (_random_w1_element(weyl, rng) for _ in range(3))
            if not verify_jacobi(x, y, z).passed:
                ok = False
    _report(1, "Jacobi residuals all zero (200 triples, n=1 and n=2)", ok)


def test_criterion_2_oracle_equivalence():
    """mul vs composed operator action on 200 pairs x 5 basis vectors."""
    ok = True
    for n in (1, 2):
        weyl = Weyl(n)
        rng = random.Random(211 + n)
        for _ in range(200):
            x = _random_w1_element(weyl, rng)
            y = _random_w1_element(weyl, rng)
            xy = mul(x, y)
            for _ in range(5):
                g = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                          for _ in range(n))
                if operator_action(xy, g) != act_on_combination(
                        x, operator_action(y, g)):
                    ok = False
    _report(2, "product equals composed operator action (oracle)", ok)


def test_criterion_3_closed_forms():
    """df_bracket and degree_one_bracket against the generic bracket."""
    ok = True
    weyl = Weyl(1)
    rng = random.Random(303)
    for _ in range(100):
        i, j = rng.randint(-6, 6), rng.randint(-6, 6)
        f = {e: Fraction(rng.randint(-5, 5)) for e in range(rng.randint(1, 7))}
        g = {e: Fraction(rng.randint(-5, 5)) for e in range(rng.randint(1, 7))}
        closed = df_bracket(weyl, i, f, j, g)
        generic = bracket(df_element(weyl, i, f), df_element(weyl, j, g))
        if closed != generic:
            ok = False
    w2 = Weyl(2)
    for _ in range(100):
        beta = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        gam = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        d = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        d2 = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        if degree_one_bracket(w2, beta, d, gam, d2) != bracket(
                w2.from_direction(beta, d), w2.from_direction(gam, d2)):
            ok = False
    _report(3, "closed-form brackets match generic brackets (100+100 cases)", ok)


def test_criterion_4_central_extension():
    """Cocycle condition, extended Jacobi, and antisymmetry."""
    hat = Weyl(1, subalgebra="hat")
    rng = random.Random(404)
    ok = True
    for _ in range(200):
        x, y, z = (_random_w1_element(hat, rng) for _ in range(3))
        if not verify_cocycle_condition(x, y, z).passed:
            ok = False
    for _ in range(100):
        x, y, z = (_random_w1_element(hat, rng) for _ in range(3))
        if not verify_jacobi(x, y, z).passed:
            ok = False
    for _ in range(100):
        x = _random_w1_element(hat, rng)
        y = _random_w1_element(hat, rng)
        if not (cocycle(x, y) + cocycle(y, x)).is_zero():
            ok = False
    _report(4, "2-cocycle condition, extended Jacobi, antisymmetry", ok)


def test_criterion_5_named_identities():
    """The three bracket identities plus the cube identity."""
    weyl = Weyl(1)
    ok = verify_named_identity(weyl, "CUBE").passed
    common = None
    for i in range(1, 13):
        if not verify_named_identity(weyl, "L23-1", i).passed:
            ok = False
        if not verify_named_identity(weyl, "L23-2", i).passed:
            ok = False
        rep = verify_named_identity(weyl, "L23-3", i)
        if not rep.passed:
            ok = False
        zr = set(rep.details["zero_readings"])
        common = zr if common is None else common & zr
    # exactly one nesting reading works uniformly over i
    if common != {"close-inner"}:
        ok = False
    _report(5, "operator identities: unique L23-3 reading is 'close-inner'", ok)


def test_criterion_6_coefficient_claims():
    """Coefficient of i^4 in f2 and of i^12 in g after p'1 = p1."""
    ring = Ring(WEIGHTLAB_SYMBOLS)
    fp = build_f_polynomials()
    p1, pp1 = ring.sym("p1"), ring.sym("pp1")
    ok = fp.f2.coeff_of("i", 4) == p1 - pp1
    g_eq = fp.g.substitute({"pp1": p1})
    ok = ok and g_eq.coeff_of("i", 12) == 6 * p1
    _report(6, "f2[i^4] = p1 - p'1 and g[i^12] = 6 p1 at p'1 = p1", ok)


def test_criterion_7_virasoro_consistency():
    """The residual is kbar-free and a rational multiple of the constraint."""
    rep = virasoro_consistency()
    ok = (rep.passed
          and rep.details["constraint"] == "4*p1^3 + 8*p1^2 - 6*p1*p2 + p2^2"
          and rep.details["factor"] not in ("0", None)
          and rep.details["spot(0,0)"] == "0"
          and rep.details["spot(-2,0)"] == "0")
    _report(7, "Virasoro consistency: kbar-free multiple of the constraint", ok)


def test_criterion_8_modules():
    """Lie module axiom, the associativity dichotomy, submodule scans."""
    ok = True
    for n, max_mu in ((1, 3), (2, 2)):
        lie = run_suite("modules", SuiteOptions(samples=100, seed=808, max_mu=max_mu))
        if not all(c.passed for c in lie.checks if c.name.endswith(f"n={n}]")):
            ok = False
    assoc = run_suite("assoc-dichotomy", SuiteOptions(samples=100, seed=808, max_mu=3))
    rep_a, rep_b = sorted(assoc.checks, key=lambda c: c.name)
    if not rep_a.passed:
        ok = False
    if not rep_b.passed:
        ok = False
    else:
        w = rep_b.details["witnesses"][0]
        if (w["product_action"], w["staged_action"]) != \
                ("(-15/4)*y[2]", "(15/4)*y[2]"):
            ok = False
    ring = Ring(("alpha",))
    w1 = Weyl(1, ring=ring, subalgebra="w1")
    ma = make_module("A", [Fraction(1, 2)], w1)
    mb = make_module("B", [Fraction(1, 2)], w1)
    window = [(k,) for k in range(-8, 9)]
    if submodule_scan(ma, window) != []:
        ok = False
    if submodule_scan(mb, window) != []:
        ok = False
    if submodule_scan(make_module("A", [0], w1), window) != [[(0,)]]:
        ok = False
    expected_b0 = [sorted(c for c in window if c != (0,))]
    if submodule_scan(make_module("B", [0], w1), window) != expected_b0:
        ok = False
    _report(8, "module axiom, B-dichotomy witness -15/2 y2, submodule scans", ok)


def test_criterion_9_normalization():
    """P_{i,k} = [kbar]^(i+1), odd Q trivial, Q2 = +-1, symbolically in alpha."""
    ring = Ring(("alpha",))
    weyl = Weyl(1, ring=ring, subalgebra="w1")
    ok = True
    for kind, q2_sign in (("A", 1), ("B", -1)):
        m = make_module(kind, "formal", weyl)
        data = normalize_ddt_basis(m, range(-3, 4))
        a = m.alpha[0]
        for i in range(-1, 6):
            for k in range(-3, 4):
                if data.p[(i, k)] != rising(a + k, i + 1):
                    ok = False
        for i in (1, 3, 5):
            if data.q[i] != ring.one:
                ok = False
        if data.q[2] != ring.const(q2_sign) or data.q[2] * data.q[2] != ring.one:
            ok = False
    _report(9, "normalization: P rising-factorial form, Q signs, symbolic", ok)


@pytest.mark.parametrize("i0", (1, 2))
def test_criterion_10_generation(i0):
    """Every t^k D^m with 3 i0 <= k <= 40, m <= 4 is certified a member."""
    weyl = Weyl(1, subalgebra="w1")
    sub = GeneratedSubalgebra(weyl, standard_generators(weyl, i0, 2),
                              deg_lo=0, deg_hi=40, d_cap=6)
    ok = True
    for m in range(1, 5):
        for k in range(3 * i0, 41):
            if sub.membership(weyl.monomial((k,), (m,))) is None:
                ok = False
    # the witnesses must re-evaluate from the generators to the target
    for target in (weyl.tD((3 * i0,)), weyl.monomial((40,), (4,))):
        combo = sub.membership(target)
        acc = weyl.zero()
        for c, r in combo:
            acc = acc + sub.eval_word(sub.raw[r][1]).scale(c)
        if acc != target:
            ok = False
    _report(10, f"generation at desk scale with witnesses (i0={i0})", ok)
