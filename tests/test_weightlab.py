"""Weight-space polynomial laboratory: the p-series, the Virasoro
consistency constraint, and the coefficient claims about f2 and g."""

import dataclasses
from fractions import Fraction

import pytest

from winfty import weightlab
from winfty.scalars import falling, rising
from winfty.weightlab import (WEIGHTLAB_SYMBOLS, build_f_polynomials, build_p_series,
                              coefficient_claims, consistency_polynomial,
                              p_series_report, verify_yk_relations,
                              virasoro_consistency)
from winfty.intermediate import PQData, make_module, normalize_ddt_basis
from winfty.scalars import Ring, Scalar
from winfty.weyl import Weyl

RING = Ring(WEIGHTLAB_SYMBOLS)
KBAR = RING.sym("kbar")
P1 = RING.sym("p1")
P2 = RING.sym("p2")


def test_p_anchors():
    ps = build_p_series()
    assert ps.pjk(0) == KBAR
    assert ps.pjk(1) == rising(KBAR, 2) + P1
    assert ps.pjk(3) == (rising(KBAR, 4) + 6 * rising(KBAR, 2) * P1
                         + 4 * KBAR * P2 - 3 * (2 * P1 + P1 * P1 - 2 * P2))


def test_p_collapse_at_zero_constants():
    ps = build_p_series()
    zero = {"p1": Fraction(0), "p2": Fraction(0)}
    for j in range(-1, 6):
        got = ps.pjk(j).substitute(zero)
        assert got == rising(KBAR, j + 1)


def test_transcribed_equals_rederived():
    discrepancies = weightlab._discrepancies(build_p_series())
    assert set(discrepancies) == {3, 4, 5}
    assert all(d.is_zero() for d in discrepancies.values())


def test_only_the_p_series_report_runs_the_recurrence(monkeypatch):
    # the recurrence shifts p1 and p2 six times; the transcribed series alone shifts nothing
    shifts = []
    real_shift = Scalar.shift
    monkeypatch.setattr(Scalar, "shift",
                        lambda s, name, delta: shifts.append(delta) or real_shift(s, name, delta))
    build_p_series()
    assert shifts == []
    p_series_report()
    assert shifts == [2, 1, 3, 1, 4, 1]


def test_virasoro_consistency_report():
    rep = virasoro_consistency()
    assert rep.passed
    assert rep.details["factor"] == "-8"
    assert rep.details["constraint"] == "4*p1^3 + 8*p1^2 - 6*p1*p2 + p2^2"
    assert rep.details["spot(0,0)"] == "0"
    assert rep.details["spot(-2,0)"] == "0"


def test_virasoro_consistency_reports_a_kbar_dependent_residual():
    ps = build_p_series()
    tampered = dataclasses.replace(
        ps, transcribed={**ps.transcribed, 5: ps.transcribed[5] + KBAR})
    rep = virasoro_consistency(tampered)
    assert rep.residual == str(-8 * consistency_polynomial(RING) - KBAR)
    assert rep.details == {"reason": "residual depends on kbar"}


def test_consistency_polynomial_spot_roots():
    c = consistency_polynomial(RING)
    assert c.substitute({"p1": Fraction(0), "p2": Fraction(0)}).is_zero()
    assert c.substitute({"p1": Fraction(-2), "p2": Fraction(0)}).is_zero()


def test_f1_at_zero_constants_is_rising_factor():
    fp = build_f_polynomials()
    zero = {"p1": 0, "p2": 0, "pp1": 0, "pp2": 0}
    i = RING.sym("i")
    # the relation collapses to [i+1]_4 (q_i - q_(i-2)) = 0: the coefficient
    # multiplying q_i is then -[i+1]_4 (the q_(i-2) side carries +[i+1]_4)
    assert fp.f1.substitute(zero) == -falling(i + 1, 4)


def test_coefficient_claims():
    rep = coefficient_claims()
    assert rep.passed
    assert rep.details["f2_i4"] == "p1 - pp1"
    assert rep.details["g_i12_at_pp1=p1"] == "6*p1"
    # recorded observation: f2 does not vanish identically when the primed
    # constants equal the unprimed ones
    assert rep.details["f2_at_equal_constants_zero"] is False


def test_f_polynomials_build_each_shifted_series_entry_once(monkeypatch):
    # the relations read the series 42 times for 19 distinct (j, shift, primed) keys
    reads, shifts = [], []
    real_pjk, real_shift = weightlab.PSeries.pjk, Scalar.shift
    monkeypatch.setattr(weightlab.PSeries, "pjk",
                        lambda ps, j, shift=0, primed=False:
                        reads.append((j, shift, primed)) or real_pjk(ps, j, shift, primed))
    monkeypatch.setattr(Scalar, "shift",
                        lambda s, name, delta: shifts.append(delta) or real_shift(s, name, delta))
    build_f_polynomials()
    assert (len(reads), len(set(reads))) == (42, 19)
    assert len(shifts) == len({key for key in reads if key[1]})


def test_p_series_report_passes():
    assert p_series_report().passed


def test_p_series_report_names_a_nonzero_discrepancy(monkeypatch):
    real = weightlab._discrepancies
    monkeypatch.setattr(weightlab, "_discrepancies", lambda ps: {**real(ps), 4: KBAR + P1})
    rep = p_series_report()
    assert rep.residual == str({4: str(KBAR + P1)})
    assert (rep.details["p3_discrepancy"], rep.details["p4_discrepancy"]) == ("0", "kbar + p1")


def test_yk_relations_on_module_data():
    ring = Ring(("alpha",))
    weyl = Weyl(1, ring=ring, subalgebra="w1")
    for kind in ("A", "B"):
        for alpha in (Fraction(1, 2), Fraction(1, 3)):
            m = make_module(kind, [alpha], weyl)
            data = normalize_ddt_basis(m, range(-3, 4))
            rep = verify_yk_relations(data)
            assert rep.passed, rep.residual
            assert rep.details["i_values"] == [1, 3, 5]


_RING = Ring(("alpha",))
_ALPHA = _RING.sym("alpha")


@pytest.mark.parametrize("p1, p2, q, message", (
    (_ALPHA, _RING.one, {1: _RING.one}, "rational P1/P2 constants"),
    (_RING.one, _ALPHA, {1: _RING.one}, "rational P1/P2 constants"),
    (_RING.one, _RING.one, {}, "missing Q_1 in module data"),
    (_RING.one, _RING.one, {1: _ALPHA}, "Q_1 is not rational"),
), ids=("formal-p1", "formal-p2", "missing-q", "formal-q"))
def test_yk_relations_refuse_data_they_cannot_instantiate(p1, p2, q, message):
    with pytest.raises(ValueError, match=message):
        verify_yk_relations(PQData("A", {}, q, p1, p2))


@pytest.mark.parametrize("kind", ("A", "B"))
def test_yk_relations_report_tampered_data(kind):
    weyl = Weyl(1, ring=Ring(("alpha",)), subalgebra="w1")
    data = normalize_ddt_basis(make_module(kind, [Fraction(1, 2)], weyl), range(-3, 4))
    q = dict(data.q)
    q[3] = q[3] * 2
    rep = verify_yk_relations(dataclasses.replace(data, q=q))
    assert not rep.passed
    assert rep.residual == str({"2.7[i=3]": "24", "2.7[i=5]": "-360"})
    rep = verify_yk_relations(dataclasses.replace(data, p1_const=weyl.ring.one))
    assert not rep.passed
    assert rep.residual == str({"2.7[i=3]": "72", "2.8[i=3]": "-72", "2.7[i=5]": "240",
                                "2.8[i=5]": "-720", "2.9[i=5]": "-3600"})
