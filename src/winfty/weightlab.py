"""Symbolic verification of the weight-matrix machinery in the rank-one case.

Everything here is polynomial algebra in the symbols kbar (the shifted weight
k + alpha), the two unprimed constants p1, p2, their primed copies pp1, pp2,
and the identity index i.  ``build_p_series`` transcribes the P-series from
its displayed closed forms, and every check reads that.  Only
``p_series_report`` also re-derives p3, p4, p5 from the Virasoro recurrence
[tD, t^(j-1)D] = (j-2) t^j D (``_discrepancies``); any mismatch is reported
verbatim rather than silently repaired.  The displayed relations (2.7)-(2.9)
are transcribed once, in ``_q_coefficients``: ``build_f_polynomials`` reads
them with a symbolic i and two constant sets, ``verify_yk_relations`` with an
integer i and one set.  Both read the series through :meth:`PSeries.pjk`,
which builds each shifted polynomial once per series.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .intermediate import PQData
from .report import VerificationReport
from .scalars import Ring, Scalar, falling, rising

WEIGHTLAB_SYMBOLS = ("kbar", "p1", "p2", "pp1", "pp2", "i")


@dataclass
class PSeries:
    """p_{j,k} as polynomials in kbar, p1, p2 for -1 <= j <= 5."""

    ring: Ring
    transcribed: Dict[int, Scalar]
    # pjk's answers: the relations in _q_coefficients read most p_{j,k+c} twice or more
    _read: Dict[Tuple, Scalar] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

    def pjk(self, j: int, shift: Union[Scalar, int, Fraction] = 0,
            primed: bool = False) -> Scalar:
        """p_{j, k+shift} (primed swaps in the second constant set)."""
        key = (j, shift, primed)
        out = self._read.get(key)
        if out is None:
            out = self.transcribed[j]
            if shift:
                out = out.shift("kbar", self.ring.coerce(shift))
            if primed:
                out = out.substitute({"p1": self.ring.sym("pp1"),
                                      "p2": self.ring.sym("pp2")})
            self._read[key] = out
        return out


def build_p_series() -> PSeries:
    """The scalar P-series: the anchors and the displayed closed forms.  The
    recurrence re-derivation of p3, p4, p5 runs in ``p_series_report``."""
    ring = Ring(WEIGHTLAB_SYMBOLS)
    kb = ring.sym("kbar")
    p1 = ring.sym("p1")
    p2 = ring.sym("p2")

    # constants; the bracket [P1, P2] vanishes in the scalar case
    p3 = -3 * (2 * p1 + p1 * p1 - 2 * p2)
    p4 = -2 * (24 * p1 + 12 * p1 * p1 - 18 * p2 + p1 * p2)
    p5 = 5 * (-72 * p1 - 34 * p1 * p1 + p1 ** 3 + 48 * p2 - 6 * p1 * p2)

    transcribed = {
        -1: ring.one,
        0: kb,
        1: rising(kb, 2) + p1,
        2: rising(kb, 3) + 3 * kb * p1 + p2,
        3: rising(kb, 4) + 6 * rising(kb, 2) * p1 + 4 * kb * p2 + p3,
        4: (rising(kb, 5) + 10 * rising(kb, 3) * p1 + 10 * rising(kb, 2) * p2
            + 5 * kb * p3 + p4),
        5: (rising(kb, 6) + 15 * rising(kb, 4) * p1 + 20 * rising(kb, 3) * p2
            + 15 * rising(kb, 2) * p3 + 6 * kb * p4 + p5),
    }

    return PSeries(ring, transcribed)


def _discrepancies(ps: PSeries) -> Dict[int, Scalar]:
    """Recurrence-derived minus transcribed p_{j,k} for j = 3, 4, 5, each p_j
    re-derived from p1, p2 by [tD, t^(j-1)D] = (j-2) t^j D applied to Y_k:

        (j-2) p_{j,k} = p_{1,k+j-1} p_{j-1,k} - p_{j-1,k+1} p_{1,k}
    """
    prev = {j: ps.transcribed[j] for j in (1, 2)}
    for j in (3, 4, 5):
        prev[j] = (prev[1].shift("kbar", j - 1) * prev[j - 1]
                   - prev[j - 1].shift("kbar", 1) * prev[1]) / (j - 2)
    return {j: prev[j] - ps.transcribed[j] for j in (3, 4, 5)}


def consistency_polynomial(ring: Ring) -> Scalar:
    """8 p1^2 + 4 p1^3 - 6 p1 p2 + p2^2, the Virasoro constraint."""
    p1 = ring.sym("p1")
    p2 = ring.sym("p2")
    return 8 * p1 ** 2 + 4 * p1 ** 3 - 6 * p1 * p2 + p2 ** 2


def virasoro_consistency(ps: Optional[PSeries] = None) -> VerificationReport:
    """Apply [t^2 D, t^3 D] = t^5 D to the formal rank-one data and compare
    the residual with the displayed constraint on p1, p2.

    Passes iff the residual is kbar-free and a nonzero rational multiple of
    the constraint polynomial; the multiple is recorded.
    """
    ps = ps if ps is not None else build_p_series()
    ring = ps.ring
    residual = ps.pjk(2, 3) * ps.pjk(3) - ps.pjk(3, 2) * ps.pjk(2) - ps.pjk(5)
    target = consistency_polynomial(ring)
    details: Dict = {}
    if residual.degree_in("kbar") != 0:
        return VerificationReport("virasoro-consistency", str(residual),
                                  details={"reason": "residual depends on kbar"})
    factor = None
    if not residual.is_zero():
        lead = max(residual.nums)
        tlead = max(target.nums)
        cand = Fraction(residual.nums[lead] * target.den, residual.den * target.nums[tlead])
        if lead == tlead and residual == target * ring.const(cand):
            factor = cand
    passed = factor is not None and factor != 0
    details["factor"] = str(factor) if factor is not None else None
    details["constraint"] = str(target)
    # spot values annihilating the constraint must annihilate the residual
    for label, (v1, v2) in {"(0,0)": (0, 0), "(-2,0)": (-2, 0)}.items():
        spot = residual.substitute({"p1": v1, "p2": v2})
        details[f"spot{label}"] = str(spot)
        passed = passed and spot.is_zero()
    return VerificationReport("virasoro-consistency",
                              None if passed else str(residual), details)


@dataclass
class FPolys:
    """The coefficients of q_i in the three scalar relations, and g(i)."""

    ring: Ring
    f1: Scalar
    f2: Scalar
    f3: Scalar
    g: Scalar


def _q_coefficients(p, pp, i):
    """(f1, f2, f3): the coefficients of q_i in relations (2.7), (2.8), (2.9),
    with p(j, c) = p_{j,k+c-i} and pp(j, c) = p'_{j,k+c}."""
    f1 = (3 * (p(1, 1) * p(1) - 2 * p(1, 1) * pp(1) + pp(1, 1) * pp(1))
          + 2 * (2 * i - 1) * (p(2) - pp(2)))
    f2 = (p(1, 2) * p(1, 1) * p(1)
          - 3 * p(1, 2) * p(1, 1) * pp(1)
          + 3 * p(1, 2) * pp(1, 1) * pp(1)
          - pp(1, 2) * pp(1, 1) * pp(1)
          + (i - 1) * (i - 2) * (p(3) - pp(3))
          + 2 * (i - 1) * (p(1, 2) * (p(2) - pp(2))
                           - (p(2, 1) - pp(2, 1)) * pp(1)))
    f3 = (10 * (p(2, 2) * p(2) - 2 * p(2, 2) * pp(2) + pp(2, 2) * pp(2))
          - 6 * (i - 4) * (p(4) - pp(4))
          - 15 * (p(1, 3) * (p(3) - pp(3)) - (p(3, 1) - pp(3, 1)) * pp(1)))
    return f1, f2, f3


def build_f_polynomials() -> FPolys:
    """Substitute the P-series into the displayed q_i coefficients.

    f1, f2, f3 are exact polynomials in i with coefficients in kbar, p1, p2,
    pp1, pp2; g(i) = [i+1]_4 [i-1]_4 f3(i) - [i+1]_6 f1(i-2) f1(i).
    """
    ps = build_p_series()
    ring = ps.ring
    i = ring.sym("i")

    def p(j, c=0):
        return ps.pjk(j, c - i)

    def pp(j, c=0):
        return ps.pjk(j, c, primed=True)

    f1, f2, f3 = _q_coefficients(p, pp, i)
    f1_shifted = f1.substitute({"i": i - 2})
    g = falling(i + 1, 4) * falling(i - 1, 4) * f3 - falling(i + 1, 6) * f1_shifted * f1
    return FPolys(ring, f1, f2, f3, g)


def coefficient_claims() -> VerificationReport:
    """The two coefficient-extraction claims, as exact polynomial identities:
    the i^4 coefficient of f2 is p1 - pp1, and after setting pp1 = p1 the
    i^12 coefficient of g is 6 p1."""
    fp = build_f_polynomials()
    ring = fp.ring
    p1 = ring.sym("p1")
    pp1 = ring.sym("pp1")
    c4 = fp.f2.coeff_of("i", 4)
    ok4 = c4 == p1 - pp1
    g_eq = fp.g.substitute({"pp1": p1})
    c12 = g_eq.coeff_of("i", 12)
    ok12 = c12 == 6 * p1
    details = {"f2_i4": str(c4), "g_i12_at_pp1=p1": str(c12)}
    # recorded, not asserted: is f2 identically zero at equal constant sets?
    f2_eq = fp.f2.substitute({"pp1": p1, "pp2": ring.sym("p2")})
    details["f2_at_equal_constants_zero"] = f2_eq.is_zero()
    residual = None if ok4 and ok12 else f"i^4: {c4}; i^12: {c12}"
    return VerificationReport("coefficient-claims", residual, details)


def p_series_report() -> VerificationReport:
    """Transcription-vs-derivation dual sourcing for p3, p4, p5: the one
    place the recurrence re-derivation (``_discrepancies``) runs.

    A nonzero discrepancy polynomial is reported verbatim (suspected typo in
    the source display), never auto-corrected.
    """
    ps = build_p_series()
    discrepancies = _discrepancies(ps)
    details = {f"p{j}_discrepancy": str(discrepancies[j]) for j in (3, 4, 5)}
    # anchors and the p1 = p2 = 0 collapse p_{j,k} = [kbar]^(j+1)
    kb = ps.ring.sym("kbar")
    anchors_ok = ps.transcribed[-1] == ps.ring.one and ps.transcribed[0] == kb
    collapse_ok = all(
        ps.transcribed[j].substitute({"p1": 0, "p2": 0}) == rising(kb, j + 1)
        for j in range(-1, 6))
    details["anchors_ok"] = anchors_ok
    details["collapse_to_rising_ok"] = collapse_ok
    passed = anchors_ok and collapse_ok and all(d.is_zero() for d in discrepancies.values())
    residual = None if passed else str(
        {j: str(d) for j, d in discrepancies.items() if not d.is_zero()})
    return VerificationReport("p-series", residual, details)


def verify_yk_relations(data: PQData) -> VerificationReport:
    """Instantiate the three displayed P/Q relations on concrete module data.

    The rank-one constants P1, P2 and the Q_i are read from ``data`` (they
    must be rational); the relations are then checked with a fully symbolic
    kbar for i in {1, 3, 5}, undefined Q indices counting as zero.
    """
    ps = build_p_series()
    ring = ps.ring
    if not data.p1_const.is_rational() or not data.p2_const.is_rational():
        raise ValueError("relations need rational P1/P2 constants")
    consts = {"p1": data.p1_const.as_fraction(), "p2": data.p2_const.as_fraction()}
    # the rational constants commute with the kbar shift, so substitute them
    # once per j; pjk builds each shifted polynomial once per call
    series = replace(ps, transcribed={j: pj.substitute(consts)
                                      for j, pj in ps.transcribed.items()})

    def q(j) -> Fraction:
        if j < 1:
            return Fraction(0)
        if j not in data.q:
            raise ValueError(f"missing Q_{j} in module data")
        qj = data.q[j]
        if not qj.is_rational():
            raise ValueError(f"Q_{j} is not rational")
        return qj.as_fraction()

    residuals = {}
    for i in (1, 3, 5):
        # the module data has one constant set: p' = p, both read the same series
        f1, f2, f3 = _q_coefficients(lambda j, c=0: series.pjk(j, c - i), series.pjk, i)
        qi = q(i)
        r27 = ring.const(-falling(Fraction(i + 1), 4) * q(i - 2)) - f1 * qi
        r28 = -(f2 * qi)
        r29 = ring.const(falling(Fraction(i + 1), 6) * q(i - 4)) - f3 * qi
        for label, r in (("2.7", r27), ("2.8", r28), ("2.9", r29)):
            if not r.is_zero():
                residuals[f"{label}[i={i}]"] = str(r)
    return VerificationReport(f"yk-relations[{data.kind}]",
                              str(residuals) if residuals else None,
                              details={"i_values": [1, 3, 5],
                                       "constants": {k: str(v) for k, v in consts.items()}})
