"""Named verification suites: every identity check behind one dispatcher.

``run_suite`` wraps a suite's checks in a ReportDocument whose JSON rendering
is byte-identical for a fixed seed and option set (checks are sorted by name
at emission and no wall time is recorded).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .intermediate import (ModuleVector, act, highest_weight_scan, make_module,
                           normalize_ddt_basis, submodule_scan)
from .lattice import Lattice
from .onevar import (GeneratedSubalgebra, df_bracket, df_element,
                     standard_generators, verify_named_identity)
from .printer import format_element
from .report import ReportDocument, VerificationReport
from .scalars import Rat, Ring, rational_text, rising
from .weightlab import (coefficient_claims, p_series_report,
                        verify_yk_relations, virasoro_consistency)
from .weyl import (Weyl, WeylElement, act_on_combination, bracket, degree_one_bracket,
                   cocycle, mul, operator_action, verify_cocycle_condition,
                   verify_jacobi)


class UnknownSuiteError(ValueError):
    pass


class UnsupportedOptionError(ValueError):
    """A suite was given a non-default value for an option it does not read."""


@dataclass
class SuiteOptions:
    """Knobs of the suites; None falls back to per-suite defaults.

    Each field is read by some suite (see ``_SUITES``); ``run_suite`` rejects
    a non-default value of a field the suite does not read, except ``seed``,
    which every report records. A value no suite can run with raises
    ValueError here.
    """

    gamma: Optional[Sequence[Sequence[Fraction]]] = None  # jacobi's lattice, in Q^1 or Q^2
    alpha: Optional[Fraction] = None  # the rank-one modules' parameter, 1/2 if None
    window: int = 8
    samples: Optional[int] = None
    seed: int = 0
    max_mu: int = 4
    kind: Optional[str] = None    # restrict module suites to "A" or "B"

    def __post_init__(self):
        # only submodules reads window, and a window of y_0 alone holds no
        # proper submodule to find
        for name, least in (("samples", 1), ("window", 1), ("max_mu", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least "
                                 f"{least}, got {value}")
        if self.alpha is not None and not isinstance(self.alpha, (int, Fraction)):
            raise ValueError("assoc-dichotomy and weightlab-yk read --alpha as one "
                             "rational, not a vector or 'formal'")
        if self.gamma is not None and Lattice(self.gamma).dim not in (1, 2):
            raise ValueError("jacobi runs n = 1 and n = 2, so --gamma must lie "
                             "in Q^1 or Q^2")

    def kinds(self) -> Tuple[str, ...]:
        return (self.kind,) if self.kind else ("A", "B")


# -- random element helpers ------------------------------------------------


def _random_coords(rng: random.Random, rank: int, bound: int = 3) -> Tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(rank))


def _random_homogeneous(weyl: Weyl, rng: random.Random, max_mu: int = 4) -> WeylElement:
    """A random homogeneous element: one lattice grade within coordinate bound 5,
    1-3 monomials."""
    gamma = weyl.lattice.ambient(_random_coords(rng, weyl.lattice.rank, 5))
    out = weyl.zero()
    for _ in range(rng.randint(1, 3)):
        mu = [0] * weyl.n
        lo = 1 if weyl.subalgebra in ("w1", "hat") else 0
        for _ in range(rng.randint(lo, max_mu)):
            mu[rng.randrange(weyl.n)] += 1
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        out = out + weyl.monomial(gamma, mu, c)
    return out


def _random_monomial(weyl: Weyl, rng: random.Random, max_mu: int) -> WeylElement:
    """t^g D^mu with 1 <= |mu| <= max_mu, g within coordinate bound 3."""
    gamma = weyl.lattice.ambient(_random_coords(rng, weyl.lattice.rank))
    while True:
        mu = tuple(rng.randint(0, max_mu) for _ in range(weyl.n))
        if 1 <= sum(mu) <= max_mu:
            return weyl.monomial(gamma, mu)


def _module_case(weyl: Weyl, rng: random.Random, max_mu: int):
    """Random monomials x, y and the coordinates of a basis vector y_g."""
    return (_random_monomial(weyl, rng, max_mu), _random_monomial(weyl, rng, max_mu),
            _random_coords(rng, weyl.lattice.rank))


def _random_poly(rng: random.Random, deg: int) -> Dict[int, Fraction]:
    f = {e: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
         for e in range(rng.randint(0, deg) + 1)}
    if not any(f.values()):
        f[0] = Fraction(1)
    return f


# -- individual suites ------------------------------------------------------
# Each runner returns (params, checks); run_suite wraps them in the report.
# quoted: typing caches each subscription, so a class named here stays alive
_Run = Tuple[Dict[str, Any], List["VerificationReport"]]


def _sampled(name: str, count: int, case,
             **details: Any) -> Tuple[VerificationReport, int]:
    """Run ``case`` ``count`` times; each call draws its own sample and returns
    residual text, or None when it passes. Returns the report ``name``, whose
    residual is the first failing sample's and whose details are ``details``
    plus, when a sample fails, that sample's 0-based index as
    ``first_failing_sample``; and the number of failing samples."""
    bad = [(i, r) for i, r in enumerate(case() for _ in range(count)) if r is not None]
    if bad:
        details["first_failing_sample"] = bad[0][0]
    return VerificationReport(name, bad[0][1] if bad else None, details=details), len(bad)


def _difference(got, want) -> Optional[str]:
    return None if got == want else format_element(got - want)


def _vec_sub(a: ModuleVector, b: ModuleVector) -> ModuleVector:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        out[k] = -v if w is None else w - v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _vec_text(v: ModuleVector) -> str:
    if not v:
        return "0"
    return " + ".join(f"({v[k]})*y{list(k)}" for k in sorted(v))


def _text(c: Rat) -> str:
    """A flag's rational as report text, of any length."""
    return rational_text(c.numerator, c.denominator)


def _suite_jacobi(opts: SuiteOptions) -> _Run:
    samples = opts.samples or 200
    params = {"samples": samples, "max_mu": opts.max_mu}
    lattice = None if opts.gamma is None else Lattice(opts.gamma)
    if lattice is not None:
        # the default Z^n report keeps its form; a --gamma one names its lattice
        params.update(n=lattice.dim, gamma=[[_text(c) for c in g] for g in lattice.generators])
    checks = []
    for n in (1, 2):
        rng = random.Random(opts.seed + n)
        weyl = Weyl(n, lattice=lattice if lattice and lattice.dim == n else None,
                    subalgebra="w1")
        report, failed = _sampled(f"jacobi[n={n}]", samples, lambda: verify_jacobi(
            *(_random_homogeneous(weyl, rng, max_mu=opts.max_mu)
              for _ in range(3))).residual, samples=samples)
        report.details["zero_residuals"] = samples - failed
        checks.append(report)
    return params, checks


def _suite_oracle(opts: SuiteOptions) -> _Run:
    samples = opts.samples or 200
    checks = []
    for n in (1, 2):
        rng = random.Random(opts.seed + 10 * n)
        weyl = Weyl(n)

        def pair():
            x = _random_homogeneous(weyl, rng, max_mu=opts.max_mu)
            y = _random_homogeneous(weyl, rng, max_mu=opts.max_mu)
            xy = mul(x, y)
            gs = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(n)) for _ in range(5)]
            return next((str({"x": format_element(x), "y": format_element(y),
                              "gamma": [str(c) for c in g]}) for g in gs
                         if operator_action(xy, g)
                         != act_on_combination(x, operator_action(y, g))), None)

        checks.append(_sampled(f"mul-vs-operator[n={n}]", samples, pair,
                               pairs=samples, vectors_per_pair=5)[0])
    # closed form for brackets of degree-one elements
    rng = random.Random(opts.seed + 77)
    weyl2 = Weyl(2)

    def degree_one():
        beta = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        gam = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        d, d2 = ([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
                 for _ in range(2))
        return _difference(degree_one_bracket(weyl2, beta, d, gam, d2),
                           bracket(weyl2.from_direction(beta, d),
                                   weyl2.from_direction(gam, d2)))

    cases = opts.samples or 100
    checks.append(_sampled("degree-one-closed-form", cases, degree_one, cases=cases)[0])
    return {"samples": samples}, checks


def _suite_cocycle(opts: SuiteOptions) -> _Run:
    samples = opts.samples or 200
    half = opts.samples or 100
    hat = Weyl(1, subalgebra="hat")
    rng = random.Random(opts.seed + 5)

    def draw(k):
        return (_random_homogeneous(hat, rng, max_mu=opts.max_mu) for _ in range(k))

    def antisymmetry():
        x, y = draw(2)
        s = cocycle(x, y) + cocycle(y, x)
        return None if s.is_zero() else str(s)

    return {"samples": samples}, [
        _sampled("cocycle-condition", samples,
                 lambda: verify_cocycle_condition(*draw(3)).residual, triples=samples)[0],
        _sampled("ext-bracket-jacobi", half,
                 lambda: verify_jacobi(*draw(3)).residual, triples=half)[0],
        _sampled("cocycle-antisymmetry", half, antisymmetry, pairs=half)[0],
    ]


def _suite_onevar(opts: SuiteOptions) -> _Run:
    weyl = Weyl(1)
    checks = [verify_named_identity(weyl, name, i)
              for name in ("L23-1", "L23-2", "L23-3") for i in range(1, 13)]
    checks.append(verify_named_identity(weyl, "CUBE"))

    # unique zero reading of the ambiguous identity, uniform over i
    readings = [set(rep.details["zero_readings"])
                for rep in checks if rep.name.startswith("L23-3[")]
    always_zero = set.intersection(*readings)
    checks.append(VerificationReport(
        "L23-3-unique-reading",
        None if len(always_zero) == 1 else f"zero readings: {sorted(always_zero)}",
        details={"reading": sorted(always_zero)}))

    # closed-form bracket against the generic product bracket
    rng = random.Random(opts.seed + 3)

    def df_case():
        i = rng.randint(-6, 6)
        j = rng.randint(-6, 6)
        f = _random_poly(rng, 6)
        g = _random_poly(rng, 6)
        return _difference(df_bracket(weyl, i, f, j, g),
                           bracket(df_element(weyl, i, f), df_element(weyl, j, g)))

    cases = opts.samples or 100
    checks.append(_sampled("df-closed-form", cases, df_case, cases=cases)[0])
    return {}, checks


def _suite_lemma21(opts: SuiteOptions) -> _Run:
    weyl = Weyl(1, subalgebra="w1")
    checks = []
    for i0 in (1, 2):
        sub = GeneratedSubalgebra(weyl, standard_generators(weyl, i0, 2),
                                  deg_lo=0, deg_hi=40, d_cap=6)
        missing = [f"t^{k}D^{m}" for m in range(1, 5) for k in range(3 * i0, 41)
                   if sub.membership(weyl.monomial((k,), (m,))) is None]
        checks.append(VerificationReport(
            f"generation-coverage[i0={i0}]", ", ".join(missing[:10]) if missing else None,
            details={"targets": 4 * (41 - 3 * i0), "dimension": sub.dimension}))
        # one witness, re-evaluated from the generators alone
        elt = weyl.monomial((3 * i0,), (2,))
        combo = sub.membership(elt)
        acc = weyl.zero()
        for c, r in combo:
            acc = acc + sub.eval_word(sub.raw[r][1]).scale(c)
        checks.append(VerificationReport(
            f"witness-reevaluation[i0={i0}]", _difference(acc, elt),
            details={"target": format_element(elt),
                     "witness": [(str(c), sub.word_text(sub.raw[r][1]))
                                 for c, r in combo]}))
    return {"deg_hi": 40, "d_cap": 6, "m0": 2}, checks


def _suite_modules(opts: SuiteOptions) -> _Run:
    samples = opts.samples or 100
    checks = []
    for n in (1, 2):
        ring = Ring(tuple(f"a{i + 1}" for i in range(n)))
        weyl = Weyl(n, ring=ring, subalgebra="w1")
        for kind in opts.kinds():
            m = make_module(kind, "formal", weyl)
            rng = random.Random(opts.seed)

            def lie_case():
                """Residual [x,y]v - (x(yv) - y(xv))."""
                x, y, v = _module_case(weyl, rng, opts.max_mu)
                res = _vec_sub(act(m, bracket(x, y), v),
                               _vec_sub(act(m, x, act(m, y, v)), act(m, y, act(m, x, v))))
                return _vec_text(res) if res else None

            report, failed = _sampled(f"lie-module[{kind},n={n}]", samples, lie_case,
                                      samples=samples)
            report.details["failures"] = failed
            checks.append(report)
    return {"samples": samples, "alpha": "formal"}, checks


def _alpha1(opts: SuiteOptions) -> Fraction:
    return Fraction(1, 2) if opts.alpha is None else Fraction(opts.alpha)


def _rank_one_modules(opts: SuiteOptions, alpha):
    weyl = Weyl(1, ring=Ring(("alpha",)), subalgebra="w1")
    return [make_module(kind, alpha, weyl) for kind in opts.kinds()]


def _suite_assoc(opts: SuiteOptions) -> _Run:
    alpha = _alpha1(opts)
    samples = opts.samples or 100
    checks = []
    for m in _rank_one_modules(opts, [alpha]):
        rng = random.Random(opts.seed)
        td = m.weyl.tD((1,))
        canonical = [(td, td, (0,))]  # x = y = tD on y_0, the first case

        def witness():
            """The residual (x*y)v - x(yv): zero for kind A, nonzero for B."""
            x, y, v = canonical.pop() if canonical else _module_case(m.weyl, rng, opts.max_mu)
            lhs = act(m, mul(x, y), v)
            rhs = act(m, x, act(m, y, v))
            res = _vec_sub(lhs, rhs)
            if not res:
                return None
            return {"x": repr(x), "y": repr(y), "v": f"y{list(v)}",
                    "product_action": _vec_text(lhs), "staged_action": _vec_text(rhs),
                    "residual": _vec_text(res)}

        found = [(i, w) for i, w in enumerate(witness() for _ in range(samples + 1)) if w]
        witnesses = [w for _i, w in found]
        details = {"cases": samples + 1, "witnesses": witnesses[:3]}
        if m.kind == "A":
            residual = witnesses[0]["residual"] if witnesses else None
            if found:
                details["first_failing_sample"] = found[0][0]
        else:
            residual = None if witnesses else "no associativity failure found for kind B"
        checks.append(VerificationReport(f"assoc-dichotomy[{m.kind}]", residual,
                                         details=details))
    return {"alpha": _text(alpha), "samples": samples}, checks


def _suite_submodules(opts: SuiteOptions) -> _Run:
    window = [(k,) for k in range(-opts.window, opts.window + 1)]
    # (proper submodules, highest weight): only A_0 has a highest-weight
    # vector below the window's top, the trivial line y_0
    top = window[-1]
    expectations = {
        ("A", Fraction(1, 2)): ([], top),
        ("B", Fraction(1, 2)): ([], top),
        ("A", Fraction(0)): ([[(0,)]], (0,)),
        ("B", Fraction(0)): ([sorted(c for c in window if c != (0,))], top),
    }
    checks = []
    for alpha in (Fraction(0), Fraction(1, 2)):
        for m in _rank_one_modules(opts, [alpha]):
            found = submodule_scan(m, window)
            highest = highest_weight_scan(m, window)
            checks.append(VerificationReport(
                f"submodules[{m.kind},alpha={alpha}]",
                None if (found, highest) == expectations[m.kind, alpha]
                else f"found {found}, highest weight {highest}",
                details={"proper_submodules": [len(s) for s in found]}))
    return {"window": opts.window}, checks


def _suite_normalize(opts: SuiteOptions) -> _Run:
    ks = range(-3, 4)
    checks = []
    for m in _rank_one_modules(opts, "formal"):
        kind, one = m.kind, m.weyl.ring.one
        data = normalize_ddt_basis(m, ks)
        a = m.alpha[0]
        bad = [(i, k) for i in range(-1, 6) for k in ks
               if data.p[(i, k)] != rising(a + k, i + 1)]
        checks.append(VerificationReport(
            f"P-rising-form[{kind}]", f"first mismatch at (i,k)={bad[0]}" if bad else None,
            details={"i_range": [-1, 5]}))
        odd_ok = all(data.q[i] == one for i in (1, 3, 5))
        checks.append(VerificationReport(
            f"Q-odd-trivial[{kind}]",
            None if odd_ok else str({i: str(data.q[i]) for i in (1, 3, 5)})))
        q2 = data.q[2]
        q2_ok = q2 == (one if kind == "A" else -one) and q2 * q2 == one
        checks.append(VerificationReport(f"Q2-sign[{kind}]", None if q2_ok else str(q2),
                                         details={"Q2": str(q2)}))
    return {"alpha": "formal", "k_range": [-3, 3]}, checks


def _suite_weightlab_yk(opts: SuiteOptions) -> _Run:
    alpha = _alpha1(opts)
    return {"alpha": _text(alpha)}, [
        verify_yk_relations(normalize_ddt_basis(m, range(-3, 4)))
        for m in _rank_one_modules(opts, [alpha])]


# Suite name -> (runner, the SuiteOptions fields it reads besides seed).
_SUITES = {
    "jacobi": (_suite_jacobi, {"gamma", "samples", "max_mu"}),
    "oracle": (_suite_oracle, {"samples", "max_mu"}),
    "cocycle": (_suite_cocycle, {"samples", "max_mu"}),
    "onevar-identities": (_suite_onevar, {"samples"}),
    "lemma21": (_suite_lemma21, set()),
    "modules": (_suite_modules, {"samples", "max_mu", "kind"}),
    "assoc-dichotomy": (_suite_assoc, {"alpha", "samples", "max_mu", "kind"}),
    "submodules": (_suite_submodules, {"window", "kind"}),
    "normalize": (_suite_normalize, {"kind"}),
    "weightlab-p": (lambda opts: ({}, [p_series_report()]), set()),
    "weightlab-215": (lambda opts: ({}, [virasoro_consistency()]), set()),
    "weightlab-f": (lambda opts: ({}, [coefficient_claims()]), set()),
    "weightlab-yk": (_suite_weightlab_yk, {"alpha", "kind"}),
}
SUITE_NAMES = (*_SUITES, "all")

def run_suite(name: str, options: Optional[SuiteOptions] = None) -> ReportDocument:
    """Run a named suite; "all" concatenates every suite's checks.

    Raises UnsupportedOptionError, before any suite runs, when ``options``
    sets an option the suite does not read ("all" reads the options of any
    of its suites). ``SuiteOptions`` itself refuses values no suite can run
    with.
    """
    opts = options or SuiteOptions()
    if name == "all":
        names = list(_SUITES)
    elif name in _SUITES:
        names = [name]
    else:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    reads = set().union(*(_SUITES[sub][1] for sub in names), {"seed"})
    for f in fields(SuiteOptions):
        if f.name not in reads and getattr(opts, f.name) != f.default:
            raise UnsupportedOptionError(
                f"suite {name!r} does not read --{f.name.replace('_', '-')}")
    if name == "all":
        params, checks = {}, [
            VerificationReport(f"{sub}:{c.name}", c.residual, c.details)
            for sub, (suite, _r) in _SUITES.items() for c in suite(opts)[1]]
    else:
        params, checks = _SUITES[name][0](opts)
    return ReportDocument(name, checks, params, seed=opts.seed)
