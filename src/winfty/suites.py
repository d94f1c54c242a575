"""Named verification suites: every identity check behind one dispatcher.

Each suite builds a ReportDocument whose JSON rendering is byte-identical
for a fixed seed and option set (checks are sorted by name at emission and
no wall time is recorded).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .intermediate import (assoc_module_check, box_window, highest_weight_scan,
                           lie_module_check, make_module, normalize_ddt_basis,
                           submodule_scan)
from .lattice import Direction, Lattice
from .onevar import (DfElement, GeneratedSubalgebra, df_bracket,
                     standard_generators, verify_named_identity)
from .printer import format_element
from .report import ReportDocument, VerificationReport
from .scalars import Ring, rising
from .weightlab import (coefficient_claims, p_series_report,
                        verify_yk_relations, virasoro_consistency)
from .weyl import (Weyl, act_on_combination, bracket, degree_one_bracket,
                   cocycle, mul, operator_action, verify_cocycle_condition,
                   verify_jacobi)


class UnknownSuiteError(ValueError):
    pass


class UnsupportedOptionError(ValueError):
    """A suite was given a non-default value for an option it does not read."""


@dataclass
class SuiteOptions:
    """Knobs shared by all suites; None falls back to per-suite defaults.

    Each suite reads only some of them (see ``_SUITES``); ``run_suite``
    rejects a non-default value of any other, except ``seed``, which every
    report records.
    """

    n: int = 1
    gamma: Optional[Sequence[Sequence[Fraction]]] = None  # lattice generators
    alpha: object = None          # rational vector, "formal", or None
    window: int = 8
    samples: Optional[int] = None
    seed: int = 0
    max_mu: int = 4
    kind: Optional[str] = None    # restrict module suites to "A" or "B"
    subalgebra: str = "w1"

    def __post_init__(self):
        for name, least in (("samples", 1), ("window", 0), ("max_mu", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least "
                                 f"{least}, got {value}")

    def lattice(self, n: int) -> Lattice:
        if self.gamma is not None:
            return Lattice(self.gamma)
        return Lattice.standard(n)

    def kinds(self) -> Tuple[str, ...]:
        return (self.kind,) if self.kind else ("A", "B")


# -- random element helpers ------------------------------------------------


def _random_homogeneous(weyl: Weyl, rng: random.Random, coord_bound: int = 5,
                        max_mu: int = 4) -> "WeylElement":
    """A random homogeneous element: one lattice grade, 1-3 monomials."""
    coords = tuple(rng.randint(-coord_bound, coord_bound)
                   for _ in range(weyl.lattice.rank))
    gamma = weyl.lattice.ambient(coords)
    out = weyl.zero()
    for _ in range(rng.randint(1, 3)):
        mu = [0] * weyl.n
        lo = 1 if weyl.subalgebra in ("w1", "hat") else 0
        for _ in range(rng.randint(lo, max_mu)):
            mu[rng.randrange(weyl.n)] += 1
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        out = out + weyl.monomial(gamma, mu, c)
    return out


def _random_poly(rng: random.Random, deg: int) -> Dict[int, Fraction]:
    f = {e: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
         for e in range(rng.randint(0, deg) + 1)}
    if not any(f.values()):
        f[0] = Fraction(1)
    return f


# -- individual suites -----------------------------------------------------


def _suite_jacobi(opts: SuiteOptions) -> ReportDocument:
    if opts.n not in (1, 2):
        raise ValueError(f"jacobi runs n = 1 and n = 2; --n {opts.n} selects "
                         f"neither for the --gamma lattice")
    samples = opts.samples or 200
    params = {"samples": samples, "max_mu": opts.max_mu}
    if opts.gamma is not None:
        # the default Z^n report keeps its form; a --gamma one names its lattice
        params.update(n=opts.n, gamma=[[str(c) for c in g]
                                       for g in opts.lattice(opts.n).generators])
    doc = ReportDocument("jacobi", seed=opts.seed, params=params)
    for n in (1, 2):
        rng = random.Random(opts.seed + n)
        weyl = Weyl(n, lattice=opts.lattice(n) if n == opts.n else None,
                    subalgebra="w1")
        failures = []
        for _ in range(samples):
            x, y, z = (_random_homogeneous(weyl, rng, max_mu=opts.max_mu)
                       for _ in range(3))
            rep = verify_jacobi(x, y, z)
            if not rep.passed:
                failures.append(rep.residual)
        doc.add(VerificationReport(
            f"jacobi[n={n}]", failures[0] if failures else None,
            details={"zero_residuals": samples - len(failures),
                     "samples": samples}))
    return doc


def _suite_oracle(opts: SuiteOptions) -> ReportDocument:
    samples = opts.samples or 200
    doc = ReportDocument("oracle", seed=opts.seed, params={"samples": samples})
    for n in (1, 2):
        rng = random.Random(opts.seed + 10 * n)
        weyl = Weyl(n)
        bad = []
        for _ in range(samples):
            x = _random_homogeneous(weyl, rng, max_mu=opts.max_mu)
            y = _random_homogeneous(weyl, rng, max_mu=opts.max_mu)
            xy = mul(x, y)
            for _ in range(5):
                g = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                          for _ in range(n))
                direct = operator_action(xy, g)
                staged = act_on_combination(x, operator_action(y, g))
                if direct != staged:
                    bad.append({"x": format_element(x), "y": format_element(y),
                                "gamma": [str(c) for c in g]})
        doc.add(VerificationReport(
            f"mul-vs-operator[n={n}]", str(bad[0]) if bad else None,
            details={"pairs": samples, "vectors_per_pair": 5}))
    # closed form for brackets of degree-one elements
    rng = random.Random(opts.seed + 77)
    weyl2 = Weyl(2)
    bad = []
    cases = opts.samples or 100
    for _ in range(cases):
        beta = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        gam = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
        d = Direction.of([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(2)])
        d2 = Direction.of([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                           for _ in range(2)])
        closed = degree_one_bracket(weyl2, beta, d, gam, d2)
        generic = bracket(weyl2.from_direction(beta, d),
                          weyl2.from_direction(gam, d2))
        if closed != generic:
            bad.append(format_element(closed - generic))
    doc.add(VerificationReport("degree-one-closed-form", bad[0] if bad else None,
                               details={"cases": cases}))
    return doc


def _suite_cocycle(opts: SuiteOptions) -> ReportDocument:
    samples = opts.samples or 200
    doc = ReportDocument("cocycle", seed=opts.seed, params={"samples": samples})
    hat = Weyl(1, subalgebra="hat")
    rng = random.Random(opts.seed + 5)

    bad = []
    for _ in range(samples):
        x, y, z = (_random_homogeneous(hat, rng, max_mu=opts.max_mu)
                   for _ in range(3))
        rep = verify_cocycle_condition(x, y, z)
        if not rep.passed:
            bad.append(rep.residual)
    doc.add(VerificationReport("cocycle-condition", bad[0] if bad else None,
                               details={"triples": samples}))

    half = opts.samples or 100
    bad = []
    for _ in range(half):
        x, y, z = (_random_homogeneous(hat, rng, max_mu=opts.max_mu)
                   for _ in range(3))
        rep = verify_jacobi(x, y, z, name="ext-jacobi")
        if not rep.passed:
            bad.append(rep.residual)
    doc.add(VerificationReport("ext-bracket-jacobi", bad[0] if bad else None,
                               details={"triples": half}))

    bad = []
    for _ in range(half):
        x = _random_homogeneous(hat, rng, max_mu=opts.max_mu)
        y = _random_homogeneous(hat, rng, max_mu=opts.max_mu)
        s = cocycle(x, y) + cocycle(y, x)
        if not s.is_zero():
            bad.append(str(s))
    doc.add(VerificationReport("cocycle-antisymmetry", bad[0] if bad else None,
                               details={"pairs": half}))
    return doc


def _suite_onevar(opts: SuiteOptions) -> ReportDocument:
    doc = ReportDocument("onevar-identities", seed=opts.seed, params={})
    weyl = Weyl(1)
    for name in ("L23-1", "L23-2", "L23-3"):
        for i in range(1, 13):
            doc.add(verify_named_identity(weyl, name, i))
    doc.add(verify_named_identity(weyl, "CUBE"))

    # unique zero reading of the ambiguous identity, uniform over i
    readings = [set(rep.details["zero_readings"])
                for rep in doc.checks if rep.name.startswith("L23-3[")]
    always_zero = set.intersection(*readings)
    doc.add(VerificationReport(
        "L23-3-unique-reading",
        None if len(always_zero) == 1 else f"zero readings: {sorted(always_zero)}",
        details={"reading": sorted(always_zero)}))

    # closed-form bracket against the generic product bracket
    rng = random.Random(opts.seed + 3)
    cases = opts.samples or 100
    bad = []
    for _ in range(cases):
        i = rng.randint(-6, 6)
        j = rng.randint(-6, 6)
        f = _random_poly(rng, 6)
        g = _random_poly(rng, 6)
        closed = df_bracket(i, f, j, g).to_weyl(weyl)
        generic = bracket(DfElement.of(i, f).to_weyl(weyl),
                          DfElement.of(j, g).to_weyl(weyl))
        if closed != generic:
            bad.append(format_element(closed - generic))
    doc.add(VerificationReport("df-closed-form", bad[0] if bad else None,
                               details={"cases": cases}))
    return doc


def _suite_lemma21(opts: SuiteOptions) -> ReportDocument:
    doc = ReportDocument("lemma21", seed=opts.seed,
                         params={"deg_hi": 40, "d_cap": 6, "m0": 2})
    weyl = Weyl(1, subalgebra="w1")
    for i0 in (1, 2):
        sub = GeneratedSubalgebra(weyl, standard_generators(weyl, i0, 2),
                                  deg_lo=0, deg_hi=40, d_cap=6)
        missing = []
        for m in range(1, 5):
            for k in range(3 * i0, 41):
                if sub.membership(weyl.monomial((k,), (m,))) is None:
                    missing.append(f"t^{k}D^{m}")
        doc.add(VerificationReport(
            f"generation-coverage[i0={i0}]", ", ".join(missing[:10]) if missing else None,
            details={"targets": 4 * (41 - 3 * i0), "dimension": sub.dimension}))
        # one witness, re-evaluated from the generators alone
        target = DfElement.of(3 * i0, {1: Fraction(1)})
        elt = target.to_weyl(weyl)
        combo = sub.membership(elt)
        acc = weyl.zero()
        for c, r in combo:
            acc = acc + sub.eval_word(sub.raw[r][1]).scale(c)
        doc.add(VerificationReport(
            f"witness-reevaluation[i0={i0}]",
            None if acc == elt else format_element(acc - elt),
            details={"target": format_element(elt),
                     "witness": [(str(c), sub.word_text(sub.raw[r][1]))
                                 for c, r in combo]}))
    return doc


def _suite_modules(opts: SuiteOptions) -> ReportDocument:
    samples = opts.samples or 100
    doc = ReportDocument("modules", seed=opts.seed,
                         params={"samples": samples, "alpha": "formal"})
    for n in (1, 2):
        ring = Ring(tuple(f"a{i + 1}" for i in range(n)))
        weyl = Weyl(n, ring=ring, subalgebra="w1")
        for kind in opts.kinds():
            m = make_module(kind, "formal", weyl)
            rep = lie_module_check(m, samples, opts.seed, max_mu=opts.max_mu)
            rep.name = f"lie-module[{kind},n={n}]"
            doc.add(rep)
    return doc


def _parse_alpha1(opts: SuiteOptions, default: Fraction) -> Fraction:
    if opts.alpha in (None, "formal"):
        return default
    a = opts.alpha[0] if isinstance(opts.alpha, (list, tuple)) else opts.alpha
    return Fraction(a)


def _suite_assoc(opts: SuiteOptions) -> ReportDocument:
    alpha = _parse_alpha1(opts, Fraction(1, 2))
    samples = opts.samples or 100
    doc = ReportDocument("assoc-dichotomy", seed=opts.seed,
                         params={"alpha": str(alpha), "samples": samples})
    ring = Ring(("alpha",))
    weyl = Weyl(1, ring=ring, subalgebra="w1")
    for kind in opts.kinds():
        m = make_module(kind, [alpha], weyl)
        rep = assoc_module_check(m, samples, opts.seed, max_mu=opts.max_mu)
        rep.name = f"assoc-dichotomy[{kind}]"
        doc.add(rep)
    return doc


def _suite_submodules(opts: SuiteOptions) -> ReportDocument:
    doc = ReportDocument("submodules", seed=opts.seed,
                         params={"window": opts.window})
    ring = Ring(("alpha",))
    weyl = Weyl(1, ring=ring, subalgebra="w1")
    window = sorted(box_window(Lattice.standard(1), opts.window))
    # (proper submodules, highest weight): only A_0 has a highest-weight
    # vector below the window's top, the trivial line y_0
    top = window[-1]
    expectations = {
        ("A", Fraction(1, 2)): ([], top),
        ("B", Fraction(1, 2)): ([], top),
        ("A", Fraction(0)): ([[(0,)]], (0,)),
        ("B", Fraction(0)): ([sorted(c for c in window if c != (0,))], top),
    }
    for (kind, alpha), expected in sorted(expectations.items()):
        if opts.kind and kind != opts.kind:
            continue
        m = make_module(kind, [alpha], weyl)
        found = submodule_scan(m, window)
        highest = highest_weight_scan(m, window)["coords"]
        doc.add(VerificationReport(
            f"submodules[{kind},alpha={alpha}]",
            None if (found, highest) == expected
            else f"found {found}, highest weight {highest}",
            details={"proper_submodules": [len(s) for s in found]}))
    return doc


def _suite_normalize(opts: SuiteOptions) -> ReportDocument:
    doc = ReportDocument("normalize", seed=opts.seed,
                         params={"alpha": "formal", "k_range": [-3, 3]})
    ring = Ring(("alpha",))
    weyl = Weyl(1, ring=ring, subalgebra="w1")
    ks = range(-3, 4)
    for kind in opts.kinds():
        m = make_module(kind, "formal", weyl)
        data = normalize_ddt_basis(m, ks)
        a = m.alpha[0]
        bad = [(i, k) for i in range(-1, 6) for k in ks
               if data.p[(i, k)] != rising(a + k, i + 1)]
        doc.add(VerificationReport(
            f"P-rising-form[{kind}]", f"first mismatch at (i,k)={bad[0]}" if bad else None,
            details={"i_range": [-1, 5]}))
        odd_ok = all(data.q[i] == ring.one for i in (1, 3, 5))
        doc.add(VerificationReport(f"Q-odd-trivial[{kind}]",
                                   None if odd_ok else str({i: str(data.q[i])
                                                            for i in (1, 3, 5)})))
        want = ring.one if kind == "A" else -ring.one
        q2_ok = data.q[2] == want and data.q[2] * data.q[2] == ring.one
        doc.add(VerificationReport(
            f"Q2-sign[{kind}]", None if q2_ok else str(data.q[2]),
            details={"Q2": str(data.q[2])}))
    return doc


def _suite_weightlab_p(opts: SuiteOptions) -> ReportDocument:
    doc = ReportDocument("weightlab-p", seed=opts.seed, params={})
    doc.add(p_series_report())
    return doc


def _suite_weightlab_215(opts: SuiteOptions) -> ReportDocument:
    doc = ReportDocument("weightlab-215", seed=opts.seed, params={})
    doc.add(virasoro_consistency())
    return doc


def _suite_weightlab_f(opts: SuiteOptions) -> ReportDocument:
    doc = ReportDocument("weightlab-f", seed=opts.seed, params={})
    doc.add(coefficient_claims())
    return doc


def _suite_weightlab_yk(opts: SuiteOptions) -> ReportDocument:
    alpha = _parse_alpha1(opts, Fraction(1, 2))
    doc = ReportDocument("weightlab-yk", seed=opts.seed,
                         params={"alpha": str(alpha)})
    ring = Ring(("alpha",))
    weyl = Weyl(1, ring=ring, subalgebra="w1")
    for kind in opts.kinds():
        m = make_module(kind, [alpha], weyl)
        data = normalize_ddt_basis(m, range(-3, 4))
        doc.add(verify_yk_relations(data))
    return doc


# Suite name -> (runner, the SuiteOptions fields it reads besides seed).
_SUITES = {
    "jacobi": (_suite_jacobi, {"n", "gamma", "samples", "max_mu"}),
    "oracle": (_suite_oracle, {"samples", "max_mu"}),
    "cocycle": (_suite_cocycle, {"samples", "max_mu"}),
    "onevar-identities": (_suite_onevar, {"samples"}),
    "lemma21": (_suite_lemma21, set()),
    "modules": (_suite_modules, {"samples", "max_mu", "kind"}),
    "assoc-dichotomy": (_suite_assoc, {"alpha", "samples", "max_mu", "kind"}),
    "submodules": (_suite_submodules, {"window", "kind"}),
    "normalize": (_suite_normalize, {"kind"}),
    "weightlab-p": (_suite_weightlab_p, set()),
    "weightlab-215": (_suite_weightlab_215, set()),
    "weightlab-f": (_suite_weightlab_f, set()),
    "weightlab-yk": (_suite_weightlab_yk, {"alpha", "kind"}),
}
SUITE_NAMES = (*_SUITES, "all")


def check_options(command: str, opts: SuiteOptions, reads) -> None:
    """Raise UnsupportedOptionError if ``opts`` sets a field outside ``reads``
    to a non-default value; ``command`` names the reader in the message."""
    for f in fields(SuiteOptions):
        if f.name not in reads and getattr(opts, f.name) != f.default:
            raise UnsupportedOptionError(
                f"{command} does not read --{f.name.replace('_', '-')}")


def run_suite(name: str, options: Optional[SuiteOptions] = None) -> ReportDocument:
    """Run a named suite; "all" concatenates every suite's checks.

    Raises UnsupportedOptionError when ``options`` sets an option the suite
    does not read ("all" reads the options of any of its suites).
    """
    opts = options or SuiteOptions()
    if name == "all":
        check_options("suite 'all'", opts,
                      set().union({"seed"}, *(r for _s, r in _SUITES.values())))
        doc = ReportDocument("all", seed=opts.seed, params={})
        for sub_name, (suite, _reads) in _SUITES.items():
            for check in suite(opts).checks:
                check.name = f"{sub_name}:{check.name}"
                doc.add(check)
        return doc
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite, reads = _SUITES[name]
    check_options(f"suite {name!r}", opts, reads | {"seed"})
    return suite(opts)
