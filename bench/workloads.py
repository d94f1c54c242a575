"""The four benchmark workloads: fixtures, seeded inputs, ops and checks.

Every input is drawn here, from the run's seed, and handed to the library's
public functions; no suite helper or library RNG is used.  A workload is run
in rounds.  A round is a fixed mix of input *shapes* (sizes, D-exponents,
module kinds) whose contents (grades, coefficients, lattice points, order)
come from the seed, so that runs with different seeds do the same amount of
work and their timings can be compared.

The library is always reached through module attributes at call time
(``W.bracket``, ``intermediate.act``, ...), so the wrappers installed by the
traced run see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

import winfty as W
from winfty import intermediate, parser, printer, weightlab

DEFAULT_SEED = 0


@dataclass
class Op:
    """One timed call into the library plus its untimed correctness checks.

    ``run`` is the timed part.  ``check`` gets its result and returns True
    when every identity and independent oracle holds.  ``digest`` gets the
    same result and returns canonical output text, which is compared with the
    stored reference for the default-seed canary round.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], str]


def sha(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _vec_sub(a: Dict, b: Dict) -> Dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] - v if k in out else -v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _vec_text(v: Dict) -> str:
    return " + ".join(f"({v[k]})*y{list(k)}" for k in sorted(v)) or "0"


def _rational(rng: random.Random, num: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num) or 1, rng.randint(1, den))


# -- bracket-rational ------------------------------------------------------
#
# The Weyl product kernel with rational coefficients: Jacobi on random
# homogeneous triples in W(Z^n,n)^(1), n in {1, 2}, |mu| <= 4, plus the
# cocycle condition and the extended Jacobi in the hat algebra for n = 1.


def _bracket_shapes() -> List:
    """24 triple shapes, half n = 1 and half n = 2; fixed for every seed."""
    rng = random.Random("bracket-rational-shapes")
    shapes = []
    for i in range(24):
        n = 1 + i % 2
        triple = []
        for _ in range(3):
            mus = set()
            for _ in range(rng.randint(1, 3)):
                while True:
                    mu = [0] * n
                    for _ in range(rng.randint(1, 4)):
                        mu[rng.randrange(n)] += 1
                    if tuple(mu) not in mus:
                        break
                mus.add(tuple(mu))
            triple.append(sorted(mus))
        shapes.append((n, triple))
    return shapes


class BracketRational:
    name = "bracket-rational"
    canary_ops = 8

    def setup(self):
        return {
            "w1": {1: W.Weyl(1, subalgebra="w1"), 2: W.Weyl(2, subalgebra="w1")},
            "hat": W.Weyl(1, subalgebra="hat"),
            "shapes": _bracket_shapes(),
        }

    def round(self, fx, rng: random.Random) -> List[Op]:
        order = list(range(len(fx["shapes"])))
        rng.shuffle(order)
        # Shapes alternate n = 1, 2, so every third one puts both under the oracle.
        return [self._op(fx, rng, fx["shapes"][i], oracle=(i % 3 == 0))
                for i in order]

    def _op(self, fx, rng, shape, oracle: bool) -> Op:
        n, triple = shape
        w = fx["w1"][n]
        hat = fx["hat"]
        specs = []
        for mus in triple:
            gamma = tuple(rng.randint(-5, 5) for _ in range(n))
            specs.append([(gamma, mu, _rational(rng)) for mu in mus])
        probe = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))

        def build(alg):
            out = []
            for terms in specs:
                e = alg.zero()
                for gamma, mu, c in terms:
                    e = e + alg.monomial(gamma, mu, c)
                out.append(e)
            return out

        x, y, z = build(w)
        xh, yh, zh = build(hat) if n == 1 else (None, None, None)

        def run():
            reports = [W.verify_jacobi(x, y, z)]
            if n == 1:
                reports.append(W.verify_cocycle_condition(xh, yh, zh))
                reports.append(W.verify_jacobi(xh, yh, zh, name="ext-jacobi"))
            return reports

        def check(reports) -> bool:
            if not all(r.passed for r in reports):
                return False
            if not oracle:
                return True
            # Products and brackets against the operator-action oracle, which
            # never calls mul: a kernel that returns 0 fails here.
            yv = W.operator_action(y, probe)
            xv = W.operator_action(x, probe)
            staged_xy = W.act_on_combination(x, yv)
            staged_yx = W.act_on_combination(y, xv)
            if W.operator_action(W.mul(x, y), probe) != staged_xy:
                return False
            diff = dict(staged_xy)
            for g, c in staged_yx.items():
                diff[g] = diff.get(g, w.ring.zero) - c
            diff = {g: c for g, c in diff.items() if not c.is_zero()}
            return W.operator_action(W.bracket(x, y), probe) == diff

        def digest(_reports) -> str:
            texts = [W.format_element(W.bracket(a, b))
                     for a, b in ((y, z), (z, x), (x, y))]
            texts.append(W.format_element(W.mul(x, y)))
            if n == 1:
                texts += [W.format_element(W.bracket(a, b))
                          for a, b in ((yh, zh), (zh, xh), (xh, yh))]
            return sha(*texts)

        return Op(f"jacobi[n={n}]", run, check, digest)


# -- generation-boxes ------------------------------------------------------
#
# Lemma 2.1 certification: bracket closure of the standard generators in a
# truncation box, membership of every t^k D^m target, and one witness
# re-evaluated from the generators.  Boxes vary deg_hi and d_cap separately;
# they are sized to cost about the same (0.4-0.55 s each on a 2-core Xeon
# VM), so the median op sits inside one cluster of latencies, not in the gap
# between two.

GENERATION_BOXES = ((28, 4), (32, 4), (14, 5), (16, 5))
GENERATION_M0 = 2


class GenerationBoxes:
    name = "generation-boxes"
    canary_ops = 0  # every op is checked against the per-box reference

    def __init__(self, reference: Optional[Dict] = None):
        self.reference = reference or {}

    def setup(self):
        w = W.Weyl(1, subalgebra="w1")
        gens = {(deg_hi, d_cap, i0): W.standard_generators(w, i0, GENERATION_M0, d_cap)
                for deg_hi, d_cap in GENERATION_BOXES for i0 in (1, 2)}
        return {"weyl": w, "gens": gens}

    def round(self, fx, rng: random.Random) -> List[Op]:
        keys = sorted(fx["gens"])
        rng.shuffle(keys)
        return [self._op(fx, rng, key) for key in keys]

    def _op(self, fx, rng, key) -> Op:
        deg_hi, d_cap, i0 = key
        w = fx["weyl"]
        gens = fx["gens"][key]
        targets = [w.monomial((k,), (m,)) for m in range(1, d_cap + 1)
                   for k in range(3 * i0, deg_hi + 1)]
        witness_target = targets[rng.randrange(len(targets))]
        box = f"{deg_hi},{d_cap},{i0}"

        def run():
            sub = W.GeneratedSubalgebra(w, gens, deg_lo=0, deg_hi=deg_hi, d_cap=d_cap)
            combos = [sub.membership(t) for t in targets]
            combo = sub.membership(witness_target)
            acc = w.zero()
            for c, r in combo:
                acc = acc + sub.eval_word(sub.raw[r][1]).scale(c)
            return sub, combos, acc

        def check(result) -> bool:
            sub, combos, acc = result
            return (all(c is not None for c in combos)
                    and acc == witness_target
                    and _box_summary(sub) == self.reference.get(box))

        return Op(f"generation[{box}]", run, check, lambda r: _box_summary(r[0])[2])

    def reference_table(self, fx) -> Dict[str, List]:
        """Dimension, rounds and basis digest of every box; seed-independent."""
        table = {}
        for deg_hi, d_cap, i0 in sorted(fx["gens"]):
            sub = W.GeneratedSubalgebra(fx["weyl"], fx["gens"][(deg_hi, d_cap, i0)],
                                        deg_lo=0, deg_hi=deg_hi, d_cap=d_cap)
            table[f"{deg_hi},{d_cap},{i0}"] = _box_summary(sub)
        return table


def _box_summary(sub) -> List:
    """Dimension, closure rounds and a digest of the spanning elements."""
    return [sub.dimension, sub.rounds,
            sha(*(W.format_element(x) for x, _word in sub.raw))]


# -- formal-modules --------------------------------------------------------
#
# Module axioms on A_alpha / B_alpha with formal alpha (multi-term polynomial
# coefficients), on Z and on the non-standard rank-2 lattice
# Z(1,0) + Z(1/2,1/3) in Q^2, plus the fixed normalisation and weight-space
# claims on the 6-symbol ring.  The fixed ops run in every round: they keep
# polynomial arithmetic a steady share of the time, and as the slowest ops
# they set the tail latency, which would otherwise be the few most extreme
# of thousands of millisecond ops and swing with every scheduler hiccup.

RANK2_LATTICE = ((1, 0), (Fraction(1, 2), Fraction(1, 3)))


def _mu(n: int, rng: random.Random) -> tuple:
    """A D-exponent with 1 <= |mu| <= 3."""
    while True:
        mu = tuple(rng.randint(0, 3) for _ in range(n))
        if 1 <= sum(mu) <= 3:
            return mu


def _b_assoc_residual(m, x_key, y_key, g_coords):
    """Closed form of (xy)v - x(yv) on B_alpha for monomials x, y and v = y_g.

    With s = alpha + a + b + g the binomial theorem sums the product
    expansion to (-1)^(|mu|+|nu|+1) s^nu (s - b)^mu, while the staged action
    is (-1)^(|mu|+|nu|) s^mu (alpha + b + g)^nu.  Derived by hand from the
    action formula; it does not use mul.
    """
    (a, mu), ca = x_key
    (b, nu), cb = y_key
    lat = m.weyl.lattice
    g = lat.ambient(g_coords)
    ring = m.weyl.ring
    prod = ring.one
    staged = ring.one
    for al, ai, bi, gi, mi, ni in zip(m.alpha, a, b, g, mu, nu):
        s = al + ai + bi + gi
        prod = prod * s ** ni * (s - bi) ** mi
        staged = staged * s ** mi * (al + bi + gi) ** ni
    sign = (-1) ** (sum(mu) + sum(nu))
    res = (prod * (-sign) - staged * sign) * ca * cb
    if res.is_zero():
        return {}
    target = tuple(p + q + r for p, q, r in
                   zip(lat.membership(a), lat.membership(b), g_coords))
    return {target: res}


class FormalModules:
    name = "formal-modules"
    canary_ops = 24

    def setup(self):
        settings = []
        for n, lat in ((1, None), (2, W.Lattice(RANK2_LATTICE))):
            ring = W.Ring(tuple(f"a{i + 1}" for i in range(n)))
            alg = W.Weyl(n, ring=ring, lattice=lat, subalgebra="w1")
            settings.append((alg, {k: W.make_module(k, "formal", alg) for k in "AB"}))
        shapes = random.Random("formal-modules-shapes")
        ring1 = W.Ring(("alpha",))
        w1 = W.Weyl(1, ring=ring1, subalgebra="w1")
        return {
            "settings": settings,
            # (mu_x, mu_y) pairs per (n, kind, check): 12 Lie, then 6 assoc
            "shapes": {(alg.n, kind): [(_mu(alg.n, shapes), _mu(alg.n, shapes))
                                       for _ in range(18)]
                       for alg, _modules in settings for kind in "AB"},
            "formal1": {k: W.make_module(k, "formal", w1) for k in "AB"},
            "half1": {k: W.make_module(k, [Fraction(1, 2)], w1) for k in "AB"},
            "td": w1.tD((1,)),
        }

    def fixed_ops(self, fx) -> List[Op]:
        """normalize_ddt_basis and the weight-space claims; the same every round."""
        ops = []
        for kind in "AB":
            m = fx["formal1"][kind]

            def norm(m=m):
                return intermediate.normalize_ddt_basis(m, range(-3, 4))

            def norm_check(data, m=m) -> bool:
                a = m.alpha[0]
                one = m.weyl.ring.one
                return (all(data.p[(i, k)] == W.rising(a + k, i + 1)
                            for i in range(-1, 6) for k in range(-3, 4))
                        and all(data.q[i] == one for i in (1, 3, 5))
                        and data.q[2] == (one if m.kind == "A" else -one))

            def norm_digest(data) -> str:
                return sha(*(f"{k}:{v}" for k, v in sorted(data.p.items())),
                           *(f"{k}:{v}" for k, v in sorted(data.q.items())))

            ops.append(Op(f"normalize[{kind}]", norm, norm_check, norm_digest))

            def yk(m=fx["half1"][kind]):
                data = intermediate.normalize_ddt_basis(m, range(-3, 4))
                return weightlab.verify_yk_relations(data)

            ops.append(Op(f"yk-relations[{kind}]", yk, lambda r: r.passed,
                          lambda r: sha(r.name, str(r.details))))

        def fpolys():
            return weightlab.build_f_polynomials()

        def fpolys_digest(fp) -> str:
            return sha(str(fp.f1), str(fp.f2), str(fp.f3), str(fp.g))

        ops.append(Op("build-f", fpolys, lambda fp: not fp.g.is_zero(), fpolys_digest))

        def claims():
            return [weightlab.virasoro_consistency(weightlab.build_p_series()),
                    weightlab.coefficient_claims()]

        ops.append(Op("claims", claims, lambda rs: all(r.passed for r in rs),
                      lambda rs: sha(*(str(r.details) for r in rs))))
        return ops

    def round(self, fx, rng: random.Random) -> List[Op]:
        ops = []
        for alg, modules in fx["settings"]:
            for kind in "AB":
                shapes = fx["shapes"][(alg.n, kind)]
                ops += [self._lie_op(alg, modules[kind], rng, mus) for mus in shapes[:12]]
                ops += [self._assoc_op(alg, modules[kind], rng, mus) for mus in shapes[12:]]
        for kind in "AB":
            ops.append(self._witness_op(fx["formal1"][kind], fx["td"]))
        ops += self.fixed_ops(fx)
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _monomial(alg, rng, mu):
        coords = tuple(rng.randint(-3, 3) for _ in range(alg.lattice.rank))
        return alg.monomial(alg.lattice.ambient(coords), mu, _rational(rng, 5, 3))

    def _lie_op(self, alg, m, rng, mus) -> Op:
        x = self._monomial(alg, rng, mus[0])
        y = self._monomial(alg, rng, mus[1])
        g = tuple(rng.randint(-3, 3) for _ in range(alg.lattice.rank))

        def run():
            act = intermediate.act
            lhs = act(m, W.bracket(x, y), g)
            rhs = _vec_sub(act(m, x, act(m, y, g)), act(m, y, act(m, x, g)))
            return lhs, _vec_sub(lhs, rhs)

        return Op(f"lie-module[{m.kind},n={alg.n}]", run,
                  lambda r: not r[1], lambda r: sha(_vec_text(r[0])))

    def _assoc_op(self, alg, m, rng, mus) -> Op:
        x = self._monomial(alg, rng, mus[0])
        y = self._monomial(alg, rng, mus[1])
        g = tuple(rng.randint(-3, 3) for _ in range(alg.lattice.rank))

        def run():
            act = intermediate.act
            return _vec_sub(act(m, W.mul(x, y), g), act(m, x, act(m, y, g)))

        def check(res) -> bool:
            if m.kind == "A":
                return not res
            (xk, xc), = x.terms.items()
            (yk, yc), = y.terms.items()
            return res == _b_assoc_residual(m, (xk, xc), (yk, yc), g)

        return Op(f"assoc[{m.kind},n={alg.n}]", run, check,
                  lambda r: sha(_vec_text(r)))

    def _witness_op(self, m, td) -> Op:
        """x = y = tD on y_0: associative on A, the canonical failure on B."""

        def run():
            act = intermediate.act
            return _vec_sub(act(m, W.mul(td, td), (0,)), act(m, td, act(m, td, (0,))))

        def check(res) -> bool:
            return not res if m.kind == "A" else bool(res)

        return Op(f"assoc-witness[{m.kind}]", run, check, lambda r: sha(_vec_text(r)))


# -- eval-roundtrip --------------------------------------------------------
#
# The text layers: format_element, parse_element/as_element and an equality
# check, on random 40-monomial elements and on fixed CLI-style expressions.

PARAMS = ("alpha", "beta")

# (n, subalgebra, with parameters, expression); expected results live in
# reference.json.
CLI_EXPRESSIONS = (
    (1, "w1", False, "[t^(1)*D, t^(2)*D]"),
    (2, "full", False, "3/2*t[1,0]*D1^2*D2"),
    (1, "full", False, "[(d/dt)^2,[(d/dt)^2,t^(2)*d/dt]] - 8*(d/dt)^3"),
    (1, "full", False, "[t^(2)*D^2, [t^(-1)*D, t^(3)*D^3]]"),
    (1, "hat", False, "[t^(2)*D, t^(-2)*D^2] + 1/2*[t^(3)*D, t^(-3)*D]"),
    (1, "w1", True, "(alpha + 1)*t^(2)*D + [alpha*t^(1)*D, t^(-1)*D^2]"),
    (2, "w1", False, "[t[1,0]*D1*D2, t[0,-1]*D2^2] - t[1,-1]*D1*D2"),
)


def _parameter_coefficients(ring) -> List:
    """64 polynomial coefficients in alpha, beta; the same for every seed,
    which picks among them (building polynomials per op would cost more
    wall time than the op itself)."""
    rng = random.Random("eval-roundtrip-coefficients")
    a, b = (ring.sym(s) for s in PARAMS)
    shapes = (lambda: a * _rational(rng) + _rational(rng),
              lambda: a * b * _rational(rng) - b ** 2 * _rational(rng),
              lambda: (a + _rational(rng)) ** 2 + b * _rational(rng))
    return [shapes[i % 3]() for i in range(64)]


class EvalRoundtrip:
    name = "eval-roundtrip"
    canary_ops = 15

    def __init__(self, reference: Optional[Dict] = None):
        self.reference = reference or {}

    def setup(self):
        ring = W.Ring(PARAMS)
        sessions = {}
        for n in (1, 2):
            for sub in ("full", "w1", "hat"):
                if sub == "hat" and n != 1:
                    continue
                sessions[(n, sub, False)] = W.Session(W.Weyl(n, subalgebra=sub))
                sessions[(n, sub, True)] = W.Session(W.Weyl(n, ring=ring, subalgebra=sub))
        return {"sessions": sessions, "coeffs": _parameter_coefficients(ring)}

    def round(self, fx, rng: random.Random) -> List[Op]:
        # Three ops of each random kind put the median op inside one cluster
        # of latencies (rational n = 2) rather than between the cheap fixed
        # expressions and the random elements.
        ops = [self._random_op(fx, rng, n, params, basis)
               for n in (1, 2) for params in (False, True)
               for basis in ("power", "falling") for _ in range(3)]
        ops += [self._cli_op(fx, i) for i in range(len(CLI_EXPRESSIONS))]
        rng.shuffle(ops)
        return ops

    def _random_op(self, fx, rng, n: int, params: bool, basis: str) -> Op:
        session = fx["sessions"][(n, "full", params)]
        alg = session.weyl
        terms = {}
        while len(terms) < 40:
            gamma = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n))
            mu = tuple(rng.randint(0, 3) for _ in range(n))
            if (gamma, mu) not in terms:
                terms[(gamma, mu)] = (rng.choice(fx["coeffs"]) if params
                                      else alg.ring.const(_rational(rng, 30, 12)))
        elt = W.WeylElement(alg, terms, basis=basis)

        def run():
            text = printer.format_element(elt)
            back = parser.as_element(parser.parse_element(text, session), alg)
            return text, back == elt

        return Op(f"roundtrip[n={n},{'param' if params else 'rat'},{basis}]",
                  run, lambda r: r[1], lambda r: sha(r[0]))

    def _cli_op(self, fx, i: int) -> Op:
        n, sub, params, expr = CLI_EXPRESSIONS[i]
        session = fx["sessions"][(n, sub, params)]
        expected = self.reference.get(expr)

        def run():
            value = parser.as_element(parser.parse_element(expr, session), session.weyl)
            text = printer.format_element(value)
            back = parser.as_element(parser.parse_element(text, session), session.weyl)
            return text, back == value

        return Op(f"cli[{i}]", run, lambda r: r[1] and r[0] == expected,
                  lambda r: sha(r[0]))

    def reference_table(self, fx) -> Dict[str, str]:
        """The printed value of every fixed expression."""
        table = {}
        for n, sub, params, expr in CLI_EXPRESSIONS:
            session = fx["sessions"][(n, sub, params)]
            value = parser.as_element(parser.parse_element(expr, session), session.weyl)
            table[expr] = printer.format_element(value)
        return table


WORKLOAD_NAMES = ("bracket-rational", "generation-boxes", "formal-modules",
                  "eval-roundtrip")


def make_workload(name: str, reference: Dict):
    """The workload object, given the stored reference document."""
    if name == "bracket-rational":
        return BracketRational()
    if name == "generation-boxes":
        return GenerationBoxes(reference.get("generation-boxes", {}).get("boxes"))
    if name == "formal-modules":
        return FormalModules()
    if name == "eval-roundtrip":
        return EvalRoundtrip(reference.get("eval-roundtrip", {}).get("cli"))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
