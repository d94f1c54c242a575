"""Modules of the intermediate series: the weight families A_alpha and B_alpha.

Both have one basis vector y_g per lattice point g, the central element acts
as zero, and a monomial t^b D^mu acts by

    A_alpha : (t^b D^mu) y_g = (alpha + g)^mu y_(b+g)
    B_alpha : (t^b D^mu) y_g = (-1)^(|mu|+1) (alpha + b + g)^mu y_(b+g)

with alpha either rational or a formal parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .lattice import _integers
from .scalars import Scalar, falling, rising
from .weyl import Gamma, Weyl, WeylElement

Coords = Tuple[int, ...]
# quoted: typing caches each subscription, so a class named here stays alive
ModuleVector = Dict[Coords, "Scalar"]

KIND_A = "A"
KIND_B = "B"


@dataclass(frozen=True)
class IntermediateModule:
    kind: str
    alpha: Tuple[Scalar, ...]
    weyl: Weyl

    def __post_init__(self):
        if self.kind not in (KIND_A, KIND_B):
            raise ValueError(f"kind must be A or B, got {self.kind!r}")
        if len(self.alpha) != self.weyl.n:
            raise ValueError(f"alpha must have {self.weyl.n} coordinates "
                             f"(alpha lies in F^n), got {len(self.alpha)}")

    def basis_vector(self, coords: Sequence[int]) -> ModuleVector:
        return {_integers(coords): self.weyl.ring.one}


def make_module(kind: str, alpha, weyl: Weyl) -> IntermediateModule:
    """alpha: sequence of rationals/Scalars, or the string "formal".

    "formal" requires the ring to provide symbols a1..an (or "alpha" when
    n = 1).
    """
    ring = weyl.ring
    n = weyl.n
    if alpha == "formal":
        if n == 1 and "alpha" in ring.symbols:
            avec = (ring.sym("alpha"),)
        else:
            avec = tuple(ring.sym(f"a{i + 1}") for i in range(n))
    else:
        avec = tuple(ring.coerce(a) for a in alpha)
    return IntermediateModule(kind, avec, weyl)


# -- the action ------------------------------------------------------------


def _argument(m: IntermediateModule, b: Gamma, g: Gamma) -> Tuple[int, Tuple[Scalar, ...]]:
    """(s, x) with t^b f(D) y_g = s f(x) y_(b+g) for every polynomial f, where
    b, g are ambient: x = alpha + g, s = 1 on A; x = -(alpha + b + g), s = -1
    on B (the module docstring's formulas, as (-x)^mu = (-1)^|mu| x^mu)."""
    if m.kind == KIND_A:
        return 1, tuple(a + gi for a, gi in zip(m.alpha, g))
    return -1, tuple(-(a + bi + gi) for a, bi, gi in zip(m.alpha, b, g))


def act(m: IntermediateModule, x: WeylElement, vec) -> ModuleVector:
    """Apply an algebra element to a module vector (or basis coords)."""
    if not isinstance(vec, dict):
        vec = m.basis_vector(vec)
    xp = x.to_power()  # central coordinate acts trivially and is dropped
    ring, lattice, grade_coords = m.weyl.ring, m.weyl.lattice, m.weyl.coords
    out: ModuleVector = {}
    for coords, vc in vec.items():
        g_amb = lattice.ambient(coords)
        for (b_amb, mu), c in xp.terms.items():
            if sum(mu) == 0:
                raise ValueError("|mu| = 0 monomials are not in the acting subalgebra")
            b_coords = grade_coords(b_amb)
            s, xs = _argument(m, b_amb, g_amb)
            coeff = c * vc * s
            for xi, mi in zip(xs, mu):
                if mi:
                    coeff = coeff * xi ** mi
            if coeff.is_zero():
                continue
            target = tuple(p + q for p, q in zip(coords, b_coords))
            out[target] = out.get(target, ring.zero) + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


# -- graded submodule scanning --------------------------------------------


def _reaches(m: IntermediateModule, src: Coords, dst: Coords) -> bool:
    """Can some monomial action carry y_src onto y_dst with nonzero coefficient?"""
    lattice = m.weyl.lattice
    b = lattice.ambient(tuple(d - s for d, s in zip(dst, src)))
    _s, x = _argument(m, b, lattice.ambient(src))
    # x^mu is nonzero for some |mu| >= 1 iff a component of x is nonzero
    return any(not xi.is_zero() for xi in x)


def _reach(m: IntermediateModule, window: Sequence[Coords]) -> Dict[Coords, List[Coords]]:
    """For each window index, the other window indices that some monomial
    action carries it onto with nonzero coefficient."""
    if any(not a.is_rational() for a in m.alpha):
        raise ValueError("the module scans need a numeric alpha")
    window = [tuple(w) for w in window]
    return {src: [dst for dst in window if dst != src and _reaches(m, src, dst)]
            for src in window}


def submodule_scan(m: IntermediateModule, window: Sequence[Coords]) -> List[List[Coords]]:
    """Proper graded invariant subspaces within the window.

    Weight spaces are one-dimensional, so a graded invariant subspace is a
    subset of window indices closed under reachability; the scan returns the
    distinct proper closures of singletons, which generate all of them.
    """
    reach = _reach(m, window)
    found = []
    for start in reach:
        closure = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in reach[cur]:
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        if len(closure) < len(reach):
            closed = sorted(closure)
            if closed not in found:
                found.append(closed)
    found.sort(key=lambda s: (len(s), s))
    return found


def highest_weight_scan(m: IntermediateModule, window: Sequence[Coords]) -> Optional[Coords]:
    """The coordinates of the lowest basis vector that no action carries to a
    higher one inside the window, or None.

    Positivity is lexicographic on coordinates.  Weight spaces being
    one-dimensional and the action graded, any annihilated vector is
    supported on annihilated basis vectors, so scanning y_g suffices.
    """
    reach = _reach(m, window)
    for g in sorted(reach):
        if all(dst < g for dst in reach[g]):
            return g
    return None


# -- normalized bases and P/Q data ----------------------------------------


@dataclass
class PQData:
    """Scalars P_{i,k} and Q_i of the normalized one-variable basis.

    The basis is rescaled so (t^(-1)D) Y_k = Y_(k-1) across the range; then
    (t^i D) Y_k = P_{i,k} Y_(k+i) and (d/dt)^i Y_k = Q_i Y_(k-i).
    """

    kind: str
    p: Dict[Tuple[int, int], Scalar]  # (i, k) -> P_{i,k}
    q: Dict[int, Scalar]              # i -> Q_i (k-independent, checked)
    p1_const: Scalar
    p2_const: Scalar


def _falling_action(m: IntermediateModule, beta: int, j: int, k: int) -> Scalar:
    """Coefficient of t^beta [D]_j on y_k (before rescaling): s [x]_j with
    (s, x) from ``_argument``; j = 1 is t^beta D."""
    s, (x,) = _argument(m, (beta,), (k,))
    return falling(x, j) * s


def normalize_ddt_basis(m: IntermediateModule, k_range: Sequence[int]) -> PQData:
    """Rescale the weight basis so (t^(-1)D) Y_k = Y_(k-1), then read off
    P_{i,k} for -1 <= i <= 5 and Q_i for 1 <= i <= 4.

    Needs rank one (n = 1, Gamma = Z); alpha may be formal.  With c_k the
    scale of Y_k = c_k y_k, the normalization reads c_(k-1) = c_k r(k) for
    r(k) the coefficient of t^-1 D on y_k, so every ratio c_k / c_(k+i)
    telescopes to a product of r(j) and no scale is ever formed.
    """
    if m.weyl.n != 1 or m.weyl.lattice.rank != 1:
        raise ValueError("normalize_ddt_basis needs the rank-one case")
    ks = sorted(set(_integers(k_range)))
    if len(ks) < 2:
        raise ValueError(f"k_range needs two distinct k to compare Q_i across, got {ks}")
    ring = m.weyl.ring
    one = ring.one
    # the normalized basis spans k in [ks[0] - 6, ks[-1] + 6]; it exists only
    # when every r(k) linking neighbours in that window is nonzero
    r: Dict[int, Scalar] = {}
    for k in range(ks[0] - 5, ks[-1] + 7):
        r[k] = _falling_action(m, -1, 1, k)
        if r[k].is_zero():
            raise ZeroDivisionError(f"vanishing rescale denominator at k = {k}")

    def rescaled(raw: Scalar, k: int, i: int) -> Scalar:
        """raw * c_k / c_(k+i), or ValueError when that is not a polynomial."""
        if i >= 0:
            for j in range(k + 1, k + i + 1):
                raw = raw * r[j]
            return raw
        den = one
        for j in range(k + i + 1, k + 1):
            den = den * r[j]
        return raw.exact_div(den)

    p: Dict[Tuple[int, int], Scalar] = {}
    for i in range(-1, 6):
        for k in ks:
            p[(i, k)] = rescaled(_falling_action(m, i, 1, k), k, i)

    q: Dict[int, Scalar] = {}
    for i in range(1, 6):
        vals = []
        for k in ks:
            vals.append(rescaled(_falling_action(m, -i, i, k), k, -i))
        if any(v != vals[0] for v in vals[1:]):
            raise AssertionError(f"Q_{i} depends on k: {[str(v) for v in vals]}")
        q[i] = vals[0]
    if q[1] != one:
        raise AssertionError(f"normalization broken: Q_1 = {q[1]}")

    a = m.alpha[0]
    p1_vals = [p[(1, k)] - rising(a + k, 2) for k in ks]
    p2_vals = [p[(2, k)] - rising(a + k, 3) - 3 * (a + k) * p1_vals[0] for k in ks]
    if any(v != p1_vals[0] for v in p1_vals) or any(v != p2_vals[0] for v in p2_vals):
        raise AssertionError("P_1/P_2 constants depend on k")
    return PQData(m.kind, p, q, p1_vals[0], p2_vals[0])
