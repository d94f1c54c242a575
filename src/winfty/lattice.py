"""Finitely generated lattices in Q^n: membership, nondegeneracy, inner product.

A lattice is a free abelian group Z^r embedded in Q^n by a list of
Z-linearly independent generator vectors.  Because the generators are also
Q-linearly independent, a vector has at most one rational coordinate vector.
The constructor eliminates the generators once into a fraction-free echelon
(:mod:`winfty.echelon`) whose rows remember their generator combinations;
membership reduces one vector against those rows and checks that the
coordinates it reads off are integers (no Hermite normal form machinery is
needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .echelon import Echelon, integral

Vector = Tuple[Fraction, ...]


def _rational(x) -> Fraction:
    # a float would store its binary expansion, a string would be parsed
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"coordinates must be int or Fraction, "
                        f"got {type(x).__name__} {x!r}")
    return Fraction(x)


def _as_vector(v: Sequence) -> Vector:
    return tuple(map(_rational, v))


def _sparse(v: Vector) -> Dict[int, Fraction]:
    return {i: x for i, x in enumerate(v) if x}


class Lattice:
    """Gamma = Z g_1 + ... + Z g_r inside Q^n, generators Z-independent."""

    def __init__(self, generators: Sequence[Sequence]):
        gens = [_as_vector(g) for g in generators]
        if not gens:
            raise ValueError("lattice needs at least one generator")
        dim = len(gens[0])
        if any(len(g) != dim for g in gens):
            raise ValueError("generators have mixed dimensions")
        self._echelon = Echelon()
        for idx, g in enumerate(gens):
            if not self._echelon.insert(*integral(_sparse(g)), idx):
                raise ValueError("generators are Z-linearly dependent")
        self.dim = dim
        self.rank = len(gens)
        self.generators = tuple(gens)

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        """Z^n with the unit-vector generators."""
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __repr__(self):
        return f"Lattice({[tuple(map(str, g)) for g in self.generators]})"

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def ambient(self, coords: Sequence[int]) -> Vector:
        """Map integer coordinates to the ambient rational vector."""
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        out = [Fraction(0)] * self.dim
        for c, g in zip(coords, self.generators):
            for i in range(self.dim):
                out[i] += c * g[i]
        return tuple(out)

    def membership(self, v: Sequence) -> Optional[Tuple[int, ...]]:
        """Integer coordinates x with G x = v, or None if v is not in Gamma."""
        v = _as_vector(v)
        if len(v) != self.dim:
            raise ValueError(f"vector has dimension {len(v)}, lattice is in Q^{self.dim}")
        x = self._echelon.solve(*integral(_sparse(v)))
        if x is None or any(c.denominator != 1 for c in x.values()):
            return None
        coords = tuple(int(x.get(r, 0)) for r in range(self.rank))
        if self.ambient(coords) != v:
            return None
        return coords

    def nondegenerate(self) -> bool:
        """True iff the generators span Q^n, i.e. contain a basis of F^n."""
        return len(self._echelon) == self.dim


@dataclass(frozen=True)
class Direction:
    """An element d = sum d_i D_i of the span of the degree operators."""

    coeffs: Tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs: Sequence) -> "Direction":
        return cls(_as_vector(coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)


def inner(beta: Sequence, d: Direction) -> Fraction:
    """The pairing <beta, d> = sum_i beta_i d_i."""
    bvec = _as_vector(beta)
    if len(bvec) != d.dim:
        raise ValueError(f"dimension mismatch: {len(bvec)} vs {d.dim}")
    return sum((b * c for b, c in zip(bvec, d.coeffs)), Fraction(0))
