"""Finitely generated lattices in Q^n: membership and the inner product.

A lattice is a free abelian group Z^r embedded in Q^n by a list of
Z-linearly independent generator vectors.  Because the generators are also
Q-linearly independent, a vector has at most one rational coordinate vector.
The constructor eliminates the generators once into a fraction-free echelon
(:mod:`winfty.echelon`) whose rows remember their generator combinations;
membership reduces one vector against those rows and checks that the
coordinates it reads off are integers (no Hermite normal form machinery is
needed); Weyl.coords admits every grade through it.  The lattice never
changes, so it stores each vector's answer, member or not, and each
coordinate tuple's ambient vector, and a repeated vector is not eliminated again.

Every grade has one form, written by ``_canonical``: a coordinate is an int
when it is integral and a Fraction with denominator > 1 otherwise.  Since
3 == Fraction(3) and both hash alike, the form never changes which keys are
equal; it only spares integral keys the pure-Python Fraction hash.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .echelon import Echelon, integral
from .scalars import Rat, _check_rational

Vector = Tuple[Rat, ...]  # canonical coordinates (see _canonical)


def _canonical(x: Rat) -> Rat:
    """The one form of a grade coordinate: an int when x is integral, else the
    Fraction x (denominator > 1)."""
    return x.numerator if x.denominator == 1 else x


def _rational(x) -> Rat:
    _check_rational(x, "coordinates")
    return _canonical(x)


def _integers(v: Sequence) -> Tuple[int, ...]:
    # int() would truncate 1.7 and parse "2"; operator.index raises TypeError
    # for anything but an integer (a Fraction included)
    return tuple(map(operator.index, v))


def _as_vector(v: Sequence) -> Vector:
    return tuple(map(_rational, v))


def _sparse(v: Vector) -> Dict[int, Rat]:
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
        self._coords: Dict[Vector, Optional[Tuple[int, ...]]] = {}
        self._ambient: Dict[Tuple[int, ...], Vector] = {}

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
        coords = _integers(coords)
        v = self._ambient.get(coords)
        if v is not None:
            return v
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        out = [0] * self.dim
        for c, g in zip(coords, self.generators):
            for i in range(self.dim):
                out[i] += c * g[i]
        v = self._ambient[coords] = tuple(map(_canonical, out))
        return v

    def membership(self, v: Sequence) -> Optional[Tuple[int, ...]]:
        """Integer coordinates x with G x = v, or None if v is not in Gamma."""
        v = _as_vector(v)
        if len(v) != self.dim:
            raise ValueError(f"vector has dimension {len(v)}, lattice is in Q^{self.dim}")
        coords = self._coords.get(v)
        if coords is None and v not in self._coords:
            x = self._echelon.solve(*integral(_sparse(v)))
            if x is not None and all(c.denominator == 1 for c in x.values()):
                coords = tuple(int(x.get(r, 0)) for r in range(self.rank))
            self._coords[v] = coords
        return coords


def inner(beta: Sequence, d: Sequence) -> Fraction:
    """The pairing <beta, d> = sum_i beta_i d_i of two rational vectors."""
    bvec, dvec = _as_vector(beta), _as_vector(d)
    if len(bvec) != len(dvec):
        raise ValueError(f"dimension mismatch: {len(bvec)} vs {len(dvec)}")
    return sum((b * c for b, c in zip(bvec, dvec)), Fraction(0))
