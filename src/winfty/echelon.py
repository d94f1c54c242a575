"""Fraction-free Gaussian elimination on sparse integer vectors.

A vector is a map {key: coefficient} with orderable keys; its pivot is its
largest key.  An :class:`Echelon` holds one row per pivot.  Each row is a
primitive integer vector together with the integer combination of inserted
("raw") vectors it equals.  A reduction step replaces v by p*v - c*row, with
p, c the two leading coefficients over their gcd, and then divides out the
content, so no Fraction is built until a solution is read off (after
Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Mapping, Optional, Tuple, Union

IntVec = Dict[Hashable, int]


def integral(vec: Mapping[Hashable, Union[int, Fraction]],
             scale: int = 1) -> Tuple[IntVec, int]:
    """(w, s) with vec / scale == w / s, w integral and s > 0, both divided
    by their common gcd."""
    d = math.lcm(*(c.denominator for c in vec.values()))
    s = scale * d
    w = {k: c.numerator * (d // c.denominator) for k, c in vec.items()}
    g = math.gcd(s, *w.values())
    if g > 1:
        w = {k: c // g for k, c in w.items()}
        s //= g
    return w, s


def _combine(p: int, v: Dict, q: int, w: Dict) -> Dict:
    """p*v + q*w for sparse integer vectors, zeros dropped."""
    out = {k: p * c for k, c in v.items()} if p != 1 else dict(v)
    for k, c in w.items():
        n = out.get(k, 0) + q * c
        if n:
            out[k] = n
        else:
            out.pop(k, None)
    return out


@dataclass
class _Row:
    vec: IntVec  # primitive together with combo; vec[pivot] > 0
    combo: Dict[int, int]  # vec = sum combo[r] * raw[r]


class Echelon:
    """Pivot rows of the span of the raw vectors inserted so far."""

    def __init__(self):
        self._rows: Dict[Hashable, _Row] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: IntVec, combo: Dict[int, int], s: int):
        """Reduce vec = s*target + sum combo[r]*raw[r] by the pivot rows until
        it vanishes or its leading key has no row; s = 0 means no target."""
        while vec:
            pivot = max(vec)
            row = self._rows.get(pivot)
            if row is None:
                return vec, combo, s, pivot
            r, c = row.vec[pivot], vec[pivot]
            g = math.gcd(r, c)
            p, c = r // g, c // g
            vec = _combine(p, vec, -c, row.vec)
            combo = _combine(p, combo, -c, row.combo)
            s *= p
            g = math.gcd(s, *vec.values(), *combo.values())
            if g > 1:
                vec = {k: v // g for k, v in vec.items()}
                combo = {k: v // g for k, v in combo.items()}
                s //= g
        return vec, combo, s, None

    def insert(self, vec: IntVec, s: int, idx: int) -> bool:
        """Record raw vector ``idx``, equal to vec / s, as a new pivot row;
        False (and nothing recorded) if it lies in the span of the rows."""
        red, combo, _s, pivot = self._reduce(vec, {idx: s}, 0)
        if pivot is None:
            return False
        g = math.gcd(*red.values(), *combo.values())
        if red[pivot] < 0:
            g = -g
        self._rows[pivot] = _Row({k: v // g for k, v in red.items()},
                                 {k: v // g for k, v in combo.items()})
        return True

    def solve(self, vec: IntVec, s: int) -> Optional[Dict[int, Fraction]]:
        """The coefficients x with vec / s == sum x[r] * raw[r] (absent
        entries zero), or None if vec is outside the span of the rows."""
        _red, combo, s, pivot = self._reduce(vec, {}, s)
        if pivot is not None:
            return None
        # the reduction reached s*target + sum combo[r]*raw[r] = 0
        return {r: Fraction(-c, s) for r, c in combo.items()}
