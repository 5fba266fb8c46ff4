"""Picard lattice of the plane blown up in four general points, the
ten-curve branch configuration, and the first homology of its complement.

Divisor classes live in the basis (H, E0, E1, E2, E3) with the diagonal
intersection form (+1, -1, -1, -1, -1).  The branch configuration is the
complete quadrangle: the six lines through the four points together with
the four exceptional curves, in the frozen order

    L1', L2', L3', L1, L2, L3, E0, E1, E2, E3

where Lj' is the strict transform of the line through P0 and Pj, and Lj
the one through Pi and Pk ({i,j,k} = {1,2,3}).  Every 10-vector in this
package (loop images, branch coefficients, monomial exponents) uses this
order.

Y is the quintic del Pezzo surface and the ten curves are its ten
(-1)-curves.  Its automorphism group Sym(5) permutes them as it permutes
the 2-subsets of {0, ..., 4} (Hirzebruch, Arrangements of lines and
algebraic surfaces, 1983): CURVE_PAIRS labels each curve by one, two
curves meet exactly when their labels are disjoint, and exchanging the
point P0 with Ph is the transposition (0 h).  H1 of the complement of
the ten curves is the cokernel of the matrix pairing them with (H, E0,
..., E3) (Pardini 1991), whose columns relate the loops around them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import exact

BASIS_LABELS = ("H", "E0", "E1", "E2", "E3")
CURVE_LABELS = ("L1'", "L2'", "L3'", "L1", "L2", "L3", "E0", "E1", "E2", "E3")
CURVE_PAIRS = (
    (2, 3), (1, 3), (1, 2), (1, 4), (2, 4), (3, 4), (0, 4), (0, 1), (0, 2), (0, 3),
)


class DivClass(NamedTuple):
    """Divisor class h*H + e0*E0 + ... + e3*E3.

    Tuple concatenation semantics of + and * are replaced by vector
    arithmetic.
    """

    h: int
    e0: int
    e1: int
    e2: int
    e3: int

    def __add__(self, other):
        return DivClass(*(a + b for a, b in zip(self, other)))

    def __sub__(self, other):
        return DivClass(*(a - b for a, b in zip(self, other)))

    def __neg__(self):
        return DivClass(*(-a for a in self))

    def __mul__(self, c):
        if isinstance(c, tuple):
            raise TypeError("use intersect() to pair divisor classes")
        return DivClass(*(c * a for a in self))

    __rmul__ = __mul__

    def format(self) -> str:
        """Human form like '3H - E0 - 2E1', '0' for the trivial class."""
        parts = []
        for coef, label in zip(self, BASIS_LABELS):
            if not coef:
                continue
            mag = abs(coef)
            body = label if mag == 1 else f"{mag}{label}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


ZERO = DivClass(0, 0, 0, 0, 0)
H = DivClass(1, 0, 0, 0, 0)
E = (
    DivClass(0, 1, 0, 0, 0),
    DivClass(0, 0, 1, 0, 0),
    DivClass(0, 0, 0, 1, 0),
    DivClass(0, 0, 0, 0, 1),
)


def intersect(a, b):
    """Intersection number under the diagonal form h*h - sum(e_i*e_i)."""
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3] - a[4] * b[4]


def canonical_class() -> DivClass:
    """K = -3H + E0 + E1 + E2 + E3 (blow-up of the plane in four points)."""
    return DivClass(-3, 1, 1, 1, 1)


class BranchCurve(NamedTuple):
    label: str
    cls: DivClass


class Configuration(NamedTuple):
    """The ten branch curves in frozen order plus their incidence pairs."""

    curves: tuple[BranchCurve, ...]
    incidences: frozenset[tuple[int, int]]

    def total_branch_class(self) -> DivClass:
        return sum((c.cls for c in self.curves), ZERO)


@lru_cache(maxsize=None)
def configuration() -> Configuration:
    curves = []
    for j in (1, 2, 3):
        curves.append(BranchCurve(f"L{j}'", H - E[0] - E[j]))
    for j in (1, 2, 3):
        i, k = [x for x in (1, 2, 3) if x != j]
        curves.append(BranchCurve(f"L{j}", H - E[i] - E[k]))
    for h in range(4):
        curves.append(BranchCurve(f"E{h}", E[h]))
    pairs = frozenset(
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if intersect(curves[i].cls, curves[j].cls) == 1
    )
    return Configuration(tuple(curves), pairs)


def incidences() -> frozenset[tuple[int, int]]:
    """The 15 unordered index pairs of branch curves meeting in a point."""
    return configuration().incidences


def intersection_matrix() -> list[list[int]]:
    """10x5 matrix of pairings of each branch curve with (H, E0..E3)."""
    basis = (H,) + E
    return [[intersect(c.cls, b) for b in basis] for c in configuration().curves]


class H1Presentation(NamedTuple):
    """Cokernel data of the restriction map from the lattice to the span
    of the branch curves, i.e. the first homology of the complement."""

    rank: int
    torsion: tuple[int, ...]
    relations: tuple[tuple[int, ...], ...]


# The loop relations, on (l1', l2', l3', l1, l2, l3, e0, ..., e3): row
# h < 4, minus the Eh column of the intersection matrix, writes eh as the
# sum of the loops of the three lines through Ph (covers.LOOP_SLOTS reads
# them); row 4, the H column, says the six line loops sum to zero.
_COLUMNS = tuple(zip(*intersection_matrix()))
LOOP_RELATIONS = tuple(tuple(-x for x in c) for c in _COLUMNS[1:]) + _COLUMNS[:1]


def h1_complement() -> H1Presentation:
    """Free rank and torsion of H1 of the complement, from the invariant
    factors of the intersection matrix, and the loop relations."""
    r = intersection_matrix()
    factors = exact.invariant_factors(r)
    rank = len(r) - len(factors)
    torsion = tuple(f for f in factors if f != 1)
    return H1Presentation(rank, torsion, LOOP_RELATIONS)
