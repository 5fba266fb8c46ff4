"""Character sheaves of a cover datum, section counts, and surface
invariants.

Each character (a, b) pins down a divisor class: n times the class is
the sum of the branch curves weighted by the residues of the character
on the corresponding loop images (delta residues on the L' curves,
lambda on the L curves, mu on the exceptional curves).  Global sections
of such classes are counted by exact linear algebra: curves of degree d
in the plane with assigned multiplicities at the four base points of the
blow-up.  Everything downstream (geometric genus, irregularity, the
canonical basis) is assembled from these counts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from . import exact
from .covers import SixTuple, loop_image_rows, loop_images, require_admissible
from .gf import DEFAULT_MODULUS, Vec2, chi_eval, reduce_vec, vadd
from .picard import DivClass, ZERO, canonical_class, configuration, intersect


class CoeffVector(NamedTuple):
    """Residues of one character on the ten branch loops, in
    configuration order."""

    delta1: int
    delta2: int
    delta3: int
    lambda1: int
    lambda2: int
    lambda3: int
    mu0: int
    mu1: int
    mu2: int
    mu3: int


class CharacterSheaf(NamedTuple):
    chi: Vec2
    cls: DivClass


class SurfaceInvariants(NamedTuple):
    k2: int
    chi: int
    pg: int
    q: int


class RamCurve(NamedTuple):
    label: str
    selfint: int
    kdot: int
    genus: int


class CoverRelation(NamedTuple):
    """One fibre-coordinate relation of the embedded cover: the product
    of the coordinates for chi and chi2 equals the branch sections raised
    to sigma_exponents times the coordinate for rhs = chi + chi2."""

    chi: Vec2
    chi2: Vec2
    sigma_exponents: tuple[int, ...]
    rhs: Vec2

    def format(self) -> str:
        sigma = "".join(
            f"s{i + 1}" if e == 1 else ""
            for i, e in enumerate(self.sigma_exponents)
        )
        lhs = "w[{},{}]*w[{},{}]".format(*self.chi, *self.chi2)
        return "{} = {}w[{},{}]".format(lhs, sigma + "*" if sigma else "", *self.rhs)


def coeffs(t: SixTuple, chi: Vec2, n=DEFAULT_MODULUS) -> CoeffVector:
    """The ten residues of a character on the loop images of a tuple."""
    return CoeffVector(*(chi_eval(chi, img, n) for img in loop_images(t, n)))


def sheaf(t: SixTuple, chi: Vec2, n=DEFAULT_MODULUS) -> CharacterSheaf:
    """The divisor class of the chi-eigensheaf of the cover given by t.

    n times the class equals the coefficient-weighted sum of the branch
    curve classes; the division is asserted to be exact.
    """
    weighted = ZERO
    for c, curve in zip(coeffs(t, chi, n), configuration().curves):
        weighted = weighted + c * curve.cls
    if any(x % n for x in weighted):
        raise ArithmeticError(
            f"weighted branch sum {weighted} for chi={chi} is not divisible by {n}"
        )
    return CharacterSheaf(reduce_vec(chi, n), DivClass(*(x // n for x in weighted)))


def sheaf_table(t: SixTuple, n=DEFAULT_MODULUS) -> list[CharacterSheaf]:
    """All n^2 character sheaves, rows by b with a varying inside."""
    return [sheaf(t, (a, b), n) for b in range(n) for a in range(n)]


_POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def _falling(a, k):
    out = 1
    for i in range(k):
        out *= a - i
    return out


def _multi_indices(order):
    return [
        (i, j, k)
        for total in range(order)
        for i in range(total + 1)
        for j in range(total - i + 1)
        for k in (total - i - j,)
    ]


@lru_cache(maxsize=None)
def h0(c: DivClass) -> int:
    """Dimension of global sections of a class d*H - sum(m_i E_i).

    Identified with plane curves of degree d having multiplicity m_i at
    the four fixed points (1:0:0), (0:1:0), (0:0:1), (1:1:1): the count
    of degree-d monomials minus the rank of all partial-derivative
    vanishing conditions of order below m_i, over exact rationals.
    Negative d gives 0; negative multiplicities are dropped (exceptional
    fixed components do not constrain sections).
    """
    d = c.h
    if d < 0:
        return 0
    mults = [max(-e, 0) for e in c[1:]]
    monos = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    rows = []
    for point, m in zip(_POINTS, mults):
        for alpha in _multi_indices(m):
            row = []
            for expo in monos:
                coef = 1
                for a, o, p in zip(expo, alpha, point):
                    coef *= _falling(a, o) * p ** max(a - o, 0)
                row.append(coef)
            rows.append(row)
    return len(monos) - exact.rational_rank(rows)


def _adjunction_class(n):
    """K_Y + (n-1)/n D with D the total branch class; its pullback is the
    canonical class of the cover (every branch curve ramifies with index n)."""
    return canonical_class() + Fraction(n - 1, n) * configuration().total_branch_class()


def invariants(t: SixTuple, n=DEFAULT_MODULUS) -> SurfaceInvariants:
    """Holomorphic invariants of the smooth cover given by an admissible
    tuple: K^2 = n^2 (K_Y + (n-1)/n D)^2 in exact rationals, p_g summed
    from the twisted canonical section counts, q = p_g + 1 - chi.

    chi = 5 is a constant of the quadrangle construction, so only the
    default modulus is supported here.
    """
    require_admissible(t, n)
    if n != 5:
        raise ValueError("surface invariants are only defined for modulus 5")
    ky = canonical_class()
    pg = sum(h0(ky + sheaf(t, (a, b), n).cls) for a in range(n) for b in range(n))
    chi_o = 5
    adj = _adjunction_class(n)
    k2 = n * n * intersect(adj, adj)
    if k2.denominator != 1:
        raise AssertionError("K^2 of the cover is not an integer")
    return SurfaceInvariants(k2=int(k2), chi=chi_o, pg=pg, q=pg + 1 - chi_o)


def ram_curve_numbers(t: SixTuple, n=DEFAULT_MODULUS) -> tuple[RamCurve, ...]:
    """Numerics of the ten ramification curves upstairs: self-intersection
    equals the branch curve's, K.R comes from the projection formula, and
    the genus from adjunction."""
    require_admissible(t, n)
    adj = _adjunction_class(n)
    out = []
    for label, cls in configuration().curves:
        selfint = intersect(cls, cls)
        kdot = n * intersect(adj, cls)
        if kdot.denominator != 1:
            raise AssertionError(f"K.R is not an integer on {label}")
        kdot = int(kdot)
        if (selfint + kdot) % 2:
            raise AssertionError(f"adjunction parity fails on {label}")
        out.append(RamCurve(label, selfint, kdot, (selfint + kdot) // 2 + 1))
    return tuple(out)


def char_order(chi: Vec2, n=DEFAULT_MODULUS) -> int:
    a, b = reduce_vec(chi, n)
    return n // gcd(a, b, n)


def epsilon(t: SixTuple, chi: Vec2, chi2: Vec2, n=DEFAULT_MODULUS) -> tuple[int, ...]:
    """The carry vector of a character pair: 1 on the branch curves where
    the weighted residues of chi and chi2 overflow past the common order.

    With d, d' the character orders, M their lcm and lam = M/d,
    lam' = M/d', the i-th entry is 1 iff lam*D_i + lam'*D'_i >= M, where
    D, D' are the branch residues scaled down to Z/d resp. Z/d'.
    """
    return _carry(chi, coeffs(t, chi, n), chi2, coeffs(t, chi2, n), n)


def _carry(chi, c1, chi2, c2, n) -> tuple[int, ...]:
    """epsilon for given residue rows c1 of chi and c2 of chi2."""
    d1 = char_order(chi, n)
    d2 = char_order(chi2, n)
    m = lcm(d1, d2)
    lam1, lam2 = m // d1, m // d2
    step1, step2 = n // d1, n // d2
    out = []
    for r1, r2 in zip(c1, c2):
        if r1 % step1 or r2 % step2:
            raise AssertionError("branch residue incompatible with character order")
        out.append(1 if lam1 * (r1 // step1) + lam2 * (r2 // step2) >= m else 0)
    return tuple(out)


def cover_equations(t: SixTuple, n=DEFAULT_MODULUS) -> tuple[CoverRelation, ...]:
    """The fibre-coordinate relations cutting out the cover inside the
    total space of the nontrivial eigensheaves: one relation per
    unordered pair of nontrivial characters (with repetition)."""
    require_admissible(t, n)
    chars = [(a, b) for a in range(n) for b in range(n) if (a, b) != (0, 0)]
    rows = {chi: coeffs(t, chi, n) for chi in chars}
    out = []
    for i, chi in enumerate(chars):
        for chi2 in chars[i:]:
            out.append(
                CoverRelation(
                    chi=chi,
                    chi2=chi2,
                    sigma_exponents=_carry(chi, rows[chi], chi2, rows[chi2], n),
                    rhs=vadd(chi, chi2, n=n),
                )
            )
    return tuple(out)


def pg_values(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """Geometric genus for every residue row of an (N, 12) array at once.

    Exhaustively asserts sheaf integrality along the way.  Used for
    orbit-invariance sweeps over the full admissible set.
    """
    images = loop_image_rows(rows, n)
    cls_rows = np.array(
        [curve.cls for curve in configuration().curves], dtype=np.int64
    )
    ky = np.array(canonical_class(), dtype=np.int64)
    pg = np.zeros(len(images), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            coeff = images @ np.array([a, b])
            coeff %= n
            weighted = coeff @ cls_rows
            if (weighted % n).any():
                raise ArithmeticError(f"sheaf integrality fails for chi=({a},{b})")
            shifted = weighted // n + ky
            # one int64 key per class: mixed radix over the column ranges
            low = shifted.min(axis=0)
            radix = np.cumprod(np.concatenate([[1], shifted.max(axis=0)[:-1] - low[:-1] + 1]))
            keys = (shifted - low) @ radix
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            vals = np.array([h0(DivClass(*map(int, shifted[i]))) for i in first], dtype=np.int64)
            pg += vals[inverse]
    return pg
