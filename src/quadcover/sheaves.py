"""Character sheaves of a cover datum, section counts, and surface
invariants.

Each character (a, b) pins down a divisor class L: n L is the sum of the
branch curves weighted by the residues of the character on the loop
images (delta residues on the L' curves, lambda on the L curves, mu on
the exceptional curves).  character_table evaluates all n^2 characters
on a batch of tuples in one product; every per-character quantity here
and in `canonical` is read from it.  The per-tuple calls read one memo,
_evaluation, of the last tuple read: its admissibility check and its one-row table.

Y, the plane blown up in four general points, is the del Pezzo surface of degree 5: -K_Y is ample and
its ten (-1)-curves, the branch curves, span the effective cone.  So h0 has a closed form: peel off the
branch curves a class meets negatively (fixed components), then Riemann-Roch with vanishing higher
cohomology.  Every character class, whatever n, lies in one box of 486 classes, and p_g and chi(O_X) of
the cover sum over the character classes two numbers read from one table of that box: _sums is that
one sum, over one tuple's memo in invariants and over batches of rows in _pg_chi.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .covers import (
    CHUNK, AdmissibilityCheck, SixTuple, check_admissibility, check_bytes, loop_image_rows, normal_form_index,
    normal_forms, require_admissible,
)
from .gf import DEFAULT_MODULUS, Vec2, frozen, reduce_rows, reduce_vec, require_prime
from .picard import DivClass, canonical_class, configuration, intersect


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
        sigma = "".join(f"s{i + 1}" for i, e in enumerate(self.sigma_exponents) if e)
        lhs = "w[{},{}]*w[{},{}]".format(*self.chi, *self.chi2)
        return "{} = {}w[{},{}]".format(lhs, sigma + "*" if sigma else "", *self.rhs)


class CharacterTable(NamedTuple):
    """The n^2 characters (a, b) on N residue rows, b-major (k = b n + a):
    residues (N, n^2, 10) on the ten loop images, and classes (N, n^2, 5),
    n L the residue-weighted branch sum W = sum r_i C_i, rounded down.
    n divides W exactly when chi kills the sum of the six slots: the
    E-coordinates of W are the loop relations, zero mod n, and its
    H-coordinate is chi(sum of slots) mod n.  So every class of a row is
    integral exactly when the row meets admissibility's condition 0."""

    residues: np.ndarray
    classes: np.ndarray


CURVE_CLASSES = np.array([curve.cls for curve in configuration().curves], dtype=np.int64)
_KY = np.array(canonical_class(), dtype=np.int64)


@lru_cache(maxsize=None)
def _characters(n) -> np.ndarray:
    """The n^2 characters (a, b), b-major, as a read-only (n^2, 2) array."""
    return frozen(np.stack(np.divmod(np.arange(n * n), n)[::-1], axis=1))


def _residues(rows, n) -> np.ndarray:
    """(N, n^2, 10) int32 residues of every character on the loop images of
    an (N, 12) array of residue rows: the only code that evaluates characters."""
    values = (_characters(n).astype(float) @ loop_image_rows(rows, n).swapaxes(1, 2).astype(float)).astype(np.int32)
    return values - values // n * n  # numpy divides by a scalar far faster than it takes a remainder


def character_table(rows, n=DEFAULT_MODULUS) -> CharacterTable:
    """Every character on the loop images of an (N, 12) array of residue
    rows, and its class, both int64.  Both products run on float64
    operands, which numpy hands to BLAS (its integer matmul has none, nor
    has a matmul of mixed dtypes, and either takes 2-3 times as long);
    every value is an integer far below 2^53, so each is exact."""
    residues = _residues(rows, n)
    classes = (residues.astype(float) @ CURVE_CLASSES.astype(float)).astype(np.int32) // n
    return CharacterTable(residues.astype(np.int64), classes.astype(np.int64))


def _index(chi: Vec2, n) -> int:
    return chi[0] % n + n * (chi[1] % n)


# bytes a character: the memo's one entry (int64 residues, classes and section counts) and _characters(n)
# (derived), and one build of _evaluation (measured); the line table has its own bound
_CHARACTER_BYTES = (10 + 5 + 2) * 8 + 2 * 8 + 240


def check_sheaf_table(n):
    """ValueError, from 569 on, when the memo and sheaf_table's records, 448 bytes a character
    (measured), would exceed MAX_ARRAY_BYTES."""
    check_bytes(n * n * (_CHARACTER_BYTES + 448), n, f"{n * n} characters per tuple")


@lru_cache(maxsize=1)
def _evaluation(residues, n) -> tuple[AdmissibilityCheck, CharacterTable, np.ndarray | None]:
    """The admissibility check of a residue row, read once through reduce_rows, its one-row character
    table and, when the row meets condition 0 (every class integral), the class_numbers of its n^2 classes,
    which invariants sums through _sums as _pg_chi sums a batch's; every array read-only.  The per-tuple
    calls that read characters read it, and callers read one tuple at a time, so it holds the last tuple
    only: the calls of one query check and evaluate the characters once; each makes its own refusals from
    it.  ValueError, from 829 on and before anything is built, when the held entry (derived) and one build
    (measured) would exceed MAX_ARRAY_BYTES (_CHARACTER_BYTES)."""
    check_bytes(n * n * _CHARACTER_BYTES, n, f"{n * n} characters per tuple")
    row = reduce_rows((residues,), n)
    check, table = check_admissibility(row, n), CharacterTable(*map(frozen, character_table(row, n)))
    return check, table, None if check.condition == 0 else frozen(class_numbers(table.classes[0]))


def _integral(t: SixTuple, n, k=None) -> tuple[CharacterTable, np.ndarray | None]:
    """The table and class_numbers of t; ArithmeticError when the class of
    character k = b n + a is not integral, or by default at the first class
    that is not."""
    _, table, numbers = _evaluation(t.residues, n)
    if numbers is None:
        fractional = table.residues[0, :, :6].sum(axis=1) % n != 0  # chi(sum of slots) != 0
        k = int(fractional.argmax()) if k is None else k
        if fractional[k]:
            weighted = DivClass(*(table.residues[0, k] @ CURVE_CLASSES).tolist())
            raise ArithmeticError(f"weighted branch sum {weighted} for chi={(k % n, k // n)} is not divisible by {n}")
    return table, numbers


def _admitted(t: SixTuple, n) -> tuple[CharacterTable, np.ndarray]:
    """The table and class_numbers of t; ValueError with the reason when t is not admissible."""
    check, table, numbers = _evaluation(t.residues, n)
    check.require(t)
    return table, numbers


def coeffs(t: SixTuple, chi: Vec2, n=DEFAULT_MODULUS) -> CoeffVector:
    """The ten residues of a character on the loop images of a tuple."""
    return CoeffVector(*_evaluation(t.residues, n)[1].residues[0, _index(chi, n)].tolist())


def sheaf(t: SixTuple, chi: Vec2, n=DEFAULT_MODULUS) -> CharacterSheaf:
    """The divisor class of the chi-eigensheaf of the cover given by t;
    ArithmeticError when n does not divide its weighted branch sum."""
    k = _index(chi, n)
    return CharacterSheaf(reduce_vec(chi, n), DivClass(*_integral(t, n, k)[0].classes[0, k].tolist()))


def sheaf_table(t: SixTuple, n=DEFAULT_MODULUS) -> list[CharacterSheaf]:
    """All n^2 character sheaves, rows by b with a varying inside."""
    check_sheaf_table(n)
    classes = _integral(t, n)[0].classes[0].tolist()
    pairs = zip(map(tuple, _characters(n).tolist()), map(DivClass._make, classes))
    return list(map(tuple.__new__, repeat(CharacterSheaf), pairs))


# D @ _DUALS.T pairs a class D with each branch curve, D @ _ANTI gives -K.D
_FORM = np.array([1, -1, -1, -1, -1])
_DUALS = CURVE_CLASSES * _FORM
_ANTI = -_KY * _FORM


def _h0_rows(classes) -> np.ndarray:
    """Dimension of the global sections of every class of an (M, 5) array.

    A class D with -K.D < 0 has none, -K being ample.  A branch curve C
    with D.C < 0 is a fixed component, and so are all such curves at
    once, being distinct and irreducible: h0(D) = h0(D - their sum), and
    each such step lowers -K.D by at least one.  Otherwise D is nef,
    D - K is ample, h1 and h2 vanish (Kawamata-Viehweg) and Riemann-Roch
    gives 1 + D.(D - K)/2.
    """
    c = np.array(classes, dtype=np.int64).reshape(-1, 5)
    while True:
        fixed = (c @ _DUALS.T < 0) & (c @ _ANTI >= 0)[:, None]
        if not fixed.any():
            break
        c -= fixed @ CURVE_CLASSES
    return np.where(c @ _ANTI < 0, 0, 1 + (c * _FORM * (c - _KY)).sum(axis=1) // 2)


@lru_cache(maxsize=None)
def h0(c: DivClass) -> int:
    """Dimension of the global sections of a class on Y (see _h0_rows)."""
    return int(_h0_rows([c])[0])


# Every character class L = (sum of r_i C_i)/n with 0 <= r_i < n lies in
# one box, whatever n is: its H-coefficient sums the six line residues
# over n, so lies in [0, 5], and its E_j-coefficient is r(E_j) less the
# residues of the three lines through P_j, over n, so lies in [-2, 0].
_BOX_LOW = np.array([0, -2, -2, -2, -2])
_BOX_SPAN = np.array([5, 2, 2, 2, 2], dtype=np.uint64)
_BOX_STRIDES = np.array([81, 27, 9, 3, 1])


@lru_cache(maxsize=None)
def _class_table() -> np.ndarray:
    """Read-only (486, 2) int64 table of h0(K_Y + L) and L.(L + K_Y)/2 for
    every class L of the box, at key (L - _BOX_LOW) @ _BOX_STRIDES; a
    constant of Y, built once per process."""
    box = np.stack(np.unravel_index(np.arange(486), (6, 3, 3, 3, 3)), axis=1) + _BOX_LOW
    table = np.stack([_h0_rows(box + _KY), (box * _FORM * (box + _KY)).sum(axis=1) // 2], axis=1)
    return frozen(table)


def class_numbers(classes) -> np.ndarray:
    """h0(K_Y + L) and L.(L + K_Y)/2, on the last axis, for every class L of an (..., 5) int array: one
    key product and one gather from _class_table.  ValueError for a class outside the box, which no
    character class is."""
    classes = np.asarray(classes, dtype=np.int64)
    # one row a coordinate: numpy is about twice as slow along a last axis of length 5
    offset = np.subtract(classes.reshape(-1, 5).T, _BOX_LOW[:, None], order="C")
    # a negative offset reads as a huge unsigned one, so one comparison bounds both sides
    outside = offset.view(np.uint64) > _BOX_SPAN[:, None]
    if outside.any():
        first = DivClass(*(offset[:, outside.any(axis=0)][:, 0] + _BOX_LOW).tolist())
        raise ValueError(f"class {first.format()} is outside the box of character classes")
    key = (_BOX_STRIDES @ offset).reshape(classes.shape[:-1])
    return _class_table().take(key, axis=0)  # far faster than [] on two columns


@lru_cache(maxsize=None)
def adjunction_class(n) -> DivClass:
    """n K_Y + (n-1) D, D the total branch class: n times the class that
    pulls back to K of the cover (each branch curve ramifies with index n)."""
    return n * canonical_class() + (n - 1) * configuration().total_branch_class()


def _sums(numbers, n) -> np.ndarray:
    """p_g and chi(O_X), on the last axis, of class_numbers (..., n^2, 2): the one sum over the characters,
    as pi_* K_X and pi_* O_X sum the K_Y + L and the L^-1, and chi(L^-1) = 1 + L.(L + K_Y)/2 (Pardini 1991)."""
    return np.ones(n * n, dtype=np.int64) @ numbers + (0, n * n)  # ten times faster than sum(axis=-2)


def _pg_chi(rows, n) -> np.ndarray:
    """(N, 2) int64 p_g and chi(O_X) of (N, 12) residue rows, 2^20 table residues at a time.  The rows must
    be admissible, which is not checked: a row that fails condition 0 has floored, non-integral classes.
    Orbit representatives and normal forms are admissible by construction."""
    rows, step = np.asarray(rows).reshape(-1, 12), (1 << 20) // (10 * n * n)
    out = np.empty((len(rows), 2), dtype=np.int64)
    for i in range(0, len(rows), step):
        classes = character_table(rows[i:i + step], n).classes  # kept till rebound, lest glibc trim the heap
        out[i:i + step] = _sums(class_numbers(classes), n)
    return out


def _invariants(pg, chi_o, n) -> SurfaceInvariants:
    adj = adjunction_class(n)
    return SurfaceInvariants(k2=intersect(adj, adj), chi=chi_o, pg=pg, q=pg + 1 - chi_o)


def invariants(t: SixTuple, n=DEFAULT_MODULUS) -> SurfaceInvariants:
    """K^2 = (n K_Y + (n-1) D)^2, chi(O_X), p_g and q = p_g + 1 - chi of the cover given by an admissible t."""
    return _invariants(*_sums(_admitted(t, n)[1], n).tolist(), n)


def ram_curve_numbers(t: SixTuple, n=DEFAULT_MODULUS) -> tuple[RamCurve, ...]:
    """Numerics of the ten ramification curves upstairs: self-intersection
    equals the branch curve's, K.R comes from the projection formula, and
    the genus from adjunction.  They depend on n alone; t must be admissible."""
    require_admissible(t, n)
    adj = adjunction_class(n)
    out = []
    for label, cls in configuration().curves:
        selfint = intersect(cls, cls)
        kdot = intersect(adj, cls)
        if (selfint + kdot) % 2:
            raise AssertionError(f"adjunction parity fails on {label}")
        out.append(RamCurve(label, selfint, kdot, (selfint + kdot) // 2 + 1))
    return tuple(out)


def epsilon(t: SixTuple, chi: Vec2, chi2: Vec2, n=DEFAULT_MODULUS) -> tuple[int, ...]:
    """The carry vector of a character pair: entry i is Pardini's
    floor((r_i(chi) + r_i(chi2)) / p), r_i the residues on branch curve i,
    whose inertia group has order p (its loop image is a nonzero vector of
    (Z/p)^2).  So the carry is r_i(chi) + r_i(chi2) >= p; n must be prime."""
    require_prime(n)
    rows = _evaluation(t.residues, n)[1].residues[0]
    return tuple((rows[_index(chi, n)] + rows[_index(chi2, n)] >= n).astype(int).tolist())


# bytes a character pair of cover_equations (measured): the cached positions
# and heads, and its record
_PAIR_BYTES = 512


@lru_cache(maxsize=None)
def _character_pairs(n):
    """The pairs of nontrivial characters, with repetition, ordered by (a, b):
    the (3, pairs) positions b n + a of chi, chi2 and chi + chi2 in the character
    table, and those characters as tuples.  ValueError, before anything is
    built, when the pairs would hold more than MAX_ARRAY_BYTES (from 37 on; _PAIR_BYTES, measured)."""
    pairs = (n * n - 1) * n * n // 2
    check_bytes(pairs * _PAIR_BYTES, n, f"{pairs} character pairs")
    chars = np.stack(np.divmod(np.arange(1, n * n), n), axis=1)
    first, second = (chars[k] for k in np.triu_indices(len(chars)))
    columns = np.stack([first, second, (first + second) % n])
    return frozen(columns @ (1, n)), tuple(tuple(map(tuple, c.tolist())) for c in columns)


# the carry tuple of every 10-bit code: entry i is bit i
_CARRIES = tuple(bits[::-1] for bits in product((0, 1), repeat=10))
_BITS = 1 << np.arange(10)


def cover_equations(t: SixTuple, n=DEFAULT_MODULUS) -> tuple[CoverRelation, ...]:
    """The fibre-coordinate relations cutting out the cover inside the
    total space of the nontrivial eigensheaves: one relation per
    unordered pair of nontrivial characters (with repetition)."""
    require_prime(n)
    columns, (chi, chi2, rhs) = _character_pairs(n)
    rows = _admitted(t, n)[0].residues[0]
    # r_i(chi) + r_i(chi2) - r_i(chi + chi2) is n times carry i
    eps = itemgetter(*((1, 1, -1) @ (rows @ _BITS)[columns] // n).tolist())(_CARRIES)
    return tuple(map(tuple.__new__, repeat(CoverRelation), zip(chi, chi2, eps, rhs)))


def pg_values(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """Geometric genus of every row of an (N, 12) array of residue rows.  A row is g.f for its normal form
    f (normal_form_index) and a GL(2) matrix g, and chi takes the values of chi o g on the loop images of
    g.f, so g.f's classes are f's, permuted: the forms that occur go through _pg_chi once, and their p_g is
    gathered CHUNK rows at a time.  np.bincount, which finds those forms, first casts the whole int32 index
    to intp, 8 bytes a row (1.6 MB at n = 5).  ValueError for a row that is not admissible."""
    index, forms = normal_form_index(rows, n), normal_forms(n)
    used = np.flatnonzero(np.bincount(index, minlength=len(forms)))
    pg = np.zeros(len(forms), dtype=np.int64)
    pg[used] = _pg_chi(forms[used], n)[:, 0]
    out = np.empty(len(index), dtype=np.int64)
    for i in range(0, len(index), CHUNK):
        pg.take(index[i:i + CHUNK], out=out[i:i + CHUNK])
    return out
