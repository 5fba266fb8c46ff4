"""Six-tuples of branch data, admissibility, and exhaustive enumeration.

A six-tuple (u1, u2, u3, v1, v2, v3) of vectors in (Z/n)^2 assigns images
to small loops around the six line components of the quadrangle; the
images of the exceptional loops are forced by the homology relations,
picard.LOOP_RELATIONS, which LOOP_SLOTS reads once.

A tuple is admissible when (0) the six entries sum to zero, (1) all ten
loop images are nonzero, and (2) the images at each of the 15 incident
curve pairs are linearly independent.  Admissible tuples correspond to
smooth degree-n^2 abelian covers branched exactly on the configuration.
Condition (0) holds exactly when every eigensheaf class is integral
(sheaves.CharacterTable); the per-tuple calls of sheaves memoize the check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .gf import DEFAULT_MODULUS, Vec2, frozen, gl2_order, inverses, is_integer, nonzero_vectors, reduce_rows
from .gf import require_prime
from .picard import CURVE_LABELS, LOOP_RELATIONS, incidences


class SixTuple(NamedTuple):
    u1: Vec2
    u2: Vec2
    u3: Vec2
    v1: Vec2
    v2: Vec2
    v3: Vec2

    @classmethod
    def from_residues(cls, res, n=None) -> "SixTuple":
        """Twelve nonnegative integers (of any type, see gf.is_integer); below n when n is given."""
        given = tuple(res)
        if not all(map(is_integer, given)):
            raise ValueError(f"residues must be integers, got {given}")
        res = tuple(map(int, given))
        if len(res) != 12:
            raise ValueError(f"expected 12 residues, got {len(res)}")
        if any(x < 0 for x in res):
            raise ValueError(f"residues must be nonnegative, got {res}")
        if n is not None and any(x >= n for x in res):
            raise ValueError(f"residues must be below the modulus {n}, got {res}")
        return cls(*((res[2 * i], res[2 * i + 1]) for i in range(6)))

    @classmethod
    def parse(cls, text: str, n=None) -> "SixTuple":
        """Parse '1,0,1,0,0,1,4,1,3,2,1,1' (12 comma-separated residues)."""
        try:
            parts = [int(p) for p in text.split(",")]
        except ValueError as err:
            raise ValueError(f"cannot parse six-tuple {text!r}: {err}") from None
        return cls.from_residues(parts, n)

    @property
    def residues(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self))

    def format(self) -> str:
        return ",".join(str(x) for x in self.residues)


# Row c is the loop image of curve c in terms of the six line slots: the
# identity on the lines, and eh solved from picard's relation row h.
LOOP_SLOTS = np.vstack([np.eye(6, dtype=np.int64), -np.array([r[:6] for r in LOOP_RELATIONS[:4]])])


def loop_image_rows(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """(N, 12) residue rows -> (N, 10, 2) loop images in configuration order."""
    return LOOP_SLOTS @ reduce_rows(rows, n).astype(np.int64, copy=False).reshape(-1, 6, 2) % n


class AdmissibilityCheck(NamedTuple):
    """Outcome of the admissibility test, with a stable reason code.

    condition is 0 (sum), 1 (a zero loop image) or 2 (a dependent incident
    pair); curves names the offending curve(s).  Truthiness is `ok`.
    """

    ok: bool
    condition: int | None = None
    curves: tuple[str, ...] | None = None

    def __bool__(self):
        return self.ok

    def require(self, t):
        """t, the tuple checked, when it passed; ValueError with the reason otherwise."""
        if not self.ok:
            raise ValueError(f"tuple {t.format()} is not admissible: {self.reason}")
        return t

    @property
    def reason(self) -> str:
        if self.ok:
            return "admissible"
        if self.condition == 0:
            return "condition 0: entries do not sum to zero"
        if self.condition == 1:
            return f"condition 1: zero loop image at {self.curves[0]}"
        return "condition 2: dependent images at ({}, {})".format(*self.curves)


_INCIDENT = np.array(sorted(incidences()))
# (condition, curves) of each column of _failures
_REASONS = (
    ((0, None),)
    + tuple((1, (label,)) for label in CURVE_LABELS)
    + tuple((2, (CURVE_LABELS[i], CURVE_LABELS[j])) for i, j in _INCIDENT)
)


# Each stage that builds a table checks the bytes of its build against this
# first (check_bytes), and so does the tests' group oracle.
MAX_ARRAY_BYTES = 256 << 20


# Rows read at a time by the bulk paths (admissibility_mask, normal_form_index,
# pg_values, the dumps), so that temporaries are reused instead of taking fresh pages.
CHUNK = 1 << 14


def check_bytes(size, n, what):
    """ValueError naming what, an array of size bytes at modulus n, when it
    would exceed MAX_ARRAY_BYTES."""
    if size > MAX_ARRAY_BYTES:
        raise ValueError(f"modulus {n}: {what} over {MAX_ARRAY_BYTES >> 20} MiB")


# Each row sums some of the six slots: the ten loop images (LOOP_SLOTS,
# whose exceptional rows are 0/1), then the total of all six.
_SUMMED = np.vstack([LOOP_SLOTS, np.ones(6, dtype=np.int64)])


@lru_cache(maxsize=None)
def _line_table(n) -> np.ndarray:
    """Read-only uint16 table of the line through each sum of slots.

    A reduced row's sums of slots have coordinates X, Y < 6n, and entry
    X + 6n Y names the line through (X, Y) mod n: 0 for the zero vector,
    1 + y/x for (x, y) with x != 0 and n + 1 for (0, y).  Two vectors
    are dependent exactly when one names 0 or both name the same line.
    Derived figure: the table's 36 n^2 entries and the n^2 lines it is
    filled from, uint16 both, and 4 KiB for the Python objects of the call,
    so it refuses n above 1904; lines need n prime.
    """
    check_bytes((36 + 1) * n * n * 2 + (1 << 12), n, "admissibility table")
    line = (1 + np.outer(np.arange(n), inverses(n)) % n).astype(np.uint16)  # [y, x]: 1 + y/x for x != 0
    line[:, 0], line[0, 0] = n + 1, 0
    table = np.empty((6, n, 6, n), dtype=np.uint16)  # entry X + 6n Y at [Y // n, Y % n, X // n, X % n]
    table[:] = line[:, None]
    return frozen(table.ravel())


def _failures(rows, n) -> np.ndarray:
    """(N, 26) failed conditions of (N, 12) residue rows, decided by
    comparing the lines through the sums of slots (see _line_table): a
    nonzero sum, then a zero image at each curve, then dependent images
    at each incident pair in sorted order."""
    table = _line_table(n)
    res = reduce_rows(rows, n).astype(np.int64, copy=False).reshape(-1, 12)
    line = table[_SUMMED @ (res.T[0::2] + 6 * n * res.T[1::2])]  # (11, N)
    zero = line == 0
    first, second = _INCIDENT[:, 0], _INCIDENT[:, 1]
    dependent = (line[first] == line[second]) | zero[first] | zero[second]
    # built one condition per row, so that reductions over the conditions
    # run along contiguous memory
    return np.concatenate([~zero[10:], zero[:10], dependent]).T


def admissibility_mask(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """Admissibility of each row of an (N, 12) array of residue rows,
    CHUNK rows at a time: _failures holds about 136 bytes per row, 96 more
    to widen narrower rows to int64, and a reduced copy if one is needed."""
    rows = np.asarray(rows).reshape(-1, 12)
    chunks = (rows[i:i + CHUNK] for i in range(0, max(len(rows), 1), CHUNK))
    return np.concatenate([~_failures(chunk, n).any(axis=1) for chunk in chunks])


def check_admissibility(t: SixTuple, n=DEFAULT_MODULUS) -> AdmissibilityCheck:
    """The first condition that t, or one residue row, fails, in the column
    order of _failures."""
    failed = _failures(t, n)[0]
    first = failed.argmax()
    if not failed[first]:
        return AdmissibilityCheck(True)
    return AdmissibilityCheck(False, *_REASONS[first])


def require_admissible(t: SixTuple, n=DEFAULT_MODULUS) -> SixTuple:
    """t itself; ValueError with the reason when it is not admissible."""
    return check_admissibility(t, n).require(t)


def encode_rows(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """Pack residue rows into base-n codes by Horner steps; numeric order = lex order."""
    if n ** 12 > 2 ** 64:
        raise ValueError(f"modulus {n} is too large: base-{n} codes of 12 residues overflow 64 bits")
    code = np.zeros(np.shape(rows)[:-1], dtype=np.uint64)
    for column in np.moveaxis(reduce_rows(rows, n), -1, 0):
        code *= np.uint64(n)
        code += column.astype(np.uint64)
    return code


@lru_cache(maxsize=None)
def normal_forms(n=DEFAULT_MODULUS) -> np.ndarray:
    """Admissible rows with (u1, v1) = ((1,0), (0,1)), lexicographically
    sorted, as a read-only int16 array: one per GL(2, Z/n)-class.

    L1' and L1 are incident, so u1 and v1 are independent in every
    admissible tuple and GL(2) acts freely and transitively on them.  The
    search runs over the nonzero u2, u3, v2 and solves the sum condition
    for v3, one u2 at a time in one int64 buffer of the (n^2 - 1)^2
    candidates, which admissibility_mask reads CHUNK at a time.  Before
    building anything it refuses, over MAX_ARRAY_BYTES, that buffer with
    its temporaries (measured) and every candidate as an int16 form, held
    twice while stacked (derived): 13 passes and 17 does not.
    """
    require_prime(n)
    m = n * n - 1
    check_bytes(m * m * 161 + m ** 3 * 24 * 2, n, f"{m ** 3} candidate forms")
    nz = np.array(nonzero_vectors(n), dtype=np.int64)
    i3, i2 = np.divmod(np.arange(m * m), m)
    # one buffer of candidates, a residue per row; each u2 overwrites its
    # slot and v3
    cand = np.zeros((12, m * m), dtype=np.int64)
    cand[0], cand[7] = 1, 1
    cand[4:6], cand[8:10] = nz[i3].T, nz[i2].T
    rest = -cand.reshape(6, 2, -1).sum(axis=0)
    forms = []
    for u2 in nz[:, :, None]:
        cand[2:4], cand[10:12] = u2, (rest - u2) % n
        forms.append(cand.T[admissibility_mask(cand.T, n)].astype(np.int16))
    return frozen(np.vstack(forms))


@lru_cache(maxsize=None)
def _vec_table(n) -> np.ndarray:
    """Read-only int16 table of g^-1 w for every matrix g with columns u1
    and v1 and every vector w, in vector codes x + n y: entry
    (code(u1) + n^2 code(v1)) n^2 + code(w), or -1 where det g = 0."""
    x, y, g, inv = np.arange(n * n) % n, np.arange(n * n) // n, np.arange(n ** 4)[:, None], inverses(n)
    table, step = np.empty((n ** 4, n * n), dtype=np.int16), max(1, CHUNK // (n * n))
    for i in range(0, n ** 4, step):  # CHUNK entries at a time: no int64 temporary has n^6
        a, c, b, d = (g[i:i + step] // n ** k % n for k in range(4))
        scale = inv[(a * d - b * c) % n]  # 0 where det g = 0
        table[i:i + step] = np.where(scale == 0, -1, (d * x - b * y) * scale % n + n * ((a * y - c * x) * scale % n))
    return frozen(table.ravel())


@lru_cache(maxsize=None)
def _form_table(n) -> np.ndarray:
    """Read-only int32 table of positions in normal_forms(n), at
    code(u2) + n^2 code(u3) + n^4 code(v2) of each form (the sum condition
    gives its v3), and -1 where no form has those vectors."""
    forms, table = normal_forms(n), np.full(n ** 6, -1, dtype=np.int32)
    for i in range(0, len(forms), CHUNK):  # int64 codes of CHUNK forms at a time
        table[forms[i:i + CHUNK, [2, 3, 4, 5, 8, 9]] @ n ** np.arange(6)] = np.arange(i, min(i + CHUNK, len(forms)))
    return frozen(table)


def normal_form_index(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """For each (N, 12) residue row, the position in normal_forms(n) of
    g^-1 . row, where g is the matrix with columns u1 and v1: the index of
    the row's GL(2)-class.  ValueError for a row outside every class, that
    is, a row that is not admissible.

    g^-1 maps u2, u3 and v2 to the free vectors of the form (_vec_table),
    which locate it (_form_table), and keeps the sum zero exactly when
    the row's sum is zero; so a row fails when det g = 0, when no form
    has those vectors, or when its own sum is nonzero.  Its figure: the
    int16 and int32 tables (derived) and one block of CHUNK entries of their
    builds, or rows of the lookup and their index, at 80 bytes each (measured)."""
    check_bytes(n ** 6 * (2 + 4) + CHUNK * 80, n, "class tables")
    form, vec = _form_table(n), _vec_table(n)  # the forms first: they refuse large n
    rows = reduce_rows(rows, n).reshape(-1, 12)
    index = np.empty(len(rows), dtype=np.int32)
    for i in range(0, len(rows), CHUNK):  # temporaries of about 75 bytes a row
        # one contiguous column per residue; the table sizes keep 6 n^2 below 2^15
        cols = np.ascontiguousarray(rows[i:i + CHUNK].T, dtype=np.int16)
        code = cols[0::2] + n * cols[1::2]  # (6, N) vector codes, slots in tuple order
        g = (code[0] + n * n * code[3].astype(np.intp)) * (n * n)
        # where det g = 0 all three read -1: their key wraps, and u2 < 0 rejects them
        u2, u3, v2 = (vec.take(g + code[s]) for s in (1, 2, 4))
        index[i:i + CHUNK] = found = form.take(u2 + n * n * (u3 + n * n * v2.astype(np.intp)))
        total = cols.reshape(6, 2, -1).sum(axis=0, dtype=np.int16)  # below 6n
        # numpy divides by a scalar far faster than it takes a remainder
        if (u2 < 0).any() or (found < 0).any() or (total != total // n * n).any():
            raise ValueError("a row is not in the GL(2)-orbit of an admissible normal form")
    return index


@lru_cache(maxsize=None)
def admissible_array(n=DEFAULT_MODULUS) -> np.ndarray:
    """All admissible tuples as a read-only int16 (N, 12) array sorted lexicographically by the 12
    residues: each is g^-1 . f for one normal form f and one invertible row g of _vec_table (see
    normal_forms; g -> g^-1 permutes GL(2)), keyed by base-n^2 digits x n + y as encode_rows orders them.
    weights[f, w] sums n^(10 - 2s) over the slots s of f with vector code w, so weights @ digit holds every
    key; the keys are sorted in place and decoded CHUNK rows at a time.  ValueError, before the table is
    built, when the rows, keys, weights, digits and quads (derived) and a decode chunk (measured) would
    exceed MAX_ARRAY_BYTES."""
    forms, order = normal_forms(n), gl2_order(n)
    check_bytes(len(forms) * order * (24 + 8) + (len(forms) + order) * n * n * 8 + n ** 4 * 8 + CHUNK * 64, n,
                "admissible array")
    vec = _vec_table(n).reshape(n ** 4, n * n)  # a row of -1 where det g = 0
    digit = np.ascontiguousarray((vec % n * n + vec // n)[vec[:, 0] == 0].T, dtype=np.int64)  # [code(w), g]
    weights = n ** np.arange(10, -1, -2) @ (forms[:, 0::2, None] + n * forms[:, 1::2, None] == np.arange(n * n))
    key = (weights @ digit).ravel()
    key.sort()
    quads = (np.arange(n ** 4)[:, None] // n ** np.arange(3, -1, -1) % n).astype(np.int16).view(np.int64).ravel()
    rows = np.empty((len(key), 3), dtype=np.int64)  # each int64 four int16 residues, as in quads
    for i in range(0, len(key), CHUNK):
        k = key[i:i + CHUNK]
        rows[i:i + CHUNK] = quads.take(np.stack([k // n ** 8, k // n ** 4 % n ** 4, k % n ** 4], axis=1))
    return frozen(rows.view(np.int16))
