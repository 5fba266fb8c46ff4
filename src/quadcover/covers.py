"""Six-tuples of branch data, admissibility, and exhaustive enumeration.

A six-tuple (u1, u2, u3, v1, v2, v3) of vectors in (Z/n)^2 assigns images
to small loops around the six line components of the quadrangle; the
images of the exceptional loops are forced by the homology relations

    e0 = u1 + u2 + u3,      ei = ui + vj + vk  ({i,j,k} = {1,2,3}).

A tuple is admissible when (0) the six entries sum to zero, (1) all ten
loop images are nonzero, and (2) the images at each of the 15 incident
curve pairs are linearly independent.  Admissible tuples correspond to
smooth degree-n^2 abelian covers branched exactly on the configuration.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gf import (
    DEFAULT_MODULUS, Vec2, gl2_array, is_independent, nonzero_vectors, require_prime, vadd,
)
from .picard import CURVE_LABELS, incidences


class SixTuple(NamedTuple):
    u1: Vec2
    u2: Vec2
    u3: Vec2
    v1: Vec2
    v2: Vec2
    v3: Vec2

    @classmethod
    def from_residues(cls, res, n=None) -> "SixTuple":
        """Twelve nonnegative residues; below n too when n is given."""
        res = tuple(int(x) for x in res)
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
        return tuple(x for v in self for x in v)

    def format(self) -> str:
        return ",".join(str(x) for x in self.residues)


class LoopImages(NamedTuple):
    u1: Vec2
    u2: Vec2
    u3: Vec2
    v1: Vec2
    v2: Vec2
    v3: Vec2
    e0: Vec2
    e1: Vec2
    e2: Vec2
    e3: Vec2


def loop_images(t: SixTuple, n=DEFAULT_MODULUS) -> LoopImages:
    """Images of loops around all ten branch curves, in configuration order."""
    u1, u2, u3, v1, v2, v3 = ((x % n, y % n) for x, y in t)
    e0 = vadd(u1, u2, u3, n=n)
    e1 = vadd(u1, v2, v3, n=n)
    e2 = vadd(u2, v1, v3, n=n)
    e3 = vadd(u3, v1, v2, n=n)
    return LoopImages(u1, u2, u3, v1, v2, v3, e0, e1, e2, e3)


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

    @property
    def reason(self) -> str:
        if self.ok:
            return "admissible"
        if self.condition == 0:
            return "condition 0: entries do not sum to zero"
        if self.condition == 1:
            return f"condition 1: zero loop image at {self.curves[0]}"
        return "condition 2: dependent images at ({}, {})".format(*self.curves)


def check_admissibility(t: SixTuple, n=DEFAULT_MODULUS) -> AdmissibilityCheck:
    total = vadd(*t, n=n)
    if total != (0, 0):
        return AdmissibilityCheck(False, 0, None)
    images = loop_images(t, n)
    for label, img in zip(CURVE_LABELS, images):
        if img == (0, 0):
            return AdmissibilityCheck(False, 1, (label,))
    for i, j in sorted(incidences()):
        if not is_independent(images[i], images[j], n):
            return AdmissibilityCheck(False, 2, (CURVE_LABELS[i], CURVE_LABELS[j]))
    return AdmissibilityCheck(True)


def require_admissible(t: SixTuple, n=DEFAULT_MODULUS) -> SixTuple:
    """t itself; ValueError with the reason when it is not admissible."""
    check = check_admissibility(t, n)
    if not check:
        raise ValueError(f"tuple {t.format()} is not admissible: {check.reason}")
    return t


def is_admissible(t: SixTuple, n=DEFAULT_MODULUS) -> bool:
    return bool(check_admissibility(t, n))


def is_totally_ramified(t: SixTuple, n=DEFAULT_MODULUS) -> bool:
    """Whether the ten loop images span (Z/n)^2 (no unramified subcover)."""
    images = [img for img in loop_images(t, n) if img != (0, 0)]
    return any(
        is_independent(v, w, n) for i, v in enumerate(images) for w in images[i + 1:]
    )


# --- bulk operations -------------------------------------------------------

def loop_image_rows(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """(N, 12) residue rows -> (N, 10, 2) loop images, as in loop_images."""
    pairs = np.asarray(rows, dtype=np.int64).reshape(-1, 6, 2)
    out = np.empty((len(pairs), 10, 2), dtype=np.int64)
    out[:, :6] = pairs
    for i, slots in enumerate(((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))):  # e0..e3
        out[:, 6 + i] = pairs[:, slots].sum(axis=1)
    out %= n
    return out


def admissibility_mask(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """Vectorized admissibility over an (N, 12) array of residue rows."""
    rows = np.asarray(rows, dtype=np.int64) % n
    pairs = rows.reshape(len(rows), 6, 2)
    ok = (pairs.sum(axis=1) % n == 0).all(axis=1)
    images = loop_image_rows(rows, n)
    ok &= (images != 0).any(axis=2).all(axis=1)
    for i, j in sorted(incidences()):
        det = images[:, i, 0] * images[:, j, 1] - images[:, i, 1] * images[:, j, 0]
        ok &= det % n != 0
    return ok


def encode_rows(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """Pack residue rows into base-n codes; numeric order = lex order."""
    if n ** 12 > 2 ** 64:
        raise ValueError(f"modulus {n} is too large: base-{n} codes of 12 residues overflow 64 bits")
    rows = np.asarray(rows, dtype=np.uint64)
    weights = (np.uint64(n) ** np.arange(11, -1, -1, dtype=np.uint64))
    return rows @ weights


# largest expanded admissible array (int16 rows) that admissible_array builds
MAX_ARRAY_BYTES = 256 << 20


def normal_forms(n=DEFAULT_MODULUS) -> np.ndarray:
    """Admissible rows with (u1, v1) = ((1,0), (0,1)), lexicographically
    sorted: one per GL(2, Z/n)-class.

    L1' and L1 are incident, so u1 and v1 are independent in every
    admissible tuple and GL(2) acts freely and transitively on them.  The
    search runs over the nonzero u2, u3, v2 and solves the sum condition
    for v3, one u2 at a time.  It raises ValueError as soon as the forms
    found prove the expanded array would exceed MAX_ARRAY_BYTES.
    """
    require_prime(n)
    nz = np.array(nonzero_vectors(n), dtype=np.int64)
    m = len(nz)
    max_forms = MAX_ARRAY_BYTES // (12 * 2 * len(gl2_array(n)))
    i3, i2 = np.divmod(np.arange(m * m), m)
    forms, count = [], 0
    for u2 in nz:
        rows = np.zeros((m * m, 12), dtype=np.int64)
        rows[:, 0], rows[:, 7] = 1, 1
        rows[:, 2:4], rows[:, 4:6], rows[:, 8:10] = u2, nz[i3], nz[i2]
        rows[:, 10:12] = -rows[:, :10].reshape(-1, 5, 2).sum(axis=1) % n
        rows = rows[admissibility_mask(rows, n)]
        count += len(rows)
        if count > max_forms:
            raise ValueError(f"modulus {n}: admissible array over {MAX_ARRAY_BYTES >> 20} MiB")
        forms.append(rows)
    return np.vstack(forms)


@lru_cache(maxsize=None)
def admissible_array(n=DEFAULT_MODULUS) -> np.ndarray:
    """All admissible tuples as a read-only int16 (N, 12) array sorted
    lexicographically by the 12 residues.

    Every admissible tuple is g.f for exactly one GL(2) matrix g and one
    normal form f (see normal_forms), so the array is the normal forms
    expanded by all of GL(2, Z/n), then sorted.
    """
    forms = normal_forms(n).reshape(-1, 6, 2).astype(np.int16)
    gl2 = gl2_array(n).astype(np.int16)
    rows = np.einsum("gij,ksj->gksi", gl2, forms).reshape(-1, 12) % n
    rows = rows[np.argsort(encode_rows(rows, n), kind="stable")]
    rows.flags.writeable = False
    return rows


def enumerate_admissible(n=DEFAULT_MODULUS) -> list[SixTuple]:
    """All admissible six-tuples, lexicographically ordered."""
    return [SixTuple.from_residues(row) for row in admissible_array(n)]
