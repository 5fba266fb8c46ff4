"""The symmetry group of the construction acting on six-tuples.

Generators are the four point-swap transformations (linear in the twelve
tuple coordinates) and GL(2, Z/n) acting diagonally on all six slots.
Both kinds are stored as 12x12 matrices.

The swap formulas use the loop relation u1+..+v3 = 0, so as literal
matrices they are involutions only on the sum-zero subspace that carries
the actual cover data (admissible tuples all lie in it).  Group identity
is therefore defined by the action on that subspace, a 10x10 matrix on
the first ten coordinates: two elements are equal when these agree.
With this convention the four swaps close into a group of order 120.
They commute with GL(2), so the full group is the set product of the
two, of order 57600, and its orbits are those of the swaps on the
GL(2)-classes of admissible tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import gf
from .covers import MAX_ARRAY_BYTES, SixTuple, admissible_array, encode_rows
from .gf import DEFAULT_MODULUS, Mat


@lru_cache(maxsize=None)
def _sum_zero_basis(n):
    """Columns span the sum-zero subspace, parameterized by the first ten
    coordinates."""
    return np.vstack([np.eye(10, dtype=np.int64), np.tile(np.eye(2, dtype=np.int64) * (n - 1), 5)])


def _restrict(mats, n) -> np.ndarray:
    """(..., 12, 12) matrices -> their (..., 10, 10) actions on the
    sum-zero subspace."""
    return (np.asarray(mats, dtype=np.int64)[..., :10, :] @ _sum_zero_basis(n) % n).astype(np.int16)


def _restricted(mat: Mat) -> bytes:
    """Key of the action on the sum-zero subspace."""
    return _restrict(mat.array, mat.n).tobytes()


@dataclass(frozen=True, eq=False)
class SymmetryElement:
    """A symmetry as a 12x12 matrix over Z/n plus an optional provenance
    tag (generator name or defining GL(2) block)."""

    mat: Mat
    provenance: str | None = None

    def apply(self, t: SixTuple) -> SixTuple:
        return SixTuple.from_residues(self.mat.apply(t.residues))

    def __mul__(self, other: "SymmetryElement") -> "SymmetryElement":
        return SymmetryElement(self.mat * other.mat)

    def __eq__(self, other):
        return (
            isinstance(other, SymmetryElement)
            and self.mat.n == other.mat.n
            and _restricted(self.mat) == _restricted(other.mat)
        )

    def __hash__(self):
        return hash(_restricted(self.mat))

    def __repr__(self):
        tag = self.provenance or "element"
        return f"SymmetryElement({tag} mod {self.mat.n})"


# Slot-level coefficient rows of the four swaps, acting on
# (u1, u2, u3, v1, v2, v3).  Swap (0h) exchanges the slot of each line
# through the h-th point with the matching exceptional slot:
#   (01): u2<->e3, u3<->e2, v1<->e0     (02): u1<->e3, u3<->e1, v2<->e0
#   (03): u1<->e2, u2<->e1, v3<->e0     (04): v1<->e1, v2<->e2, v3<->e3
# with e0 = u1+u2+u3 and ei = ui+vj+vk substituted on the right.
_SWAP_SLOTS = {
    "(01)": ((1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0), (0, 1, 0, 1, 0, 1),
             (1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
    "(02)": ((0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 1, 1),
             (0, 0, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    "(03)": ((0, 1, 0, 1, 0, 1), (1, 0, 0, 0, 1, 1), (0, 0, 1, 0, 0, 0),
             (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (1, 1, 1, 0, 0, 0)),
    "(04)": ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
             (1, 0, 0, 0, 1, 1), (0, 1, 0, 1, 0, 1), (0, 0, 1, 1, 1, 0)),
}


def s5_generators(n=DEFAULT_MODULUS) -> tuple[SymmetryElement, ...]:
    """The four point swaps as matrices (each slot row acting on both
    coordinates); they generate a group of order 120 on the sum-zero
    subspace."""
    return tuple(
        SymmetryElement(Mat(np.kron(rows, np.eye(2, dtype=np.int64)), n), name)
        for name, rows in _SWAP_SLOTS.items()
    )


def gl2_action(m, n=DEFAULT_MODULUS) -> SymmetryElement:
    """GL(2, Z/n) element applied to each of the six slots."""
    block = m if isinstance(m, Mat) else Mat(m, n)
    if block.size != 2:
        raise ValueError("expected a 2x2 matrix")
    if block.det() == 0:
        raise ValueError(f"singular matrix {block!r} does not act")
    rows = ",".join(str(int(x)) for x in block.array.ravel())
    return SymmetryElement(Mat.block_diagonal(block.array, 6, n), f"gl2[{rows}]")


def default_generators(n=DEFAULT_MODULUS) -> tuple[SymmetryElement, ...]:
    """Generating set of the full symmetry group: the four swaps plus a
    generating set of GL(2, Z/n) acting blockwise."""
    return s5_generators(n) + tuple(gl2_action(g, n) for g in gf.gl2_generators(n))


def mulclose(gens) -> dict[bytes, Mat]:
    """Multiplicative closure of 12x12 matrices keyed by their action on
    the sum-zero subspace; values are representative matrices."""
    mats = [g.mat if isinstance(g, SymmetryElement) else g for g in gens]
    els = {}
    for g in mats:
        els.setdefault(_restricted(g), g)
    boundary = list(els.values())
    while boundary:
        fresh = []
        for a in mats:
            for b in boundary:
                c = a * b
                k = _restricted(c)
                if k not in els:
                    els[k] = c
                    fresh.append(c)
        boundary = fresh
    return els


class GroupClosure(NamedTuple):
    """Orders and elements of the symmetry group.  Elements are int8
    (k, 10, 10) arrays: the action on the first ten coordinates of
    sum-zero rows, whose last two follow from the sum condition."""

    order: int
    s5_order: int
    gl2_order: int
    elements: np.ndarray
    s5_elements: np.ndarray


@lru_cache(maxsize=None)
def group_closure(n=DEFAULT_MODULUS) -> GroupClosure:
    """The group generated by the four swaps and the GL(2, Z/n) blocks.

    Each swap commutes with each GL(2) generator (checked here), so the
    group is the set product of the swap closure and all GL(2) blocks,
    and counting the distinct products certifies its order.
    """
    swaps = s5_generators(n)
    for s in swaps:
        for g in gf.gl2_generators(n):
            if s.mat * gl2_action(g, n).mat != gl2_action(g, n).mat * s.mat:
                raise AssertionError(f"swap {s.provenance} does not commute with {g!r}")
    s5 = _restrict([m.array for m in mulclose(swaps).values()], n)
    gl2 = gf.gl2_array(n)
    if len(s5) * len(gl2) * 100 > MAX_ARRAY_BYTES:
        raise ValueError(f"modulus {n}: the group would exceed {MAX_ARRAY_BYTES >> 20} MiB")
    blocks = _restrict([Mat.block_diagonal(g, 6, n).array for g in gl2], n).astype(np.int64)
    prods = np.empty((len(s5), len(gl2), 10, 10), dtype=np.int8)
    for i, s in enumerate(s5):
        prods[i] = s @ blocks % n
    prods = prods.reshape(-1, 10, 10)
    _, first = np.unique(prods.reshape(len(prods), 100).view("V100").ravel(), return_index=True)
    elements, s5 = prods[np.sort(first)], s5.astype(np.int8)
    elements.flags.writeable = s5.flags.writeable = False
    return GroupClosure(len(elements), len(s5), len(gl2), elements, s5)


class Orbit(NamedTuple):
    """One orbit of the symmetry group on a closed set of six-tuples."""

    representative: SixTuple
    size: int
    stabilizer_order: int
    member_indices: np.ndarray


def _least(moves, start) -> np.ndarray:
    """Minimum of start over each orbit of the index permutations moves."""
    while True:
        step = np.minimum.reduce([start] + [start[m] for m in moves])
        if (step == start).all():
            return start
        start = step


def _orbit_list(rows, least, lex_order, group_order) -> tuple[list[Orbit], np.ndarray]:
    """Orbits and per-row labels from each row's least position in
    lex_order (the lexicographic argsort) over its orbit: orbits are
    numbered and represented by their lexicographically minimal member."""
    ranks, labels = np.unique(least, return_inverse=True)
    out = []
    for oid, rank in enumerate(ranks):
        members = np.flatnonzero(labels == oid)
        if group_order % len(members):
            raise AssertionError("orbit size does not divide the group order")
        out.append(
            Orbit(
                representative=SixTuple.from_residues(rows[lex_order[rank]]),
                size=len(members),
                stabilizer_order=group_order // len(members),
                member_indices=members,
            )
        )
    return out, labels.astype(np.int32)


def _locate(sorted_codes, codes) -> tuple[np.ndarray, np.ndarray]:
    """Positions of codes in sorted_codes, and the mask of codes absent."""
    pos = np.searchsorted(sorted_codes, codes)
    found = pos < len(sorted_codes)
    found[found] = sorted_codes[pos[found]] == codes[found]
    return pos, ~found


def orbits(tuples, n=DEFAULT_MODULUS, generators=None) -> list[Orbit]:
    """Partition of a closed tuple set into symmetry orbits.

    Each generator matrix permutes the rows (looked up by base-n code);
    orbits are numbered by, and represented by, their lexicographically
    minimal member.  Stabilizer orders use the order of the group the
    generators generate.  Raises if a generator leaves the input set.
    """
    if isinstance(tuples, np.ndarray):
        rows = np.asarray(tuples, dtype=np.int64) % n
    else:
        rows = np.array([t.residues for t in tuples], dtype=np.int64) % n
    if len(rows) == 0:
        return []
    gens = list(default_generators(n) if generators is None else generators)
    group_order = group_closure(n).order if generators is None else len(mulclose(gens))
    codes = encode_rows(rows, n)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    if (np.diff(sorted_codes.astype(np.int64)) == 0).any():
        raise ValueError("input tuples contain duplicates")
    moves = []
    for g in gens:
        images = g.mat.apply_rows(rows)
        pos, bad = _locate(sorted_codes, encode_rows(images, n))
        if bad.any():
            stray = SixTuple.from_residues(images[bad.argmax()])
            raise ValueError(
                f"generator {g.provenance or g!r} maps a member to "
                f"{stray.format()} outside the input set"
            )
        moves.append(order[pos])
    return _orbit_list(rows, _least(moves, np.argsort(order)), order, group_order)[0]


class OrbitPartition(NamedTuple):
    """Orbit decomposition of the full admissible set, with a label and a
    base-n code per tuple (aligned with the lexicographic admissible array)."""

    orbits: tuple[Orbit, ...]
    labels: np.ndarray
    codes: np.ndarray

    def orbit_of(self, t: SixTuple, n=DEFAULT_MODULUS) -> int:
        pos, bad = _locate(self.codes, encode_rows(np.array([t.residues]), n))
        if bad[0]:
            raise ValueError(f"{t.format()} is not an admissible tuple")
        return int(self.labels[pos[0]])


def _normal_form_index(rows, form_codes, n) -> np.ndarray:
    """Position among the sorted normal-form codes of g^-1 . row for each
    row, where g is the matrix with columns u1 and v1."""
    pairs = np.asarray(rows, dtype=np.int64).reshape(len(rows), 6, 2)
    a, c, b, d = (pairs[:, slot, i, None] for slot in (0, 3) for i in (0, 1))
    scale = np.array([pow(x, -1, n) if x else 0 for x in range(n)])[(a * d - b * c) % n]
    x, y = pairs[:, :, 0], pairs[:, :, 1]
    forms = np.stack([d * x - b * y, a * y - c * x], axis=2).reshape(len(rows), 12) * scale % n
    pos, bad = _locate(form_codes, encode_rows(forms, n))
    if bad.any():
        raise ValueError("a row is not in the GL(2)-orbit of an admissible normal form")
    return pos


@lru_cache(maxsize=None)
def orbit_partition(n=DEFAULT_MODULUS) -> OrbitPartition:
    """Cached orbit decomposition of all admissible tuples.

    The swaps commute with GL(2), so they permute the GL(2)-classes, each
    labelled by its normal form (u1, v1) = ((1,0), (0,1)); an orbit is the
    union of the classes in one swap orbit.
    """
    rows = admissible_array(n)
    codes = encode_rows(rows, n)
    is_form = (rows[:, [0, 1, 6, 7]] == [1, 0, 0, 1]).all(axis=1)
    classes = _normal_form_index(rows, codes[is_form], n)
    moves = [
        _normal_form_index(g.mat.apply_rows(rows[is_form]), codes[is_form], n)
        for g in s5_generators(n)
    ]
    _, first = np.unique(classes, return_index=True)  # rows are sorted
    least = _least(moves, first)[classes]
    parts, labels = _orbit_list(rows, least, np.arange(len(rows)), group_closure(n).order)
    labels.flags.writeable = codes.flags.writeable = False
    return OrbitPartition(tuple(parts), labels, codes)
