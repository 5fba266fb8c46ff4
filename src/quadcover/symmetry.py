"""The symmetry group of the construction acting on six-tuples.

It is GL(2, Z/n) x Sym(5), both factors stored as 12x12 matrices.
GL(2, Z/n) acts diagonally on the six slots, as kron(I6, g).  Sym(5) is
the automorphism group of Y and permutes the branch curves as it permutes
their 2-subset labels (picard.CURVE_PAIRS).  A permutation puts into each
line slot the loop image (covers.LOOP_SLOTS) of the curve that its label
is sent to, as kron(A, I2).  The point swaps (0h) are the transpositions
(0 h), which generate Sym(5).

The loop images of the exceptional curves use the relation u1+..+v3 = 0,
so as literal matrices the swaps are involutions only on the sum-zero
subspace that carries the actual cover data (admissible tuples all lie in
it).  Group elements are therefore told apart by their action on that
subspace, a 10x10 matrix on the first ten coordinates: group_closure
counts these actions.  The 120 permutations act in 120 distinct ways.
kron(A, I2) and kron(I6, g) commute, both products being kron(A, g), and
the swap group meets the GL(2) blocks only in the identity, so the full
group is the direct product of the two, of order 57600 at n = 5.  GL(2)
acts freely on admissible tuples, so the orbits are the swap orbits of
the GL(2)-classes, each labelled by its normal form, and everything here
is computed on the normal forms alone.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations
from typing import NamedTuple

import numpy as np

from . import gf
from .covers import CHUNK, LOOP_SLOTS, SixTuple, check_bytes, encode_rows, normal_form_index, normal_forms
from .gf import DEFAULT_MODULUS, Mat, frozen
from .picard import CURVE_PAIRS


def _restrict(mats, n) -> np.ndarray:
    """(..., 12, 12) matrices -> their (..., 10, 10) actions on the first ten
    coordinates of sum-zero rows, whose last two are minus the x and y sums."""
    m = np.asarray(mats, dtype=np.int64)[..., :10, :]
    return (m[..., :10] - np.tile(m[..., 10:], 5)) % n


class SymmetryElement(NamedTuple):
    """A symmetry as a 12x12 matrix over Z/n plus an optional provenance
    tag (generator name or defining GL(2) block)."""

    mat: Mat
    provenance: str | None = None

    def apply(self, t: SixTuple) -> SixTuple:
        return SixTuple.from_residues(self.mat.apply_rows([t.residues])[0])

    def __repr__(self):
        tag = self.provenance or "element"
        return f"SymmetryElement({tag} mod {self.mat.n})"


_LABELLED = {frozenset(pair): c for c, pair in enumerate(CURVE_PAIRS)}


def _swap_matrices(perms) -> np.ndarray:
    """(k, 12, 12) matrices of k permutations of {0, ..., 4}: slot j takes
    the loop image of the curve whose label is the image of curve j's."""
    curves = [[_LABELLED[frozenset(s[a] for a in CURVE_PAIRS[j])] for j in range(6)] for s in perms]
    return np.kron(LOOP_SLOTS[curves], np.eye(2, dtype=np.int64))


def s5_generators(n=DEFAULT_MODULUS) -> tuple[SymmetryElement, ...]:
    """The four point swaps (0h), the transpositions (0 h) of the labels;
    they generate a group of order 120 on the sum-zero subspace."""
    swaps = [[{0: h, h: 0}.get(a, a) for a in range(5)] for h in range(1, 5)]
    return tuple(
        SymmetryElement(Mat(m, n), f"(0{h})") for h, m in enumerate(_swap_matrices(swaps), 1)
    )


def gl2_action(m, n=None) -> SymmetryElement:
    """GL(2, Z/n) element applied to each of the six slots; a Mat brings its
    own modulus, and a different n is refused."""
    if isinstance(m, Mat) and n not in (None, m.n):
        raise ValueError(f"modulus mismatch: a matrix mod {m.n} acting mod {n}")
    block = m if isinstance(m, Mat) else Mat(m, DEFAULT_MODULUS if n is None else n)
    if block.size != 2:
        raise ValueError("expected a 2x2 matrix")
    if block.det() == 0:
        raise ValueError(f"singular matrix {block!r} does not act")
    rows = ",".join(str(int(x)) for x in block.array.ravel())
    return SymmetryElement(Mat.block_diagonal(block.array, 6, block.n), f"gl2[{rows}]")


def default_generators(n=DEFAULT_MODULUS) -> tuple[SymmetryElement, ...]:
    """Generating set of the full symmetry group: the four swaps plus a
    generating set of GL(2, Z/n) acting blockwise."""
    return s5_generators(n) + tuple(gl2_action(g, n) for g in gf.gl2_generators(n))


class GroupClosure(NamedTuple):
    """Orders of the symmetry group, and the swap closure as an int64
    (k, 10, 10) array: the action on the first ten coordinates of
    sum-zero rows, whose last two follow from the sum condition."""

    order: int
    s5_order: int
    gl2_order: int
    s5_elements: np.ndarray


def _sym5_actions(n) -> np.ndarray:
    """The distinct actions of the 120 label permutations on the sum-zero
    subspace, as an int64 (k, 10, 10) array in lexicographic order."""
    actions = _restrict(_swap_matrices(permutations(range(5))), n)
    # one 800-byte key per action: big-endian residues, whose byte order is their lexicographic order
    # (np.unique over rows, axis=0, would import numpy.ma, 30 ms of a cold report)
    _, first = np.unique(actions.astype(">i8").reshape(len(actions), 100).view("V800").ravel(), return_index=True)
    return actions[first]


@lru_cache(maxsize=None)
def group_closure(n=DEFAULT_MODULUS) -> GroupClosure:
    """The group generated by the four swaps and the GL(2, Z/n) blocks.

    The swaps generate the actions of all of Sym(5), since the
    transpositions (0 h) generate it and picard's relations are
    Sym(5)-equivariant; those actions are counted.  Each swap commutes
    with each GL(2) block, so the group is the set product of the two
    subgroups.  Its order is the product of theirs because the only swap
    action that is a GL(2) block, kron(I5, g) on the sum-zero subspace,
    is the identity; that is checked.
    """
    s5 = _sym5_actions(n)
    as_block = np.einsum("ij,kab->kiajb", np.eye(5, dtype=np.int8), s5[:, :2, :2])
    blocks = s5[(s5 == as_block.reshape(s5.shape)).all(axis=(1, 2))]
    if len(blocks) != 1 or (blocks[0] != np.eye(10)).any():
        raise AssertionError("the swap closure meets the GL(2) blocks outside the identity")
    gl2_order = gf.gl2_order(n)
    return GroupClosure(len(s5) * gl2_order, len(s5), gl2_order, frozen(s5))


class Orbit(NamedTuple):
    """One orbit of the symmetry group on the admissible tuples: the
    union of the GL(2)-classes of the normal forms indexed by classes."""

    representative: SixTuple
    size: int
    stabilizer_order: int
    classes: np.ndarray


def _least(moves, start) -> np.ndarray:
    """Minimum of start over each orbit of the index permutations moves."""
    while ((step := reduce(np.minimum, (start[m] for m in moves), start)) != start).any():
        start = step
    return start


def _least_members(forms, n) -> np.ndarray:
    """Rows of the lexicographically least member of each form's
    GL(2)-class.  u1 is never zero, so that member has u1 = (0,1) and is
    g.f for a g = [[0, a], [1, b]], a != 0: g.(x, y) = (a y, x + b y) keeps
    each slot with y = 0 at (0, x), and the first slot with y != 0 (v1 is
    one) takes (1, 0), its least value, only for a = 1/y and b = -x/y."""
    x, y = forms[:, 0::2], forms[:, 1::2]
    first = np.arange(len(forms)), (y != 0).argmax(axis=1)
    a = gf.inverses(n)[y[first]][:, None]  # int64, as is every product with it
    return np.stack([a * y % n, (x - x[first][:, None] * a * y) % n], axis=2).reshape(-1, 12)


class OrbitPartition(NamedTuple):
    """Orbit decomposition of the admissible tuples mod modulus, with the
    orbit id of each normal form (aligned with normal_forms(modulus))."""

    orbits: tuple[Orbit, ...]
    labels: np.ndarray
    modulus: int

    def orbit_of(self, t: SixTuple, n=None) -> int:
        """The orbit id of t, read mod the partition's modulus (n, if given, must equal it)."""
        if n not in (None, self.modulus):
            raise ValueError(f"modulus mismatch: a tuple mod {n} in the orbit partition mod {self.modulus}")
        try:
            form = normal_form_index(np.array([t.residues]), self.modulus)[0]
        except ValueError:
            raise ValueError(f"{t.format()} is not an admissible tuple") from None
        return int(self.labels[form])


@lru_cache(maxsize=None)
def orbit_partition(n=DEFAULT_MODULUS) -> OrbitPartition:
    """Cached orbit decomposition of all admissible tuples.

    The swaps commute with GL(2), so they permute the GL(2)-classes; an
    orbit is the union of the classes in one swap orbit, and its size is
    |GL(2)| times their number.  Orbits are numbered by, and represented
    by, their lexicographically least member.

    Before building anything it refuses a working set over MAX_ARRAY_BYTES:
    the four int32 moves and the uint64 codes and their orbit minima of each
    form (derived), np.unique's 41 bytes a form, and the moves and codes
    of one block of CHUNK forms, built at 224 bytes a form (measured).
    """
    forms = normal_forms(n)
    check_bytes(len(forms) * (4 * 4 + 2 * 8 + 41) + CHUNK * 224, n, f"orbit partition of {len(forms)} forms")
    closure = group_closure(n)
    chunks = [forms[i:i + CHUNK] for i in range(0, max(len(forms), 1), CHUNK)]
    moves = [np.concatenate([normal_form_index(g.mat.apply_rows(c), n) for c in chunks]) for g in s5_generators(n)]
    # the orbit minimum of the codes labels each form, and np.unique sorts the orbits by it
    codes = np.concatenate([encode_rows(_least_members(c, n), n) for c in chunks])
    minima = _least(moves, codes)
    _, labels = np.unique(minima, return_inverse=True)
    reps = np.flatnonzero(codes == minima)  # the one class of each orbit that holds its least member
    residues = _least_members(forms[reps[np.argsort(labels[reps])]], n)
    # read-only, and so is every orbit's classes, a view of by_form
    labels, by_form = frozen(labels.astype(np.int32)), frozen(np.argsort(labels, kind="stable"))
    out = []
    for rep, classes in zip(residues, np.split(by_form, np.cumsum(np.bincount(labels))[:-1])):
        size = closure.gl2_order * len(classes)
        if closure.order % size:
            raise AssertionError("orbit size does not divide the group order")
        out.append(Orbit(SixTuple.from_residues(rep), size, closure.order // size, classes))
    return OrbitPartition(tuple(out), labels, n)
