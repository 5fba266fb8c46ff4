"""Independent and expanded routes that the tests compare the package against.

The package computes counts, orbits, group orders and p_g on the
GL(2)-normal forms alone, expands them by one stacked matmul, finds a
row's form by table lookup, characters in one table, section counts and
chi terms by one gather from a table of the 486 classes that character
classes lie in (built by a vectorized closed form), admissibility as
one gather from a table of conditions on the lines through the loop
images, and the swaps from the curve labels.  The functions here work
on the expanded objects instead: every admissible row by one einsum
over forms and matrices, every group element, compared by its action
on the sum-zero subspace, each row's form by search among the encoded
forms, each class's least member by a scan over the matrices that send
u1 to (0,1), every row's 25 character classes, one character at a time,
carries over the lcm of the character orders, section counts as
interpolation ranks and by peeling fixed curves off one class at a
time, the failure matrix from int64 cross products, one tuple's loop
images and incident pairs at a time, a hand-written swap table,
breadth-first closures, orbit counts by Burnside's lemma, minimal
generators by pairwise domination, base-point multiplicities from the
Newton polygon and the blow-up recursion on whole ideals.  They are slow
and memory-hungry by design and are only meant for n <= 5 (the closures,
the swap table, the search, Burnside's count and the carries for
n <= 7; the cross products and the scan at any modulus).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations
from math import gcd, isqrt, lcm
from typing import NamedTuple

import numpy as np

from quadcover import gf
from quadcover.canonical import BasePointType, MonomialIdeal2D
from quadcover.covers import (
    _INCIDENT, MAX_ARRAY_BYTES, AdmissibilityCheck, SixTuple, admissible_array, encode_rows,
    loop_image_rows, normal_forms,
)
from quadcover.gf import Mat, reduce_vec
from quadcover.picard import (
    CURVE_LABELS, CURVE_PAIRS, ZERO, DivClass, canonical_class, configuration, incidences, intersect,
)
from quadcover.sheaves import CharacterSheaf, SurfaceInvariants
from quadcover.symmetry import (
    SymmetryElement, _least, _restrict, default_generators, group_closure,
    s5_generators,
)


def vadd(*vectors, n=5) -> tuple[int, int]:
    """The sum of 2-vectors over Z/n, one coordinate at a time."""
    return (sum(v[0] for v in vectors) % n, sum(v[1] for v in vectors) % n)


def chi_eval(chi, v, n=5) -> int:
    """Pairing [a*x + b*y] of a character chi=(a,b) with a vector v=(x,y)."""
    return (chi[0] * v[0] + chi[1] * v[1]) % n


def is_independent(v, w, n=5) -> bool:
    """True iff {v, w} spans (Z/n)^2, i.e. the 2x2 determinant is nonzero."""
    return (v[0] * w[1] - v[1] * w[0]) % n != 0


class LoopImages(NamedTuple):
    u1: tuple[int, int]
    u2: tuple[int, int]
    u3: tuple[int, int]
    v1: tuple[int, int]
    v2: tuple[int, int]
    v3: tuple[int, int]
    e0: tuple[int, int]
    e1: tuple[int, int]
    e2: tuple[int, int]
    e3: tuple[int, int]


def loop_images(t: SixTuple, n=5) -> LoopImages:
    """Images of loops around all ten branch curves, in configuration
    order, with the relations e0 = u1+u2+u3, ei = ui+vj+vk written out."""
    u1, u2, u3, v1, v2, v3 = ((x % n, y % n) for x, y in t)
    e0 = vadd(u1, u2, u3, n=n)
    e1 = vadd(u1, v2, v3, n=n)
    e2 = vadd(u2, v1, v3, n=n)
    e3 = vadd(u3, v1, v2, n=n)
    return LoopImages(u1, u2, u3, v1, v2, v3, e0, e1, e2, e3)


def check_admissibility(t: SixTuple, n=5) -> AdmissibilityCheck:
    """The admissibility conditions one at a time, stopping at the first
    failure: the sum, each loop image, each incident pair in sorted order."""
    if vadd(*t, n=n) != (0, 0):
        return AdmissibilityCheck(False, 0, None)
    images = loop_images(t, n)
    for label, img in zip(CURVE_LABELS, images):
        if img == (0, 0):
            return AdmissibilityCheck(False, 1, (label,))
    for i, j in sorted(incidences()):
        if not is_independent(images[i], images[j], n):
            return AdmissibilityCheck(False, 2, (CURVE_LABELS[i], CURVE_LABELS[j]))
    return AdmissibilityCheck(True)


def admissible_tuple(n) -> SixTuple:
    """A seeded admissible tuple mod n, random residues closed to sum zero,
    checked one condition at a time, so that no table is built at n."""
    rng = random.Random(n)
    while True:
        res = [rng.randrange(n) for _ in range(10)]
        t = SixTuple.from_residues(res + [-sum(res[0::2]) % n, -sum(res[1::2]) % n])
        if check_admissibility(t, n):
            return t


def first_refused(per_character) -> int:
    """The smallest prime n whose n^2 characters, at per_character bytes
    each, exceed MAX_ARRAY_BYTES."""
    n = isqrt(MAX_ARRAY_BYTES // per_character) + 1
    while not gf.is_prime(n):
        n += 1
    return n


# Slot-level coefficient rows of the four swaps, acting on
# (u1, u2, u3, v1, v2, v3), written out by hand.  Swap (0h) exchanges the
# slot of each line through the h-th point with the matching exceptional
# slot:
#   (01): u2<->e3, u3<->e2, v1<->e0     (02): u1<->e3, u3<->e1, v2<->e0
#   (03): u1<->e2, u2<->e1, v3<->e0     (04): v1<->e1, v2<->e2, v3<->e3
# with e0 = u1+u2+u3 and ei = ui+vj+vk substituted on the right.
SWAP_SLOTS = {
    "(01)": ((1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0), (0, 1, 0, 1, 0, 1),
             (1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
    "(02)": ((0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 1, 1),
             (0, 0, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    "(03)": ((0, 1, 0, 1, 0, 1), (1, 0, 0, 0, 1, 1), (0, 0, 1, 0, 0, 0),
             (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (1, 1, 1, 0, 0, 0)),
    "(04)": ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
             (1, 0, 0, 0, 1, 1), (0, 1, 0, 1, 0, 1), (0, 0, 1, 1, 1, 0)),
}


def sum_zero_key(g) -> bytes:
    """Key of the action of a SymmetryElement or a 12x12 Mat on the
    sum-zero subspace: two symmetries are the same group element when
    their keys agree."""
    mat = g.mat if isinstance(g, SymmetryElement) else g
    return _restrict(mat.array, mat.n).tobytes()


def compose(a: SymmetryElement, b: SymmetryElement) -> SymmetryElement:
    """The symmetry a after b, as the product of their matrices."""
    return SymmetryElement(a.mat * b.mat)


def mulclose(gens) -> dict[bytes, Mat]:
    """Multiplicative closure of 12x12 matrices, breadth first, keyed by
    their action on the sum-zero subspace; values are representative
    matrices."""
    mats = [g.mat if isinstance(g, SymmetryElement) else g for g in gens]
    els = {}
    for g in mats:
        els.setdefault(sum_zero_key(g), g)
    boundary = list(els.values())
    while boundary:
        fresh = []
        for a in mats:
            for b in boundary:
                c = a * b
                k = sum_zero_key(c)
                if k not in els:
                    els[k] = c
                    fresh.append(c)
        boundary = fresh
    return els


def integer_det(a) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    m = [[int(x) for x in row] for row in a]
    k = len(m)
    sign = 1
    prev = 1
    for t in range(k - 1):
        if m[t][t] == 0:
            for i in range(t + 1, k):
                if m[i][t]:
                    m[t], m[i] = m[i], m[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
        prev = m[t][t]
    return sign * m[k - 1][k - 1]


def rational_rank(rows) -> int:
    """Rank over Q of a matrix given as an iterable of rows of ints/Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [inv * x for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


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
def h0_rank(c: DivClass) -> int:
    """Dimension of global sections of a class d*H - sum(m_i E_i), by
    interpolation: plane curves of degree d with multiplicity m_i at the
    four points (1:0:0), (0:1:0), (0:0:1), (1:1:1), counted as the
    degree-d monomials minus the rank of all partial-derivative vanishing
    conditions of order below m_i, over exact rationals.  Negative d
    gives 0; negative multiplicities are dropped (exceptional fixed
    components do not constrain sections)."""
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
    return len(monos) - rational_rank(rows)


def h0_by_peeling(c: DivClass) -> int:
    """The closed form of h0 on Y one class at a time: while -K.D >= 0,
    subtract the first branch curve that D meets negatively (a fixed
    component); once there is none, Riemann-Roch 1 + D.(D - K)/2, and 0
    once -K.D < 0."""
    ky = canonical_class()
    while intersect(ky, c) <= 0:
        fixed = next((cls for _, cls in configuration().curves if intersect(c, cls) < 0), None)
        if fixed is None:
            return 1 + (intersect(c, c) - intersect(c, ky)) // 2
        c = c - fixed
    return 0


def coeffs_scalar(t: SixTuple, chi, n=5) -> tuple[int, ...]:
    """The residues of one character, by chi_eval on each loop image."""
    return tuple(chi_eval(chi, img, n) for img in loop_images(t, n))


def sheaf_scalar(t: SixTuple, chi, n=5) -> CharacterSheaf:
    """The chi-eigensheaf class one character at a time: the weighted
    branch sum of coeffs_scalar and its exact division by n
    (ArithmeticError when n does not divide it)."""
    weighted = ZERO
    for c, curve in zip(coeffs_scalar(t, chi, n), configuration().curves):
        weighted = weighted + c * curve.cls
    if any(x % n for x in weighted):
        raise ArithmeticError(
            f"weighted branch sum {weighted} for chi={chi} is not divisible by {n}"
        )
    return CharacterSheaf(reduce_vec(chi, n), DivClass(*(x // n for x in weighted)))


def invariants_scalar(t: SixTuple, n=5) -> SurfaceInvariants:
    """The invariants one character at a time: the classes L of
    sheaf_scalar, p_g the sum of the interpolation ranks h0_rank(K_Y + L),
    chi(O_X) the sum of 1 + L.(L + K_Y)/2, K^2 = n^2 (K_Y + (n-1)/n D)^2
    over the rationals and q = p_g + 1 - chi."""
    ky = canonical_class()
    classes = [sheaf_scalar(t, (a, b), n).cls for b in range(n) for a in range(n)]
    pg = sum(h0_rank(ky + c) for c in classes)
    chi = sum(1 + Fraction(intersect(c, c + ky), 2) for c in classes)
    adj = ky + Fraction(n - 1, n) * configuration().total_branch_class()
    return SurfaceInvariants(int(n * n * intersect(adj, adj)), int(chi), pg, int(pg + 1 - chi))


def euler_number(p) -> int:
    """e(X) of a (Z/p)^2 cover of Y from the configuration alone
    (Hirzebruch, Arrangements of lines and algebraic surfaces, 1983).
    e(Y) = 2 + rank Pic(Y); the branch curves are rational and meet in
    nodes, so e(D) = 2 #curves - #nodes.  X has p^2 points over each
    point off D, p over each other point of D (inertia of order p) and
    one over each node, so e(X) = p^2 (e(Y) - e(D)) + p (e(D) - #nodes) + #nodes."""
    curves, nodes = configuration().curves, len(incidences())
    e_y = 2 + len(curves[0].cls)
    e_d = 2 * len(curves) - nodes
    return p * p * (e_y - e_d) + p * (e_d - nodes) + nodes


def pencils() -> tuple[tuple[int, ...], ...]:
    """The five conic pencils of Y, pencil k the positions of the four
    curves whose CURVE_PAIRS label holds k: the disjoint sections of the
    k-th conic bundle Y -> P^1 (for k = 0, the conics through the four
    points, whose sections are E0, ..., E3)."""
    return tuple(tuple(c for c, pair in enumerate(CURVE_PAIRS) if k in pair) for k in range(5))


def pencil_counts(rows, n=5) -> np.ndarray:
    """The pencils of each (N, 12) residue row: those whose four loop
    images lie on one line of (Z/n)^2, every two of them dependent.  Then
    the bundle's fibres are disconnected upstairs, and the Stein
    factorization maps X onto a curve of genus (n - 1)/2, so a row with a
    pencil has q >= (n - 1)/2 (Catanese, Invent. Math. 104, 1991).  That
    q equals (n - 1)/2 times the count is proved only as this
    inequality; the tests gate the equality on the forms."""
    images = loop_image_rows(rows, n)
    counts = np.zeros(len(images), dtype=np.int64)
    for curves in pencils():
        x, y = images[:, curves, 0], images[:, curves, 1]
        cross = x[:, :, None] * y[:, None, :] - y[:, :, None] * x[:, None, :]
        counts += (cross % n == 0).all(axis=(1, 2))
    return counts


def char_order(chi, n=5) -> int:
    a, b = reduce_vec(chi, n)
    return n // gcd(a, b, n)


def epsilon_by_order(chi, c1, chi2, c2, n=5) -> tuple[int, ...]:
    """The carry vector of a character pair from residue rows c1 of chi and
    c2 of chi2, for any modulus: with d, d' the character orders, M their
    lcm and lam = M/d, lam' = M/d', the i-th entry is 1 iff
    lam*D_i + lam'*D'_i >= M, where D, D' are the branch residues scaled
    down to Z/d resp. Z/d'."""
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


def failures_by_cross_products(rows, n=5) -> np.ndarray:
    """(N, 26) failed conditions of (N, 12) residue rows, in the column
    order of covers._failures: the loop images as int64 residues, the
    incidences as 2x2 determinants from their cross products."""
    pairs = np.asarray(rows, dtype=np.int64).reshape(-1, 6, 2)
    images = loop_image_rows(pairs, n)
    cross = images[:, _INCIDENT[:, 0]] * images[:, _INCIDENT[:, 1], ::-1]
    return np.concatenate(
        [(pairs.sum(axis=1) % n).any(axis=1, keepdims=True), ~images.any(axis=2),
         (cross[..., 0] - cross[..., 1]) % n == 0],
        axis=1,
    )


def admissible_array_by_einsum(n=5) -> np.ndarray:
    """The normal forms expanded by every GL(2) matrix in one int16
    einsum, then sorted by their base-n codes: read-only int16 rows."""
    forms = normal_forms(n).reshape(-1, 6, 2).astype(np.int16)
    gl2 = gf.gl2_array(n).astype(np.int16)
    rows = np.einsum("gij,ksj->gksi", gl2, forms).reshape(-1, 12) % n
    rows = rows[np.argsort(encode_rows(rows, n), kind="stable")]
    rows.flags.writeable = False
    return rows


def enumerate_admissible(n=5) -> list[SixTuple]:
    """All admissible six-tuples, lexicographically ordered."""
    return [SixTuple.from_residues(row) for row in admissible_array(n)]


def is_totally_ramified(t: SixTuple, n=5) -> bool:
    """Whether the ten loop images span (Z/n)^2 (no unramified subcover)."""
    images = [img for img in loop_images(t, n) if img != (0, 0)]
    return any(
        is_independent(v, w, n) for i, v in enumerate(images) for w in images[i + 1:]
    )


@lru_cache(maxsize=None)
def group_elements(n=5) -> np.ndarray:
    """Every element of the symmetry group as a read-only int8 (k, 10, 10)
    array: all products of an element of the breadth-first swap closure
    and a GL(2) block, deduplicated by value, so that their number is
    counted, not derived."""
    s5 = _restrict([m.array for m in mulclose(s5_generators(n)).values()], n).astype(np.int64)
    gl2 = gf.gl2_array(n)
    if len(s5) * len(gl2) * 100 > MAX_ARRAY_BYTES:
        raise ValueError(f"modulus {n}: the group would exceed {MAX_ARRAY_BYTES >> 20} MiB")
    blocks = _restrict([Mat.block_diagonal(g, 6, n).array for g in gl2], n).astype(np.int64)
    prods = np.empty((len(s5), len(gl2), 10, 10), dtype=np.int8)
    for i, s in enumerate(s5):
        prods[i] = s @ blocks % n
    prods = prods.reshape(-1, 10, 10)
    _, first = np.unique(prods.reshape(len(prods), 100).view("V100").ravel(), return_index=True)
    elements = prods[np.sort(first)]
    elements.flags.writeable = False
    return elements


def _locate(sorted_codes, codes) -> tuple[np.ndarray, np.ndarray]:
    """Positions of codes in sorted_codes, and the mask of codes absent."""
    pos = np.searchsorted(sorted_codes, codes)
    found = pos < len(sorted_codes)
    found[found] = sorted_codes[pos[found]] == codes[found]
    return pos, ~found


def normal_form_index_by_search(rows, n=5) -> np.ndarray:
    """normal_form_index by arithmetic and search: all twelve residues
    of g^-1 . row, for g the matrix with columns u1 and v1, encoded and
    searched among the encoded normal forms.  ValueError for a row
    outside every class."""
    pairs = np.asarray(rows, dtype=np.int64).reshape(-1, 6, 2)
    a, c, b, d = (pairs[:, slot, i, None] for slot in (0, 3) for i in (0, 1))
    scale = np.array([pow(x, -1, n) if x else 0 for x in range(n)])[(a * d - b * c) % n]
    x, y = pairs[:, :, 0], pairs[:, :, 1]
    forms = np.stack([d * x - b * y, a * y - c * x], axis=2).reshape(len(pairs), 12) * scale % n
    pos, bad = _locate(encode_rows(normal_forms(n), n), encode_rows(forms, n))
    if bad.any():
        raise ValueError("a row is not in the GL(2)-orbit of an admissible normal form")
    return pos


def least_member_codes_by_scan(forms, n=5) -> np.ndarray:
    """Code of the lexicographically least member of each form's
    GL(2)-class, by a scan.  u1 is never zero, so that member has
    u1 = (0,1): it is the least image under the p(p-1) matrices
    g = [[0, a], [1, b]], a != 0.  As g.(x, y) = (a y, x + b y), the code
    of g.f is a term in a plus a term in b, and the two are minimised
    separately."""
    x, y = forms[:, 0::2].astype(np.int64), forms[:, 1::2].astype(np.int64)
    weights = np.uint64(n) ** np.arange(11, -1, -1, dtype=np.uint64)
    in_a = ((a * y % n).astype(np.uint64) @ weights[0::2] for a in range(1, n))
    in_b = (((x + b * y) % n).astype(np.uint64) @ weights[1::2] for b in range(n))
    return reduce(np.minimum, in_a) + reduce(np.minimum, in_b)


class Orbit(NamedTuple):
    """One orbit on a set of rows, with the positions of its members."""

    representative: SixTuple
    size: int
    stabilizer_order: int
    member_indices: np.ndarray


def _orbit_list(rows, least, lex_order, group_order):
    """Orbits and per-row labels from each row's least position in
    lex_order (the lexicographic argsort) over its orbit."""
    ranks, labels = np.unique(least, return_inverse=True)
    out = []
    for oid, rank in enumerate(ranks):
        members = np.flatnonzero(labels == oid)
        if group_order % len(members):
            raise AssertionError("orbit size does not divide the group order")
        out.append(Orbit(SixTuple.from_residues(rows[lex_order[rank]]), len(members),
                         group_order // len(members), members))
    return out, labels.astype(np.int32)


def orbits(tuples, n=5, generators=None) -> list[Orbit]:
    """Partition of a closed tuple set into orbits of the group the
    generators generate (default: all seven), each generator matrix
    permuting the rows themselves.  Raises if a generator leaves the set."""
    if isinstance(tuples, np.ndarray):
        rows = np.asarray(tuples, dtype=np.int64) % n
    else:
        rows = np.array([t.residues for t in tuples], dtype=np.int64) % n
    if len(rows) == 0:
        return []
    gens = list(default_generators(n) if generators is None else generators)
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
    group_order = len(group_elements(n)) if generators is None else len(mulclose(gens))
    return _orbit_list(rows, _least(moves, np.argsort(order)), order, group_order)[0]


class ExpandedPartition(NamedTuple):
    """Orbit decomposition of the expanded admissible array, with a label
    and a base-n code per row (aligned with admissible_array(n))."""

    orbits: tuple[Orbit, ...]
    labels: np.ndarray
    codes: np.ndarray

    def orbit_of(self, t: SixTuple, n=5) -> int:
        pos, bad = _locate(self.codes, encode_rows(np.array([t.residues]), n))
        if bad[0]:
            raise ValueError(f"{t.format()} is not an admissible tuple")
        return int(self.labels[pos[0]])


@lru_cache(maxsize=None)
def expanded_partition(n=5) -> ExpandedPartition:
    """Every admissible row labelled by its orbit: each row's GL(2)-class,
    the swap orbits of the classes, and the least row of each orbit."""
    rows = admissible_array(n)
    codes = encode_rows(rows, n)
    is_form = (rows[:, [0, 1, 6, 7]] == [1, 0, 0, 1]).all(axis=1)
    classes = normal_form_index_by_search(rows, n)
    moves = [
        normal_form_index_by_search(g.mat.apply_rows(rows[is_form]), n) for g in s5_generators(n)
    ]
    _, first = np.unique(classes, return_index=True)  # rows are sorted
    least = _least(moves, first)[classes]
    parts, labels = _orbit_list(rows, least, np.arange(len(rows)), group_closure(n).order)
    return ExpandedPartition(tuple(parts), labels, codes)


def _cycle_length(s, a) -> int:
    """Length of the cycle of the permutation s through a."""
    k, b = 1, s[a]
    while b != a:
        k, b = k + 1, s[b]
    return k


def cycle_types() -> list[tuple[tuple[int, ...], int]]:
    """One permutation of {0, ..., 4} per cycle type, the first in
    lexicographic order, with the size of its conjugacy class: the
    permutations grouped by the sorted cycle lengths of their points."""
    classes = {}
    for s in permutations(range(5)):
        classes.setdefault(tuple(sorted(_cycle_length(s, a) for a in range(5))), [s, 0])[1] += 1
    return [(s, size) for s, size in classes.values()]


def _star_word(perm) -> list[int]:
    """Labels h of transpositions (0 h) whose product, left to right, is
    the permutation perm (or its inverse): each cycle (a1 ... ak) as
    (a1 ak) ... (a1 a2), and each (a b) with a, b != 0 as (0a)(0b)(0a)."""
    word, seen = [], set()
    for a in range(5):
        cycle = [a]
        while perm[cycle[-1]] != a:
            cycle.append(perm[cycle[-1]])
        if a in seen or len(cycle) == 1:
            continue
        seen.update(cycle)
        for b in reversed(cycle[1:]):
            word += [b] if a == 0 else [a, b, a]
    return word


def star_swap(perm, n=5) -> Mat:
    """The 12x12 action of a label permutation, multiplied out of the
    hand-written swap table: it acts as perm or as its inverse, which fix
    the same classes."""
    out = Mat.identity(12, n)
    for h in _star_word(perm):
        out = out * Mat(np.kron(SWAP_SLOTS[f"(0{h})"], np.eye(2, dtype=np.int64)), n)
    return out


def fixes_class(perm, rows, n=5) -> np.ndarray:
    """Whether the label permutation perm fixes the GL(2)-class of each
    admissible (N, 12) row: the class of perm . row, found by search, is
    the row's own."""
    image = star_swap(perm, n).apply_rows(rows)
    return normal_form_index_by_search(image, n) == normal_form_index_by_search(rows, n)


def burnside_count(n=5, fixes=fixes_class) -> int:
    """The number of orbits by Burnside's lemma, with no orbit built.
    GL(2) acts freely, so the orbits are the Sym(5)-orbits on the
    GL(2)-classes, and their number is the mean over the 120 permutations
    of the classes each fixes.  That count is constant on a conjugacy
    class: one permutation per cycle type, weighted by the class size.
    fixes(perm, rows, n) is fixes_class or another route to the same
    mask."""
    forms = normal_forms(n)
    fixed = sum(size * int(fixes(s, forms, n).sum()) for s, size in cycle_types())
    if fixed % 120:
        raise AssertionError(f"the fixed classes sum to {fixed}, not a multiple of 120")
    return fixed // 120


def pg_values_rowwise(rows, n=5) -> np.ndarray:
    """Geometric genus of every row, from all n^2 classes of every row,
    with the section counts by interpolation (h0_rank)."""
    images = loop_image_rows(rows, n)
    cls_rows = np.array(
        [curve.cls for curve in configuration().curves], dtype=np.int64
    )
    ky = np.array(canonical_class(), dtype=np.int64)
    pg = np.zeros(len(images), dtype=np.int64)
    if len(images) == 0:  # the column ranges below need a row
        return pg
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
            vals = np.array([h0_rank(DivClass(*map(int, shifted[i]))) for i in first], dtype=np.int64)
            pg += vals[inverse]
    return pg


@lru_cache(maxsize=None)
def admissible_pg(n=5) -> np.ndarray:
    """pg_values_rowwise over all of admissible_array(n), computed once."""
    return pg_values_rowwise(admissible_array(n), n)


def reduce_generators_pairwise(pairs):
    """The minimal exponent pairs of a monomial ideal: those that no other
    pair dominates componentwise, every pair tested against every other."""
    pairs = set(tuple(map(int, p)) for p in pairs)
    if not pairs:
        raise ValueError("empty generator set")
    return {
        p
        for p in pairs
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs)
    }


def newton_multiplicity(generators) -> int:
    """Samuel multiplicity of a monomial ideal of finite colength in two
    variables: twice the area between the axes and its Newton polygon
    (B. Teissier, Monomial ideals, binomial ideals, polynomial ideals,
    2004).  The polygon is the lower convex hull of the exponent pairs,
    from (0, b) to (a, 0); no blow-up is involved."""
    hull = []
    for p in sorted(generators):
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ) <= 0:
            hull.pop()
        hull.append(p)
    if hull[0][0] or hull[-1][1]:
        raise ValueError(f"{sorted(generators)} does not have finite colength")
    return sum(q[0] * p[1] - p[0] * q[1] for p, q in zip(hull, hull[1:]))


def resolve_type_by_ideals(ideal: MonomialIdeal2D, _depth_budget=None) -> BasePointType:
    """The blow-up recursion of `canonical.resolve_type` on whole ideals:
    each chart is built as a MonomialIdeal2D and checked for a common
    factor again before it is resolved."""
    if ideal.common_factor() != (0, 0):
        raise ValueError(f"ideal {ideal.format()} has a common factor: fixed-curve leakage")
    if _depth_budget is None:
        top = max(a + b for a, b in ideal.generators)
        _depth_budget = top * top + 1
    gens = ideal.generators
    m = min(a + b for a, b in gens)
    if m == 0:
        return BasePointType()
    if _depth_budget <= 0:
        raise RuntimeError(f"blow-up of {ideal.format()} does not terminate")
    chart_a = MonomialIdeal2D.from_exponents((a + b - m, b) for a, b in gens)
    chart_b = MonomialIdeal2D.from_exponents((a, a + b - m) for a, b in gens)
    children = (resolve_type_by_ideals(c, _depth_budget - 1) for c in (chart_a, chart_b))
    return BasePointType(m, tuple(child for child in children if child))
