"""The canonical system of a cover: monomial basis, fixed part, base
points with their infinitely-near resolution, and the image-degree
certificate.

Global canonical sections of the cover are monomials in local equations
x1..x10 of the ten ramification curves, one monomial per character with
a nonvanishing twisted section count; the exponent on x_i is (n-1) minus
the branch residue of the character there.  The base scheme of the
movable part is supported at the intersection points of ramification
curve pairs, where it is a monomial ideal in the two local coordinates.
Blowing such an ideal up chart by chart resolves each base point into a
chain (in general a tree) of multiplicities whose squares measure how
much of the self-intersection the base scheme eats.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .covers import SixTuple, require_admissible
from .gf import DEFAULT_MODULUS, Vec2, is_prime
from .picard import CURVE_LABELS, DivClass, incidences, intersect
from .sheaves import CURVE_CLASSES, _admitted, _characters, _integral, adjunction_class


class CanonicalBasis(NamedTuple):
    """Monomial basis entries (character, exponent 10-vector) of the
    canonical system, sorted by character."""

    entries: tuple[tuple[Vec2, tuple[int, ...]], ...]

    def exponent_rows(self):
        return tuple(e for _, e in self.entries)


def basis(t: SixTuple, n=DEFAULT_MODULUS) -> CanonicalBasis:
    """One monomial x1^e1...x10^e10 per character chi with a nonzero
    twisted section count; e_i = (n-1) - coeff_i(chi).

    The monomials span H^0(K) only when every such count is exactly 1,
    which is checked: the eigenspaces are then one-dimensional and the
    monomials independent.
    """
    table, numbers = _integral(t, n)
    expos = (n - 1 - table.residues[0]).tolist()
    per_character = zip(map(tuple, _characters(n).tolist()), numbers[:, 0].tolist(), expos)
    # sorted by character: they are distinct, so no exponents are compared
    entries = sorted((chi, count, expo) for chi, count, expo in per_character if count)
    for (a, b), count, _ in entries:
        if count > 1:
            raise AssertionError(
                f"h0(K + L({a},{b})) = {count}: one monomial per character is not a basis"
            )
    if not entries:
        raise ValueError(f"tuple {t.format()} has no canonical sections")
    return CanonicalBasis(tuple((chi, tuple(expo)) for chi, _, expo in entries))


def fixed_part(b: CanonicalBasis) -> tuple[int, ...]:
    """Multiplicity of each ramification curve in the fixed divisor: the
    componentwise minimum of the exponent vectors."""
    return _fixed_part(b.exponent_rows())


def _fixed_part(rows) -> tuple[int, ...]:
    return tuple(min(col) for col in zip(*rows))


class MonomialIdeal2D(NamedTuple):
    """Monomial ideal in two local coordinates, kept as its minimal
    generating exponent pairs in sorted order; ((0, 0),) is the unit ideal."""

    generators: tuple[tuple[int, int], ...]

    @classmethod
    def from_exponents(cls, pairs) -> "MonomialIdeal2D":
        return cls(_reduce_generators(pairs))

    @property
    def is_unit(self) -> bool:
        return (0, 0) in self.generators

    def common_factor(self) -> tuple[int, int]:
        return (
            min(a for a, _ in self.generators),
            min(b for _, b in self.generators),
        )

    def format(self) -> str:
        def mono(a, b):
            if (a, b) == (0, 0):
                return "1"
            sx = "" if a == 0 else ("x" if a == 1 else f"x^{a}")
            sy = "" if b == 0 else ("y" if b == 1 else f"y^{b}")
            return sx + sy

        # minimal generators have distinct a, so this is descending a
        return "(" + ", ".join(mono(a, b) for a, b in reversed(self.generators)) + ")"


def _reduce_generators(pairs):
    """The minimal pairs, sorted: in sorted order, those whose b is below every b before."""
    minimal, low = [], None
    for a, b in sorted({(int(a), int(b)) for a, b in pairs}):
        if low is None or b < low:
            minimal.append((a, b))
            low = b
    if not minimal:
        raise ValueError("empty generator set")
    return tuple(minimal)


class BasePointType(NamedTuple):
    """Multiplicity tree of a base point under successive blow-ups.

    Every case arising from the quadrangle covers is a chain
    (n1, n2, ..., nk); trees are kept to make branching detectable
    rather than silently flattened.  Falsy when empty (no base point).
    """

    multiplicity: int = 0
    children: tuple["BasePointType", ...] = ()

    def __bool__(self):
        return self.multiplicity > 0

    def multiplicities(self) -> tuple[int, ...]:
        if not self:
            return ()
        out = [self.multiplicity]
        for child in self.children:
            out.extend(child.multiplicities())
        return tuple(out)

    def square_sum(self) -> int:
        return sum(m * m for m in self.multiplicities())

    @property
    def is_chain(self) -> bool:
        return len(self.children) <= 1 and all(child.is_chain for child in self.children)


def _local_ideals(rows, fixed, pairs) -> list[MonomialIdeal2D]:
    """local_ideal at each incident pair of the exponent rows, the fixed
    part divided out once."""
    rows = [[e - f for e, f in zip(expo, fixed)] for expo in rows]
    if any(x < 0 for row in rows for x in row):
        raise ValueError("fixed part exceeds a basis exponent")
    return [MonomialIdeal2D.from_exponents((row[i], row[j]) for row in rows) for i, j in pairs]


def local_ideal(b: CanonicalBasis, fixed, pair, n=DEFAULT_MODULUS) -> MonomialIdeal2D:
    """Local base-scheme ideal of the movable part at the intersection
    point of the ramification curves of an incident pair.

    Each basis monomial, with the fixed part divided out, restricts to
    x^e_i y^e_j in the local coordinates of the pair; the other
    coordinates are units there.
    """
    i, j = sorted(pair)
    if (i, j) not in incidences():
        raise ValueError(f"curves {CURVE_LABELS[i]} and {CURVE_LABELS[j]} do not meet")
    return _local_ideals(b.exponent_rows(), fixed, [(i, j)])[0]


def resolve_type(ideal: MonomialIdeal2D) -> BasePointType:
    """Infinitely-near multiplicity type of a base point given by a
    monomial ideal with no common factor.

    The multiplicity is the minimal total degree m of a generator.  If
    m = 0 the point is not a base point.  Otherwise blow up: in one
    chart (a, b) becomes (a+b-m, b), in the other (a, a+b-m), and the
    only possible infinitely-near base points are the two chart origins,
    which are resolved recursively.  A chart has no common factor
    either: its least a + b - m is 0 and its least b (or a) is unchanged.
    """
    if ideal.common_factor() != (0, 0):
        raise ValueError(
            f"ideal {ideal.format()} has a common factor: fixed-curve leakage"
        )
    gens = ideal.generators
    # depth <= number of infinitely-near points <= local intersection
    # multiplicity of two generic members <= (max generator degree)^2
    top = max(a + b for a, b in gens)
    return _resolve(gens, top * top + 1)


def _resolve(gens, budget) -> BasePointType:
    """resolve_type on the sorted minimal generators, no common factor."""
    m = min(a + b for a, b in gens)
    if m == 0:
        return BasePointType()
    if budget <= 0:
        raise RuntimeError(f"blow-up of {MonomialIdeal2D(gens).format()} does not terminate")
    charts = (((a + b - m, b) for a, b in gens), ((a, a + b - m) for a, b in gens))
    children = (_resolve(_reduce_generators(c), budget - 1) for c in charts)
    return BasePointType(m, tuple(child for child in children if child))


class BasePoint(NamedTuple):
    pair: tuple[int, int]
    labels: tuple[str, str]
    ideal: MonomialIdeal2D
    type: BasePointType


class CanonicalReport(NamedTuple):
    """Full canonical-map analysis of a regular cover datum."""

    tuple: SixTuple
    basis: CanonicalBasis
    fixed_part: tuple[int, ...]
    base_points: tuple[BasePoint, ...]
    moving_selfint: int
    type_square_sum: int
    degree_product: int
    birational: bool
    justification: str

    def as_dict(self) -> dict:
        return {
            "tuple": self.tuple.format(),
            "basis": [
                {"chi": list(chi), "exponents": list(expo)}
                for chi, expo in self.basis.entries
            ],
            "fixed_part": list(self.fixed_part),
            "base_points": [
                {
                    "pair": list(bp.pair),
                    "curves": list(bp.labels),
                    "ideal": bp.ideal.format(),
                    "type": list(bp.type.multiplicities()),
                    "is_chain": bp.type.is_chain,
                }
                for bp in self.base_points
            ],
            "moving_selfint": self.moving_selfint,
            "type_square_sum": self.type_square_sum,
            "degree_product": self.degree_product,
            "birational": self.birational,
            "justification": self.justification,
        }


def degree_certificate(t: SixTuple, n=DEFAULT_MODULUS) -> CanonicalReport:
    """Canonical-map certificate: fixed part, base points with types, the
    self-intersection of the movable part, and the product
    (map degree) * (image degree) = (K - F)^2 - sum of squared
    multiplicities.  When the product is prime and the image cannot be a
    plane (four basis monomials, each eigenspace at most one-dimensional),
    the map is certified birational.  (K - F)^2 is the self-intersection
    of the adjunction class less the class of F.  Modulus 5 only.

    Admissibility, the basis and its size are checked on every call.  The
    base-scheme analysis is resolved once per set of exponent rows
    (_base_scheme): GL(2) only permutes the characters, so g.f has the
    rows of f in another order, and the 57600 regular tuples at n = 5
    share 120 row sets, one per GL(2)-class.  The cached values are
    immutable.
    """
    if n != 5:  # the plain check: no n^2 characters are evaluated for a refused call
        require_admissible(t, n)
        raise ValueError("the canonical certificate is only defined for modulus 5")
    _admitted(t, n)
    b = basis(t, n)
    if len(b.entries) != 4:
        raise ValueError(
            f"tuple {t.format()} has pg={len(b.entries)}; the canonical image is not "
            "a surface in 3-space"
        )
    fixed, points, moving, square_sum = _base_scheme(tuple(sorted(b.exponent_rows())), n)
    degree_product = moving - square_sum
    if is_prime(degree_product):
        birational, why = True, "prime-degree argument"
    else:
        birational, why = False, "not certified: composite degree product"
    return CanonicalReport(
        tuple=t,
        basis=b,
        fixed_part=fixed,
        base_points=points,
        moving_selfint=moving,
        type_square_sum=square_sum,
        degree_product=degree_product,
        birational=birational,
        justification=why,
    )


@lru_cache(maxsize=None)
def _base_scheme(rows, n):
    """Fixed part, base points with their types, (K - F)^2 and the sum of
    squared multiplicities of a canonical system, from its exponent rows
    in sorted order: none of these depends on which character carries
    which row, so GL(2)-images share one entry."""
    fixed = _fixed_part(rows)
    moving_part = adjunction_class(n) - DivClass(*(fixed @ CURVE_CLASSES).tolist())
    points, pairs = [], sorted(incidences())
    for (i, j), ideal in zip(pairs, _local_ideals(rows, fixed, pairs)):
        if not ideal.is_unit:
            labels = (CURVE_LABELS[i], CURVE_LABELS[j])
            points.append(BasePoint((i, j), labels, ideal, resolve_type(ideal)))
    square_sum = sum(bp.type.square_sum() for bp in points)
    return fixed, tuple(points), intersect(moving_part, moving_part), square_sum
