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

from dataclasses import dataclass
from typing import NamedTuple

from .covers import SixTuple
from .gf import DEFAULT_MODULUS, Vec2
from .picard import CURVE_LABELS, configuration, incidences, intersect
from .sheaves import canonical_class, coeffs, h0, invariants, ram_curve_numbers, sheaf


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
    ky = canonical_class()
    entries = []
    for a in range(n):
        for b in range(n):
            count = h0(ky + sheaf(t, (a, b), n).cls)
            if count > 1:
                raise AssertionError(
                    f"h0(K + L({a},{b})) = {count}: one monomial per character is not a basis"
                )
            if count:
                expo = tuple(n - 1 - c for c in coeffs(t, (a, b), n))
                entries.append(((a, b), expo))
    if not entries:
        raise ValueError(f"tuple {t.format()} has no canonical sections")
    return CanonicalBasis(tuple(entries))


def fixed_part(b: CanonicalBasis) -> tuple[int, ...]:
    """Multiplicity of each ramification curve in the fixed divisor: the
    componentwise minimum of the exponent vectors."""
    rows = b.exponent_rows()
    return tuple(min(col) for col in zip(*rows))


@dataclass(frozen=True)
class MonomialIdeal2D:
    """Monomial ideal in two local coordinates, kept as its minimal
    generating exponent pairs; {(0, 0)} is the unit ideal."""

    generators: frozenset[tuple[int, int]]

    @classmethod
    def from_exponents(cls, pairs) -> "MonomialIdeal2D":
        return cls(frozenset(_reduce_generators(pairs)))

    @property
    def is_unit(self) -> bool:
        return (0, 0) in self.generators

    def common_factor(self) -> tuple[int, int]:
        return (
            min(a for a, _ in self.generators),
            min(b for _, b in self.generators),
        )

    def sorted_generators(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.generators))

    def format(self) -> str:
        def mono(a, b):
            if (a, b) == (0, 0):
                return "1"
            sx = "" if a == 0 else ("x" if a == 1 else f"x^{a}")
            sy = "" if b == 0 else ("y" if b == 1 else f"y^{b}")
            return sx + sy

        gens = sorted(self.generators, key=lambda p: (-p[0], p[1]))
        return "(" + ", ".join(mono(a, b) for a, b in gens) + ")"


def _reduce_generators(pairs):
    pairs = set(tuple(map(int, p)) for p in pairs)
    if not pairs:
        raise ValueError("empty generator set")
    return {
        p
        for p in pairs
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs)
    }


@dataclass(frozen=True)
class BasePointType:
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
        node = self
        while node:
            if len(node.children) > 1:
                return False
            node = node.children[0] if node.children else None
            if node is None:
                break
        return True

    def as_chain(self) -> tuple[int, ...]:
        if not self.is_chain:
            raise ValueError(f"type {self.multiplicities()} branches")
        return self.multiplicities()


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
    pairs = []
    for _, expo in b.entries:
        res = tuple(e - f for e, f in zip(expo, fixed))
        if any(x < 0 for x in res):
            raise ValueError("fixed part exceeds a basis exponent")
        pairs.append((res[i], res[j]))
    return MonomialIdeal2D.from_exponents(pairs)


def resolve_type(ideal: MonomialIdeal2D, _depth_budget=None) -> BasePointType:
    """Infinitely-near multiplicity type of a base point given by a
    monomial ideal with no common factor.

    The multiplicity is the minimal total degree m of a generator.  If
    m = 0 the point is not a base point.  Otherwise blow up: in one
    chart (a, b) becomes (a+b-m, b), in the other (a, a+b-m), and the
    only possible infinitely-near base points are the two chart origins,
    which are resolved recursively.
    """
    if ideal.common_factor() != (0, 0):
        raise ValueError(
            f"ideal {ideal.format()} has a common factor: fixed-curve leakage"
        )
    if _depth_budget is None:
        # depth <= number of infinitely-near points <= local intersection
        # multiplicity of two generic members <= (max generator degree)^2
        top = max(a + b for a, b in ideal.generators)
        _depth_budget = top * top + 1
    gens = ideal.sorted_generators()
    m = min(a + b for a, b in gens)
    if m == 0:
        return BasePointType()
    if _depth_budget <= 0:
        raise RuntimeError(f"blow-up of {ideal.format()} does not terminate")
    chart_a = MonomialIdeal2D.from_exponents((a + b - m, b) for a, b in gens)
    chart_b = MonomialIdeal2D.from_exponents((a, a + b - m) for a, b in gens)
    children = tuple(
        child
        for chart in (chart_a, chart_b)
        for child in (resolve_type(chart, _depth_budget - 1),)
        if child
    )
    return BasePointType(m, children)


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


def _is_prime(k):
    return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def degree_certificate(t: SixTuple, n=DEFAULT_MODULUS) -> CanonicalReport:
    """Canonical-map certificate: fixed part, base points with types, the
    self-intersection of the movable part, and the product
    (map degree) * (image degree) = (K - F)^2 - sum of squared
    multiplicities.  When the product is prime and the image cannot be a
    plane (four independent sections: p_g = 4 and basis checks that each
    eigenspace is at most one-dimensional), the map is certified birational.
    """
    inv = invariants(t, n)
    if inv.pg != 4:
        raise ValueError(
            f"tuple {t.format()} has pg={inv.pg}; the canonical image is not "
            "a surface in 3-space"
        )
    b = basis(t, n)
    fixed = fixed_part(b)
    rams = ram_curve_numbers(t, n)
    curves = configuration().curves

    k_dot_f = sum(f * r.kdot for f, r in zip(fixed, rams))
    f_squared = sum(
        fixed[i] * fixed[j] * intersect(curves[i].cls, curves[j].cls)
        for i in range(10)
        for j in range(10)
    )
    moving = inv.k2 - 2 * k_dot_f + f_squared

    points = []
    for pair in sorted(incidences()):
        ideal = local_ideal(b, fixed, pair, n)
        if ideal.is_unit:
            continue
        bp_type = resolve_type(ideal)
        labels = (CURVE_LABELS[pair[0]], CURVE_LABELS[pair[1]])
        points.append(BasePoint(pair, labels, ideal, bp_type))

    square_sum = sum(bp.type.square_sum() for bp in points)
    degree_product = moving - square_sum
    if _is_prime(degree_product):
        birational, why = True, "prime-degree argument"
    else:
        birational, why = False, "not certified: composite degree product"
    return CanonicalReport(
        tuple=t,
        basis=b,
        fixed_part=fixed,
        base_points=tuple(points),
        moving_selfint=moving,
        type_square_sum=square_sum,
        degree_product=degree_product,
        birational=birational,
        justification=why,
    )
