import random

import pytest
import sympy

from quadcover import canonical, golden
from quadcover.canonical import MonomialIdeal2D
from quadcover.covers import SixTuple


def I(*pairs):
    return MonomialIdeal2D.from_exponents(pairs)


def test_basis_u3(u3):
    b = canonical.basis(u3)
    assert dict(b.entries) == golden.CANONICAL_U3["basis"]
    assert [chi for chi, _ in b.entries] == [(1, 3), (2, 1), (3, 2), (4, 1)]


def test_basis_sizes(u1, u3):
    assert len(canonical.basis(u1).entries) == 6
    assert len(canonical.basis(u3).entries) == 4


def test_basis_rejects_non_admissible():
    with pytest.raises(ValueError):
        canonical.basis(SixTuple.from_residues([0] * 12))


def test_basis_rejects_multidimensional_eigenspace(u3, monkeypatch):
    # one monomial per character spans H^0(K) only when every count is 1
    monkeypatch.setattr(canonical, "h0", lambda c: 2)
    with pytest.raises(AssertionError, match="not a basis"):
        canonical.basis(u3)


def test_fixed_part(u3):
    b = canonical.basis(u3)
    fixed = canonical.fixed_part(b)
    assert fixed == (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
    # single entry: the fixed part is the entry itself
    single = canonical.CanonicalBasis((((1, 3), (3, 3, 1, 2, 0, 0, 4, 0, 2, 0)),))
    assert canonical.fixed_part(single) == (3, 3, 1, 2, 0, 0, 4, 0, 2, 0)
    # after removing the fixed part no curve divides every monomial
    reduced = [
        tuple(e - f for e, f in zip(expo, fixed)) for _, expo in b.entries
    ]
    assert all(min(col) == 0 for col in zip(*reduced))


def test_ideal_reduction():
    ideal = I((3, 2), (2, 0), (1, 0), (0, 2))
    assert ideal.generators == {(1, 0), (0, 2)}
    assert not ideal.is_unit
    assert I((0, 0), (1, 2)).is_unit
    assert I((2, 0), (0, 1)).common_factor() == (0, 0)
    assert I((0, 2), (1, 1)).common_factor() == (0, 1)
    assert I((1, 2), (2, 1)).common_factor() == (1, 1)
    assert I((2, 0), (1, 2), (0, 3)).format() == "(x^2, xy^2, y^3)"


def test_local_ideals_u3(u3):
    b = canonical.basis(u3)
    fixed = canonical.fixed_part(b)
    expected = {
        (0, 3): {(1, 0), (0, 2)},
        (0, 7): {(3, 0), (0, 1)},
        (1, 8): {(2, 0), (1, 2), (0, 3)},
        (2, 6): {(2, 0), (1, 1), (0, 4)},
        (5, 8): {(1, 0), (0, 2)},
    }
    for pair, gens in expected.items():
        assert canonical.local_ideal(b, fixed, pair).generators == gens
    assert canonical.local_ideal(b, fixed, (0, 6)).is_unit
    with pytest.raises(ValueError, match="do not meet"):
        canonical.local_ideal(b, fixed, (0, 1))


def test_exactly_five_base_pairs(u3):
    from quadcover.picard import incidences

    b = canonical.basis(u3)
    fixed = canonical.fixed_part(b)
    non_unit = [
        pair
        for pair in sorted(incidences())
        if not canonical.local_ideal(b, fixed, pair).is_unit
    ]
    assert non_unit == [(0, 3), (0, 7), (1, 8), (2, 6), (5, 8)]


def test_resolve_type_examples():
    assert canonical.resolve_type(I((1, 0), (0, 2))).multiplicities() == (1, 1)
    assert canonical.resolve_type(I((3, 0), (0, 1))).multiplicities() == (1, 1, 1)
    assert canonical.resolve_type(I((2, 0), (1, 2), (0, 3))).multiplicities() == (2, 1, 1)
    assert canonical.resolve_type(I((0, 0))).multiplicities() == ()
    assert not canonical.resolve_type(I((0, 0)))


def test_resolve_type_rejects_common_factor():
    with pytest.raises(ValueError, match="common factor"):
        canonical.resolve_type(I((1, 1), (2, 1)))


def test_resolve_type_branching_tree():
    # x^3, xy, y^3: the first blow-up leaves a simple point in each chart
    t = canonical.resolve_type(I((3, 0), (1, 1), (0, 3)))
    assert t.multiplicities() == (2, 1, 1)
    assert not t.is_chain
    with pytest.raises(ValueError, match="branches"):
        t.as_chain()
    chain = canonical.resolve_type(I((1, 0), (0, 2)))
    assert chain.is_chain and chain.as_chain() == (1, 1)


def test_resolve_type_square_sums():
    assert canonical.resolve_type(I((1, 0), (0, 2))).square_sum() == 2
    assert canonical.resolve_type(I((2, 0), (0, 2))).multiplicities() == (2,)
    assert canonical.resolve_type(I((1, 0), (0, 1))).multiplicities() == (1,)


def test_blowup_shrinks_generator_degree_sum(u3):
    # re-derive the chart substitutions and check the descent on the five
    # actual base ideals
    def charts(gens):
        m = min(a + b for a, b in gens)
        a_chart = MonomialIdeal2D.from_exponents((a + b - m, b) for a, b in gens)
        b_chart = MonomialIdeal2D.from_exponents((a, a + b - m) for a, b in gens)
        return [c for c in (a_chart, b_chart) if min(x + y for x, y in c.generators) > 0]

    b = canonical.basis(u3)
    fixed = canonical.fixed_part(b)
    for pair in [(0, 3), (0, 7), (1, 8), (2, 6), (5, 8)]:
        stack = [canonical.local_ideal(b, fixed, pair)]
        while stack:
            ideal = stack.pop()
            total = sum(a + b_ for a, b_ in ideal.generators)
            for child in charts(ideal.generators):
                child_total = sum(a + b_ for a, b_ in child.generators)
                assert child_total < total
                stack.append(child)


def _local_multiplicity_oracle(ideal, rng):
    """Order at the origin of the resultant of two random members."""
    x, y = sympy.symbols("x y")
    gens = ideal.sorted_generators()
    while True:
        f = sum(rng.randint(1, 50) * x ** a * y ** b for a, b in gens)
        g = sum(rng.randint(1, 50) * x ** a * y ** b for a, b in gens)
        poly = sympy.Poly(sympy.resultant(f, g, x), y)
        if not poly.is_zero:  # rejects the proportional-coefficient draw
            return min(mono[0] for mono in poly.monoms())


def test_square_sum_matches_resultant_oracle(u3):
    rng = random.Random(2718)
    b = canonical.basis(u3)
    fixed = canonical.fixed_part(b)
    for pair in [(0, 3), (0, 7), (1, 8), (2, 6), (5, 8)]:
        ideal = canonical.local_ideal(b, fixed, pair)
        expected = canonical.resolve_type(ideal).square_sum()
        for _ in range(3):
            assert _local_multiplicity_oracle(ideal, rng) == expected


def test_square_sum_oracle_on_random_ideals():
    # beyond the five canonical ideals: random generator sets, including
    # ones whose resolution tree branches
    rng = random.Random(31337)
    for _ in range(40):
        gens = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(2, 4))}
        gens.add((rng.randint(0, 4), 0))
        gens.add((0, rng.randint(0, 4)))
        ideal = MonomialIdeal2D.from_exponents(gens)
        if ideal.common_factor() != (0, 0):
            continue
        t = canonical.resolve_type(ideal)
        if ideal.is_unit:
            assert not t
            continue
        assert _local_multiplicity_oracle(ideal, rng) == t.square_sum()


def test_degree_certificate_u3(u3):
    rep = canonical.degree_certificate(u3)
    ref = golden.CANONICAL_U3
    assert rep.fixed_part == ref["fixed_part"]
    assert {bp.pair: bp.type.multiplicities() for bp in rep.base_points} == ref["base_points"]
    assert all(bp.type.is_chain for bp in rep.base_points)
    assert rep.moving_selfint == ref["moving_selfint"]
    assert rep.type_square_sum == ref["type_square_sum"]
    assert rep.degree_product == ref["degree_product"]
    assert rep.birational
    assert rep.justification == "prime-degree argument"
    assert rep.moving_selfint == 45 - 2 * 3 - 1
    assert rep.type_square_sum == 2 + 3 + 6 + 6 + 2
    labels = [bp.labels for bp in rep.base_points]
    assert labels == [
        ("L1'", "L1"), ("L1'", "E1"), ("L2'", "E2"), ("L3'", "E0"), ("L3", "E2"),
    ]


def test_degree_certificate_rejects_irregular(u1):
    with pytest.raises(ValueError, match="pg=6"):
        canonical.degree_certificate(u1)


def test_report_dict_roundtrip(u3):
    d = canonical.degree_certificate(u3).as_dict()
    assert d["degree_product"] == 19
    assert d["birational"] is True
    assert len(d["base_points"]) == 5
    assert d["base_points"][0]["type"] == [1, 1]
    import json

    json.dumps(d)  # serializable
