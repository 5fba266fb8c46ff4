import random
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import oracles
from quadcover import canonical, covers, gf, golden, sheaves, symmetry
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


def test_basis_rejects_multidimensional_eigenspace():
    # one monomial per character spans H^0(K) only when every count is 1;
    # at p = 7, 960 normal forms have a two-dimensional eigenspace
    t = SixTuple.parse("1,0,0,1,0,1,0,1,1,0,5,4", 7)
    with pytest.raises(AssertionError, match=r"h0\(K \+ L\(6,6\)\) = 2: .* not a basis"):
        canonical.basis(t, 7)


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
    assert ideal.generators == ((0, 2), (1, 0))
    assert not ideal.is_unit
    assert I((0, 0), (1, 2)).is_unit
    assert I((2, 0), (0, 1)).common_factor() == (0, 0)
    assert I((0, 2), (1, 1)).common_factor() == (0, 1)
    assert I((1, 2), (2, 1)).common_factor() == (1, 1)
    assert I((2, 0), (1, 2), (0, 3)).format() == "(x^2, xy^2, y^3)"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=12),
    st.booleans(),
    st.booleans(),
)
def test_staircase_matches_pairwise_domination(pairs, unit, as_numpy):
    pairs = pairs + pairs[::2]  # duplicates
    if unit:
        pairs.append((0, 0))
    if as_numpy:
        pairs = np.array(pairs, dtype=np.int64)
    minimal = canonical._reduce_generators(pairs)
    assert set(minimal) == oracles.reduce_generators_pairwise(pairs)
    assert list(minimal) == sorted(minimal)
    assert all(type(x) is int for pair in minimal for x in pair)


def test_empty_generator_set_is_refused():
    for reduce in (canonical._reduce_generators, oracles.reduce_generators_pairwise):
        with pytest.raises(ValueError, match="empty generator set"):
            reduce([])


def test_local_ideals_u3(u3):
    b = canonical.basis(u3)
    fixed = canonical.fixed_part(b)
    expected = {
        (0, 3): ((0, 2), (1, 0)),
        (0, 7): ((0, 1), (3, 0)),
        (1, 8): ((0, 3), (1, 2), (2, 0)),
        (2, 6): ((0, 4), (1, 1), (2, 0)),
        (5, 8): ((0, 2), (1, 0)),
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
    assert not t.is_chain and len(t.children) == 2
    chain = canonical.resolve_type(I((1, 0), (0, 2)))
    assert chain.is_chain and chain.multiplicities() == (1, 1)


def test_resolve_type_square_sums():
    assert canonical.resolve_type(I((1, 0), (0, 2))).square_sum() == 2
    assert canonical.resolve_type(I((2, 0), (0, 2))).multiplicities() == (2,)
    assert canonical.resolve_type(I((1, 0), (0, 1))).multiplicities() == (1,)


def _without_common_factor(pairs):
    """The ideal of the exponent pairs with its common factor divided out."""
    low_a, low_b = min(a for a, _ in pairs), min(b for _, b in pairs)
    return MonomialIdeal2D.from_exponents((a - low_a, b - low_b) for a, b in pairs)


_exponent_pairs = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_exponent_pairs)
@example([(3, 0), (1, 1), (0, 3)])  # branches after the first blow-up
@example([(4, 0), (2, 1), (0, 5)])
def test_resolve_type_matches_ideal_recursion(pairs):
    ideal = _without_common_factor(pairs)
    assert canonical.resolve_type(ideal) == oracles.resolve_type_by_ideals(ideal)


@settings(max_examples=200, deadline=None)
@given(_exponent_pairs)
@example([(3, 0), (1, 1), (0, 3)])
def test_charts_have_no_common_factor(pairs):
    # the least a + b - m is 0 and the least b (or a) does not change
    gens = _without_common_factor(pairs).generators
    m = min(a + b for a, b in gens)
    for chart in ((a + b - m, b) for a, b in gens), ((a, a + b - m) for a, b in gens):
        assert MonomialIdeal2D.from_exponents(chart).common_factor() == (0, 0)


@settings(max_examples=200, deadline=None)
@given(_exponent_pairs, st.integers(1, 7), st.integers(1, 7))
@example([(3, 0), (1, 1), (0, 3)], 3, 3)
@example([(2, 3), (5, 1)], 7, 6)
def test_square_sum_is_twice_the_newton_area(pairs, a, b):
    # with x^a and y^b among its generators the ideal is m-primary, so the
    # squared multiplicities of its base points sum to its multiplicity
    # (Noether's formula), twice the area under its Newton polygon
    # (Kushnirenko)
    ideal = I(*pairs, (a, 0), (0, b))
    assert canonical.resolve_type(ideal).square_sum() == oracles.newton_multiplicity(ideal.generators)


def test_resolve_type_depth_budget():
    # (x^3, y) needs three blow-ups; the message names the chart left over.
    # resolve_type sets the budget itself (10 here), so the net is tried on _resolve
    ideal = I((3, 0), (0, 1))
    for resolve in (lambda budget: canonical._resolve(ideal.generators, budget),
                    lambda budget: oracles.resolve_type_by_ideals(ideal, budget)):
        with pytest.raises(RuntimeError, match=r"^blow-up of \(x\^2, y\) does not terminate$"):
            resolve(1)
    assert canonical._resolve(ideal.generators, 3).multiplicities() == (1, 1, 1)
    assert canonical.resolve_type(ideal).multiplicities() == (1, 1, 1)


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
    gens = ideal.generators
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


def test_degree_certificate_on_every_regular_form(u3):
    # all 120 normal forms with p_g = 4, exactly the classes of U3's orbit,
    # each resolved cold; the Newton polygon gives each base point's square
    # sum without the blow-up recursion, and the recursion on whole ideals
    # its type
    forms, part = covers.normal_forms(5), symmetry.orbit_partition(5)
    is_regular = sheaves.pg_values(forms) == 4
    assert np.array_equal(np.flatnonzero(is_regular), np.sort(part.orbits[part.orbit_of(u3)].classes))
    regular = forms[is_regular]
    assert len(regular) == 120
    canonical._base_scheme.cache_clear()
    types = Counter()
    for row in regular:
        rep = canonical.degree_certificate(SixTuple.from_residues(row))
        assert (rep.moving_selfint, rep.type_square_sum, rep.degree_product) == (38, 19, 19)
        assert rep.birational
        for bp in rep.base_points:
            assert bp.type.is_chain
            types[bp.type.multiplicities()] += 1
            assert oracles.newton_multiplicity(bp.ideal.generators) == bp.type.square_sum()
            assert bp.type == oracles.resolve_type_by_ideals(bp.ideal)
    assert types == {(1, 1): 240, (1, 1, 1): 120, (2, 1, 1): 240}


def _regular_forms():
    forms = covers.normal_forms(5)
    return [SixTuple.from_residues(row) for row in forms[sheaves.pg_values(forms) == 4]]


def test_base_scheme_memo_holds_one_entry_per_gl2_class(u3):
    # GL(2) permutes the characters, so the sorted exponent rows are a
    # GL(2)-invariant key: one entry per class of regular tuples, which
    # other members of the classes do not add to
    canonical._base_scheme.cache_clear()
    refused = 0
    for row in covers.normal_forms(5):
        try:
            canonical.degree_certificate(SixTuple.from_residues(row))
        except ValueError as err:
            assert "pg=6" in str(err)
            refused += 1
    regular = int((sheaves.pg_values(covers.admissible_array(5)) == 4).sum())
    gl2_order = symmetry.group_closure(5).gl2_order
    assert regular % gl2_order == 0
    assert canonical._base_scheme.cache_info().currsize == regular // gl2_order
    assert refused == len(covers.normal_forms(5)) - regular // gl2_order
    for t in _gl2_and_swap_images(u3, 60, 5309):
        canonical.degree_certificate(t)
    assert canonical._base_scheme.cache_info().currsize == regular // gl2_order


def _gl2_and_swap_images(u3, count, seed):
    """Seeded g.f for regular normal forms f, then the four swap images of U3."""
    rng = random.Random(seed)
    forms, mats = _regular_forms(), gf.gl2_array(5)
    images = [
        symmetry.gl2_action(mats[rng.randrange(len(mats))]).apply(rng.choice(forms))
        for _ in range(count)
    ]
    return images + [swap.apply(u3) for swap in symmetry.s5_generators(5)]


def test_warm_certificate_equals_cold(u3):
    queries = _gl2_and_swap_images(u3, 60, 4217)
    forms = _regular_forms()
    canonical._base_scheme.cache_clear()
    for t in forms:
        canonical.degree_certificate(t)
    warm = [canonical.degree_certificate(t).as_dict() for t in queries]
    assert canonical._base_scheme.cache_info().misses == len(forms)  # every query hit
    for t, from_warm in zip(queries, warm):
        canonical._base_scheme.cache_clear()
        cold = canonical.degree_certificate(t).as_dict()
        assert from_warm == cold
        assert from_warm["tuple"] == t.format()
        assert [e["chi"] for e in from_warm["basis"]] == [
            list(chi) for chi, _ in canonical.basis(t).entries
        ]


def test_per_query_checks_fire_on_a_warm_cache(u1, u3):
    for t in _regular_forms():
        canonical.degree_certificate(t)
    entries = canonical._base_scheme.cache_info().currsize
    with pytest.raises(ValueError, match="pg=6"):
        canonical.degree_certificate(u1)
    with pytest.raises(ValueError, match="is not admissible"):
        canonical.degree_certificate(SixTuple.from_residues([0] * 12))
    t7 = SixTuple.parse("1,0,0,1,0,1,0,1,1,0,5,4", 7)
    with pytest.raises(AssertionError, match=r"h0\(K \+ L\(6,6\)\) = 2: .* not a basis"):
        canonical.basis(t7, 7)
    with pytest.raises(ValueError, match="only defined for modulus 5"):
        canonical.degree_certificate(t7, 7)
    assert canonical._base_scheme.cache_info().currsize == entries


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
