import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

import oracles
from quadcover import covers, gf, sheaves, symmetry
from quadcover.covers import SixTuple
from quadcover.gf import Mat, gl2_enumerate


def _identity_key():
    return oracles.sum_zero_key(symmetry.SymmetryElement(Mat.identity(12)))


def _apply(elements, row, n=5):
    """Images of one sum-zero row under (k, 10, 10) group elements: the
    first ten coordinates by the matrix, the last two by the sum."""
    head = np.asarray(elements, dtype=np.int64) @ np.asarray(row[:10], dtype=np.int64) % n
    tail = -head.reshape(len(head), 5, 2).sum(axis=1) % n
    return np.concatenate([head, tail], axis=1)


def test_s5_generator_names_and_u1_block():
    gens = symmetry.s5_generators()
    assert [g.provenance for g in gens] == ["(01)", "(02)", "(03)", "(04)"]
    g01 = gens[0]
    # (01) fixes the u1 block: first two matrix rows are unit rows
    assert list(g01.mat.array[0]) == [1] + [0] * 11
    assert list(g01.mat.array[1]) == [0, 1] + [0] * 10


def test_swap_04_example(u3):
    g04 = symmetry.s5_generators()[3]
    assert g04.apply(u3) == SixTuple.parse("1,0,1,0,0,1,0,3,1,2,2,4")


def test_swaps_are_involutions():
    ident = _identity_key()
    for g in symmetry.s5_generators():
        assert oracles.sum_zero_key(oracles.compose(g, g)) == ident
        # as literal 12x12 matrices they are not involutions: the exceptional
        # loop images use the sum condition
        assert g.mat * g.mat != Mat.identity(12)


def test_swaps_square_to_identity_on_admissible_tuples():
    rng = random.Random(3)
    arr = covers.admissible_array(5)
    sample = [SixTuple.from_residues(arr[rng.randrange(len(arr))]) for _ in range(50)]
    for g in symmetry.s5_generators():
        for t in sample:
            assert g.apply(g.apply(t)) == t


def test_gl2_action_examples(u3):
    ident = symmetry.gl2_action([[1, 0], [0, 1]])
    assert oracles.sum_zero_key(ident) == _identity_key()
    scale = symmetry.gl2_action([[2, 0], [0, 2]])
    assert scale.apply(u3) == SixTuple.parse("2,0,2,0,0,2,3,2,1,4,2,2")
    with pytest.raises(ValueError):
        symmetry.gl2_action([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        symmetry.gl2_action(Mat.identity(12))


def test_gl2_action_refuses_a_matrix_singular_mod_211():
    # 187 * 26 - 202 * 210 = -178 * 211, beyond int16
    with pytest.raises(ValueError, match="singular"):
        symmetry.gl2_action([[187, 202], [210, 26]], 211)


def test_gl2_action_reduces_residues_far_out_of_range(u3, u3_shifted):
    for m in gl2_enumerate(5):
        g = symmetry.gl2_action(m)
        assert g.apply(u3_shifted) == g.apply(u3)


def test_gl2_action_preserves_admissibility():
    rng = random.Random(41)
    arr = covers.admissible_array(5)
    mats = gl2_enumerate(5)
    for _ in range(100):
        t = SixTuple.from_residues(arr[rng.randrange(len(arr))])
        g = symmetry.gl2_action(mats[rng.randrange(len(mats))])
        assert covers.check_admissibility(g.apply(t))


def test_group_closure_orders():
    gc = symmetry.group_closure(5)
    assert gc.s5_order == 120
    assert gc.gl2_order == 480
    assert gc.order == 57600
    assert gc.s5_elements.shape == (120, 10, 10)
    assert (gc.s5_elements == np.eye(10, dtype=np.int8)).all(axis=(1, 2)).any()
    # oracle: the products counted one by one
    elements = oracles.group_elements(5)
    assert elements.shape == (57600, 10, 10) and elements.dtype == np.int8
    assert len(np.unique(elements.reshape(len(elements), 100), axis=0)) == 57600


def test_direct_product_order_matches_breadth_first_closure():
    # independent route at n = 3: breadth-first products of 12x12 matrices
    gc = symmetry.group_closure(3)
    assert gc.order == len(oracles.mulclose(symmetry.default_generators(3)))
    assert gc.order == gc.s5_order * gc.gl2_order == 120 * 48


def test_elements_map_a_tuple_onto_its_orbit(u1, u3):
    # applied to one tuple, the 57600 elements sweep out exactly its orbit,
    # each image |stabilizer| times
    part = oracles.expanded_partition(5)
    for t in (u1, u3):
        orb = part.orbits[part.orbit_of(t)]
        images = _apply(oracles.group_elements(5), t.residues)
        codes, counts = np.unique(covers.encode_rows(images), return_counts=True)
        assert np.array_equal(codes, part.codes[orb.member_indices])
        assert (counts == orb.stabilizer_order).all()


def test_swaps_commute_with_every_gl2_element():
    swaps = symmetry.s5_generators()
    for m in gl2_enumerate(5):
        block = symmetry.gl2_action(m)
        for s in swaps:
            left = (s.mat * block.mat).array
            right = (block.mat * s.mat).array
            assert np.array_equal(left, right)  # literal matrices commute


def test_orbit_partition(representatives):
    part = symmetry.orbit_partition(5)
    sizes = sorted(o.size for o in part.orbits)
    assert sizes == [28800, 57600, 57600, 57600]
    assert sum(sizes) == 201600
    assert all(57600 % s == 0 for s in sizes)
    stabs = {o.size: o.stabilizer_order for o in part.orbits}
    assert stabs == {28800: 2, 57600: 1}
    ids = {name: part.orbit_of(t) for name, t in representatives.items()}
    assert sorted(ids.values()) == [0, 1, 2, 3]


def test_orbit_representative_is_lex_minimal():
    # expand each orbit's classes by all of GL(2) and take the least member
    part = symmetry.orbit_partition(5)
    forms = covers.normal_forms(5).reshape(-1, 6, 2)
    gl2 = gf.gl2_array(5)
    for orb in part.orbits:
        members = np.einsum("gij,ksj->gksi", gl2, forms[orb.classes]).reshape(-1, 12) % 5
        codes = covers.encode_rows(members)
        rep_code = covers.encode_rows(np.array([orb.representative.residues]))[0]
        assert rep_code == codes.min()
        assert orb.size == len(np.unique(codes))


@pytest.mark.parametrize("n, sample", [(5, None), (7, None), (11, 2000), (13, 2000)])
def test_least_members_match_the_scan(n, sample):
    # the closed form against the scan over the p(p - 1) matrices that
    # send u1 to (0, 1), on every form or on a seeded sample of them
    forms = covers.normal_forms(n)
    if sample:
        forms = forms[np.random.default_rng(n).choice(len(forms), sample, replace=False)]
    least = symmetry._least_members(forms, n)
    assert np.array_equal(covers.encode_rows(least, n), oracles.least_member_codes_by_scan(forms, n))


def test_least_members_are_least_over_each_expanded_class():
    # the least code among every admissible row at 5 of each class
    rows, forms = covers.admissible_array(5), covers.normal_forms(5)
    least = np.full(len(forms), np.iinfo(np.uint64).max)
    np.minimum.at(least, covers.normal_form_index(rows, 5), covers.encode_rows(rows, 5))
    assert np.array_equal(covers.encode_rows(symmetry._least_members(forms, 5), 5), least)


def test_stabilizer_order_by_direct_count(u1, u3):
    # count closure elements fixing the tuple; must equal |G| / orbit size
    elements = oracles.group_elements(5)
    for t, expected in ((u1, 2), (u3, 1)):
        head = np.array(t.residues[:10], dtype=np.int64)
        images = elements.astype(np.int64) @ head % 5
        assert int((images == head).all(axis=1).sum()) == expected


def test_gl2_block_action_is_faithful():
    # closure of the block generators alone, keyed on the sum-zero action
    blocks = [symmetry.gl2_action(m) for m in symmetry.gf.gl2_generators(5)]
    assert len(oracles.mulclose(blocks)) == 480


def test_orbit_lookup_stable_under_group(u3):
    part = symmetry.orbit_partition(5)
    oid = part.orbit_of(u3)
    rng = random.Random(17)
    elements = oracles.group_elements(5)
    for _ in range(25):
        g = elements[rng.randrange(len(elements))]
        image = _apply([g], u3.residues)[0]
        assert part.orbit_of(SixTuple.from_residues(image)) == oid


def test_action_preserves_admissibility_exhaustively():
    arr = covers.admissible_array(5)
    codes = covers.encode_rows(arr)
    for g in symmetry.default_generators(5):
        imgs = g.mat.apply_rows(arr)
        img_codes = covers.encode_rows(imgs)
        pos = np.searchsorted(codes, img_codes)
        assert (pos < len(codes)).all()
        assert (codes[pos] == img_codes).all()


def test_orbits_on_a_single_closed_orbit(u1):
    # one orbit is itself closed under the action; exercise the
    # list-of-SixTuple input path on the smallest one
    part = oracles.expanded_partition(5)
    arr = covers.admissible_array(5)
    orb = part.orbits[part.orbit_of(u1)]
    assert orb.size == 28800
    members = [SixTuple.from_residues(r) for r in arr[orb.member_indices]]
    sub = oracles.orbits(members)
    assert len(sub) == 1
    assert sub[0].size == 28800
    assert sub[0].stabilizer_order == 2
    assert sub[0].representative == orb.representative


def test_orbits_fails_loudly_off_closed_set(u3):
    with pytest.raises(ValueError, match="outside the input set"):
        oracles.orbits([u3])


def test_orbits_rejects_duplicates(u3):
    with pytest.raises(ValueError, match="duplicates"):
        oracles.orbits([u3, u3])


def test_orbit_partition_matches_generic_orbits():
    # oracle: orbits of all seven 12x12 generator matrices acting on the
    # rows themselves, not on GL(2)-classes
    part = oracles.expanded_partition(5)
    generic = oracles.orbits(covers.admissible_array(5), 5)
    labels = np.full(len(part.labels), -1, dtype=np.int32)
    for i, orb in enumerate(generic):
        labels[orb.member_indices] = i
    assert np.array_equal(part.labels, labels)
    for mine, ref in zip(part.orbits, generic):
        assert mine.representative == ref.representative
        assert (mine.size, mine.stabilizer_order) == (ref.size, ref.stabilizer_order)
        assert np.array_equal(mine.member_indices, ref.member_indices)


def test_orbits_stabilizer_uses_the_given_generators():
    # GL(2) alone (order 480) acts freely: every orbit has stabilizer 1
    blocks = [symmetry.gl2_action(m, 5) for m in symmetry.gf.gl2_generators(5)]
    part = oracles.expanded_partition(5)
    arr = covers.admissible_array(5)
    for orb in part.orbits:
        sub = oracles.orbits(arr[orb.member_indices], 5, generators=blocks)
        assert len(sub) == orb.size // 480
        assert all(o.stabilizer_order == 480 // o.size == 1 for o in sub)


def test_orbit_of_reads_the_modulus_of_its_partition():
    part, forms = symmetry.orbit_partition(7), covers.normal_forms(7)
    t = SixTuple.from_residues(forms[-1])
    assert part.modulus == 7
    assert part.orbit_of(t) == part.orbit_of(t, 7) == part.labels[-1]
    with pytest.raises(ValueError, match="tuple mod 5 in the orbit partition mod 7"):
        part.orbit_of(t, 5)
    u3 = SixTuple.parse("1,0,1,0,0,1,4,1,3,2,1,1")
    assert symmetry.orbit_partition(5).orbit_of(u3) == symmetry.orbit_partition(5).orbit_of(u3, 5)


def test_gl2_action_reads_the_modulus_of_a_mat():
    m = Mat([[6, 0], [0, 1]], 7)
    g = symmetry.gl2_action(m)
    assert g.mat == Mat.block_diagonal([[6, 0], [0, 1]], 6, 7) == symmetry.gl2_action(m, 7).mat
    with pytest.raises(ValueError, match="modulus mismatch"):
        symmetry.gl2_action(m, 5)
    # entries that are not a Mat are read mod n, 5 by default
    assert symmetry.gl2_action([[6, 0], [0, 1]], 7).mat == g.mat
    assert symmetry.gl2_action([[6, 0], [0, 1]]).mat == Mat.identity(12)


def test_orbit_of_rejects_non_admissible():
    part = symmetry.orbit_partition(5)
    with pytest.raises(ValueError, match="not an admissible"):
        part.orbit_of(SixTuple.from_residues([0] * 12))


@pytest.mark.parametrize("n", [3, 5])
def test_forms_match_expanded_path(n):
    # nothing is admissible at n = 3, so both sides are empty there
    part = symmetry.orbit_partition(n)
    ref = oracles.expanded_partition(n)
    arr = covers.admissible_array(n)
    gl2_order = symmetry.group_closure(n).gl2_order
    assert len(covers.normal_forms(n)) * gl2_order == len(arr)
    assert np.array_equal(part.labels[covers.normal_form_index(arr, n)], ref.labels)
    summary = [(o.representative, o.size, o.stabilizer_order) for o in part.orbits]
    assert summary == [(o.representative, o.size, o.stabilizer_order) for o in ref.orbits]
    forms_pg = np.unique(sheaves.pg_values(covers.normal_forms(n), n), return_counts=True)
    rows_pg = np.unique(oracles.admissible_pg(n), return_counts=True)
    assert np.array_equal(forms_pg[0], rows_pg[0])
    assert np.array_equal(forms_pg[1] * gl2_order, rows_pg[1])


@pytest.mark.parametrize("n, count", [(5, 4), (7, 100)])
def test_orbits_stabilizers_and_class_equation_by_burnside(n, count):
    # the orbit count by Burnside's lemma; each orbit's stabilizer as the
    # permutations that fix its representative's GL(2)-class; and the
    # class equation, the orbit sizes |G|/|Stab| summing to the admissible count
    part = symmetry.orbit_partition(n)
    assert len(part.orbits) == oracles.burnside_count(n) == count
    reps = np.array([orb.representative.residues for orb in part.orbits])
    stabilizers = sum(oracles.fixes_class(s, reps, n).astype(int) for s in permutations(range(5)))
    assert stabilizers.tolist() == [orb.stabilizer_order for orb in part.orbits]
    order = symmetry.group_closure(n).order
    assert (order % stabilizers == 0).all()
    assert (order // stabilizers).sum() == len(covers.normal_forms(n)) * gf.gl2_order(n)


def test_orbit_partition_refuses_before_building(monkeypatch):
    # the moves, codes and minima of each form, np.unique's 41 bytes a form
    # and one block of CHUNK forms at 224 bytes each: a limit one byte short
    # of that at 7 refuses the partition before any of its arrays is built
    forms = covers.normal_forms(7)
    figure = len(forms) * (4 * 4 + 2 * 8 + 41) + covers.CHUNK * 224
    monkeypatch.setattr(covers, "MAX_ARRAY_BYTES", figure - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^modulus 7: orbit partition of 11640 forms over"):
            symmetry.orbit_partition.__wrapped__(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    monkeypatch.setattr(covers, "MAX_ARRAY_BYTES", figure)
    assert len(symmetry.orbit_partition.__wrapped__(7).orbits) == 100


def test_group_order_certificate_detects_a_shared_element(monkeypatch):
    # a GL(2) scalar placed among the Sym(5) actions commutes with
    # everything, but the swap closure then meets the GL(2) blocks outside
    # the identity
    actions = symmetry._sym5_actions

    def with_scalar(n):
        scalar = symmetry.gl2_action([[2, 0], [0, 2]], n).mat.array
        return np.concatenate([actions(n), symmetry._restrict([scalar], n)])

    monkeypatch.setattr(symmetry, "_sym5_actions", with_scalar)
    with pytest.raises(AssertionError, match="meets the GL"):
        symmetry.group_closure.__wrapped__(5)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_swaps_from_labels_match_the_hand_written_table(n):
    gens = symmetry.s5_generators(n)
    assert [g.provenance for g in gens] == list(oracles.SWAP_SLOTS)
    for g, rows in zip(gens, oracles.SWAP_SLOTS.values()):
        assert np.array_equal(g.mat.array, np.kron(rows, np.eye(2, dtype=np.int64)) % n)


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_sym5_actions_match_the_breadth_first_closure(n):
    # content and lexicographic order, as np.unique over the rows gives them
    closure = oracles.mulclose(symmetry.s5_generators(n)).values()
    expected = np.unique(symmetry._restrict([m.array for m in closure], n), axis=0)
    assert len(expected) == 120
    assert np.array_equal(symmetry.group_closure(n).s5_elements, expected)


def test_swap_actions_keep_their_residues_at_large_primes():
    # int64 residues up to n - 1, where int8 wrapped them from 131 on: the
    # 120 actions and the closed-form orders at 131 and 2^31 - 1
    for n in (131, (1 << 31) - 1):
        closure = symmetry.group_closure(n)
        gl2 = (n * n - 1) * (n * n - n)
        assert (closure.s5_order, closure.gl2_order, closure.order) == (120, gl2, 120 * gl2)
        assert closure.s5_elements.min() == 0 and closure.s5_elements.max() == n - 1
