import itertools
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import enumerate_admissible, is_totally_ramified
from quadcover import covers, gf, sheaves, symmetry
from quadcover.covers import SixTuple


def test_parse_and_format(u3):
    assert u3.u1 == (1, 0) and u3.v3 == (1, 1)
    assert u3.residues == (1, 0, 1, 0, 0, 1, 4, 1, 3, 2, 1, 1)
    assert SixTuple.parse(u3.format()) == u3
    with pytest.raises(ValueError):
        SixTuple.parse("1,2,3")
    with pytest.raises(ValueError):
        SixTuple.parse("a,b,c,d,e,f,g,h,i,j,k,l")


@pytest.mark.parametrize("bad", [1.5, 1.7, float("nan"), float("inf"), Fraction(3, 2), Decimal("6.5")])
def test_fractional_residues_are_refused(u3, bad):
    # 1.5 or 1.7 in place of U3's leading 1 must not read as U3 in any reader
    row = [bad, *u3.residues[1:]]
    with pytest.raises(ValueError, match=r"^residues must be integers, got \(" + re.escape(repr(bad))):
        SixTuple.from_residues(row)
    for rows in ([row], np.array([row]), np.array([row], dtype=object)):
        for read in (covers.admissibility_mask, sheaves.pg_values, covers.loop_image_rows):
            with pytest.raises(ValueError, match=f"^residue {bad} is not an integer$"):
                read(rows, 5)
    # integral floats and numpy integers still read as their integers
    assert SixTuple.from_residues([1.0, *u3.residues[1:]], 5) == u3
    assert SixTuple.from_residues(np.array(u3.residues, dtype=np.int16), 5) == u3
    assert covers.admissibility_mask([[1.0, *u3.residues[1:]]], 5).tolist() == [True]
    assert sheaves.pg_values(np.array([u3.residues], dtype=float), 5).tolist() == [4]
    # and so do integral Fractions and Decimals
    assert SixTuple.from_residues([Fraction(2, 2), *u3.residues[1:]], 5) == u3
    assert covers.admissibility_mask([[Decimal("1"), *u3.residues[1:]]], 5).tolist() == [True]
    assert sheaves.pg_values(np.array([[Fraction(6), *u3.residues[1:]]], dtype=object), 5).tolist() == [4]


def test_loop_images_u3(u3):
    images = covers.loop_image_rows([u3.residues])[0]
    assert images[:6].ravel().tolist() == list(u3.residues)
    assert images[6:].tolist() == [[2, 1], [0, 3], [1, 2], [2, 4]]  # e0..e3


def test_loop_images_zero_and_u1(u1):
    assert not covers.loop_image_rows([[0] * 12]).any()
    assert covers.loop_image_rows([u1.residues])[0, 6].tolist() == [2, 1]


def test_loop_slots_are_the_relation_rows():
    # the exceptional rows of LOOP_SLOTS solve picard's relations; the
    # scalar oracle writes the same relations out by hand
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 7, size=(2000, 12))
    images = covers.loop_image_rows(rows, 7)
    for row, mine in zip(rows, images):
        ref = oracles.loop_images(SixTuple.from_residues(row), 7)
        assert [tuple(v) for v in mine.tolist()] == list(ref)


def test_admissibility_examples(u3):
    assert covers.check_admissibility(u3)
    res = covers.check_admissibility(SixTuple.from_residues([1, 0] * 6))
    assert not res and res.condition == 0

    res = covers.check_admissibility(SixTuple.parse("1,0,1,0,0,1,2,0,2,4,4,0"))
    assert not res
    assert res.condition == 2
    assert res.curves == ("L1'", "L1")

    # sum vanishes, all six entries nonzero, but e0 = 0
    res = covers.check_admissibility(SixTuple.parse("1,0,1,0,3,0,1,0,2,0,2,0"))
    assert not res
    assert res.condition == 1
    assert res.curves == ("E0",)


def test_enumerate_count_and_membership(representatives):
    arr = covers.admissible_array(5)
    assert arr.shape == (201600, 12)
    codes = covers.encode_rows(arr)
    assert (np.diff(codes.astype(np.int64)) > 0).all()  # sorted, duplicate-free
    for t in representatives.values():
        c = covers.encode_rows(np.array([t.residues]))[0]
        pos = np.searchsorted(codes, c)
        assert pos < len(codes) and codes[pos] == c


def test_enumerate_list_form():
    ts = enumerate_admissible(5)
    assert len(ts) == 201600
    assert all(isinstance(t, SixTuple) for t in ts[:10])
    assert ts[0].residues == tuple(covers.admissible_array(5)[0])


def test_enumerate_n2_unpruned_brute_force():
    pruned = {t.residues for t in enumerate_admissible(2)}
    brute = {
        res
        for res in itertools.product(range(2), repeat=12)
        if oracles.check_admissibility(SixTuple.from_residues(res), 2)
    }
    assert pruned == brute


def test_enumerate_n3_unpruned_vectorized():
    rows = np.array(list(itertools.product(range(3), repeat=12)), dtype=np.int16)
    mask = covers.admissibility_mask(rows, 3)
    assert int(mask.sum()) == len(covers.admissible_array(3))


def test_mask_agrees_with_scalar_predicate():
    rng = random.Random(424242)
    arr = covers.admissible_array(5)
    rows = [list(arr[rng.randrange(len(arr))]) for _ in range(300)]
    rows += [[rng.randrange(5) for _ in range(12)] for _ in range(700)]
    rows = np.array(rows, dtype=np.int16)
    mask = covers.admissibility_mask(rows, 5)
    for row, ok in zip(rows, mask):
        assert bool(oracles.check_admissibility(SixTuple.from_residues(row), 5)) == bool(ok)


def test_admissibility_parity_with_the_scalar_oracle():
    # 20000 sum-zero rows (every condition fails somewhere among them) and
    # 20000 arbitrary ones: the mask and the one-row check with its reason
    # agree with the conditions checked one at a time
    rng = np.random.default_rng(20000)
    sum_zero = rng.integers(0, 5, size=(20000, 12))
    sum_zero[:, 10:] = -sum_zero[:, :10].reshape(-1, 5, 2).sum(axis=1) % 5
    rows = np.vstack([sum_zero, rng.integers(0, 5, size=(20000, 12))])
    mask = covers.admissibility_mask(rows, 5)
    conditions = set()
    for row, ok in zip(rows, mask):
        t = SixTuple.from_residues(row)
        ref = oracles.check_admissibility(t, 5)
        assert covers.check_admissibility(t, 5) == ref
        assert bool(ok) == ref.ok
        conditions.add(ref.condition)
    assert conditions == {None, 0, 1, 2}


def _seeded_rows(n, seed):
    """Sum-zero rows, arbitrary rows, negative residues and residues far
    beyond 2^15 (each row the same classes mod n as a row in range)."""
    rng = np.random.default_rng(seed)
    sum_zero = rng.integers(0, n, size=(6000, 12))
    sum_zero[:, 10:] = -sum_zero[:, :10].reshape(-1, 5, 2).sum(axis=1) % n
    arbitrary = rng.integers(0, n, size=(3000, 12))
    shifted = np.vstack([sum_zero[:2000], arbitrary[:1000]])
    negative = shifted - n * rng.integers(1, 1 << 20, size=shifted.shape)
    large = shifted + n * rng.integers(1 << 15, 1 << 58, size=shifted.shape)
    return np.vstack([sum_zero, arbitrary, negative, large])


@pytest.mark.parametrize("n", [5, 7, 11, 13])
def test_failures_match_cross_products(n):
    rows = _seeded_rows(n, 14000 + n)
    if n == 5:  # admissible rows are rare among random ones at n = 5
        arr = covers.admissible_array(5)
        rows = np.vstack([rows, arr[np.random.default_rng(5).choice(len(arr), 2000)]])
    failed = covers._failures(rows, n)
    assert failed.shape == (len(rows), 26) and failed.dtype == bool
    # the oracle's int64 sums of large residues would wrap: it reads them reduced
    assert np.array_equal(failed, oracles.failures_by_cross_products(rows % n, n))
    # the shifted rows fail exactly where the rows they were shifted from do
    base = failed[np.r_[0:2000, 6000:7000]]
    assert np.array_equal(failed[9000:12000], base) and np.array_equal(failed[12000:15000], base)
    # every condition fails somewhere, and some rows pass them all
    assert failed.any(axis=0).all() and not failed.any(axis=1).all()


@pytest.mark.parametrize("n", [5, 139, 149, 151, 1009])
def test_failures_at_near_zero_residues_match_cross_products(n):
    # residues near 0 make zero images and dependent pairs common, from
    # the default modulus up to line ids beyond one byte
    rng = np.random.default_rng(n)
    rows = rng.choice([0, 1, 2, n - 1, n - 2], size=(4000, 12))
    rows[2000:, 10:] = -rows[2000:, :10].reshape(-1, 5, 2).sum(axis=1) % n
    failed = covers._failures(rows, n)
    assert np.array_equal(failed, oracles.failures_by_cross_products(rows, n))
    assert failed.any(axis=0).all() and not failed.any(axis=1).all()


def test_failures_refuse_what_int64_cannot_hold():
    # a residue beyond int64 raises instead of wrapping
    with pytest.raises(OverflowError):
        covers._failures([[1 << 63] + [0] * 11], 5)
    row = [(1 << 62) + 1, (1 << 63) - 1] + [-(1 << 63)] * 10
    assert np.array_equal(covers._failures([row], 5),
                          oracles.failures_by_cross_products([[x % 5 for x in row]], 5))


def test_failures_of_no_rows():
    assert covers._failures(np.zeros((0, 12), dtype=np.int64), 5).shape == (0, 26)
    assert covers.admissibility_mask(np.zeros((0, 12), dtype=np.int64), 5).shape == (0,)


def test_line_table_is_built_once_per_modulus_and_read_only(u3):
    covers._line_table.cache_clear()
    covers.check_admissibility(u3, 5)
    covers.admissibility_mask(covers.normal_forms(5), 5)
    covers.check_admissibility(u3, 7)
    assert covers._line_table.cache_info().misses == 2
    table = covers._line_table(5)
    assert table.dtype == np.uint16 and table.shape == (36 * 5 ** 2,)
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0


@pytest.mark.parametrize("n", [53, 127, 1009])
def test_one_row_check_at_a_large_prime_stays_small(n):
    # the check builds one line table of 72 n^2 bytes, and answers as the
    # scalar oracle does on sum-zero rows, admissible or not
    rng = random.Random(n)
    rows = [[rng.randrange(n) for _ in range(10)] for _ in range(20)]
    rows += [[1, 0, 2, 0, 3, 0, 4, 0, 5, 0]]  # every image on one line
    covers._line_table.cache_clear()
    tracemalloc.start()
    try:
        checks = []
        for row in rows:
            t = SixTuple.from_residues(row + [-sum(row[0::2]) % n, -sum(row[1::2]) % n])
            checks.append(covers.check_admissibility(t, n))
            assert checks[-1] == oracles.check_admissibility(t, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(200 * n * n + (1 << 20), covers.MAX_ARRAY_BYTES)
    assert any(checks) and not all(checks)


def test_line_table_refuses_before_building(u3):
    # 72 n^2 bytes exceed the limit from n = 1931 on, and nothing that
    # size is allocated before the refusal
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="admissibility table over 256 MiB"):
            covers.check_admissibility(u3, 1931)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # lines through a point need a field: a composite modulus is refused by
    # name, also by the per-tuple calls that read the check
    for call in (lambda: covers.check_admissibility(u3, 4), lambda: sheaves.coeffs(u3, (1, 0), 4),
                 lambda: sheaves.sheaf_table(u3, 6)):
        with pytest.raises(ValueError, match="^modulus [46] is not prime$"):
            call()


@pytest.mark.parametrize("n", [17, 31, 37, 101])
def test_normal_forms_refuse_before_building_the_search_buffer(n):
    # 161 bytes a candidate of the (n^2 - 1)^2 in the buffer, and 48 for
    # each of the (n^2 - 1)^3 candidates as a form: 13 passes, the limit
    # refuses from 17 on, naming the forms, and nothing is allocated first
    def search(p):
        return (p * p - 1) ** 2 * 161 + (p * p - 1) ** 3 * 48

    assert search(13) <= covers.MAX_ARRAY_BYTES < search(17)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^modulus {n}: {(n * n - 1) ** 3} candidate forms over 256 MiB$"):
            covers.normal_forms(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_failures_and_first_reason_at_7(data):
    # random residues, any sign and size, closed to sum zero or not: the
    # failure matrix equals the cross products and the one-row check's
    # reason equals the conditions checked one at a time
    res = data.draw(st.lists(st.integers(-(1 << 40), 1 << 40), min_size=12, max_size=12))
    if data.draw(st.booleans()):
        res[10], res[11] = -sum(res[0:10:2]), -sum(res[1:10:2])
    assert np.array_equal(covers._failures(res, 7), oracles.failures_by_cross_products(res, 7))
    t = SixTuple.from_residues(x % 7 for x in res)
    assert covers.check_admissibility(t, 7) == oracles.check_admissibility(t, 7)


def _literal_pair_list(t, n=5):
    """The fifteen vector pairs of the admissibility definition, written
    out, as opposed to the incident-pair formulation the code uses."""
    u1, u2, u3, v1, v2, v3 = oracles.loop_images(t, n)[:6]
    su = oracles.vadd(u1, u2, u3, n=n)
    e1 = oracles.vadd(u1, v2, v3, n=n)
    e2 = oracles.vadd(u2, v1, v3, n=n)
    e3 = oracles.vadd(u3, v1, v2, n=n)
    return [
        (u1, v1), (u2, v2), (u3, v3),
        (u1, su), (u2, su), (u3, su),
        (u1, e1), (u2, e2), (u3, e3),
        (e1, v2), (e1, v3),
        (e2, v1), (e2, v3),
        (e3, v1), (e3, v2),
    ]


def test_condition2_matches_literal_pair_list():
    from oracles import is_independent
    from quadcover.picard import incidences

    rng = random.Random(606)
    arr = covers.admissible_array(5)
    rows = [arr[rng.randrange(len(arr))] for _ in range(200)]
    # also non-admissible sum-zero candidates
    for _ in range(300):
        vecs = [(rng.randrange(5), rng.randrange(5)) for _ in range(5)]
        sx = -sum(v[0] for v in vecs) % 5
        sy = -sum(v[1] for v in vecs) % 5
        rows.append([x for v in vecs for x in v] + [sx, sy])
    for row in rows:
        t = SixTuple.from_residues(row)
        images = oracles.loop_images(t, 5)
        via_incidences = all(
            is_independent(images[i], images[j], 5) for i, j in incidences()
        )
        via_literal = all(
            is_independent(v, w, 5) for v, w in _literal_pair_list(t, 5)
        )
        assert via_incidences == via_literal


def test_totally_ramified(u3):
    assert is_totally_ramified(u3)
    collinear = SixTuple.parse("1,0,2,0,3,0,4,0,1,0,4,0")
    assert covers.loop_image_rows([collinear.residues])[0, 6].any()  # e0 != 0
    assert not is_totally_ramified(collinear)


def test_admissible_implies_totally_ramified():
    # witness pair: images over the incident pair (L1', L1) are
    # independent on every admissible tuple, so they span
    arr = covers.admissible_array(5)
    images = covers.loop_image_rows(arr, 5)
    det = images[:, 0, 0] * images[:, 3, 1] - images[:, 0, 1] * images[:, 3, 0]
    assert (det % 5 != 0).all()
    rng = random.Random(7)
    for _ in range(200):
        t = SixTuple.from_residues(arr[rng.randrange(len(arr))])
        assert is_totally_ramified(t)


def _sum_zero_rows(n, **fixed):
    """Every sum-zero residue row, optionally with some slots fixed."""
    slots = ("u1", "u2", "u3", "v1", "v2")
    choices = [[fixed[s]] if s in fixed else list(gf.vectors(n)) for s in slots]
    head = np.array([sum(vs, ()) for vs in itertools.product(*choices)], dtype=np.int64)
    tail = -head.reshape(len(head), 5, 2).sum(axis=1) % n
    return np.concatenate([head, tail], axis=1)


@pytest.mark.parametrize("n", [2, 3])
def test_normal_form_expansion_matches_mask_oracle(n):
    # nothing is admissible at n = 2 or 3, so both sides are empty here;
    # the slice test below compares nonempty sets at n = 5
    rows = _sum_zero_rows(n)
    brute = rows[covers.admissibility_mask(rows, n)].astype(np.int16)
    brute = brute[np.argsort(covers.encode_rows(brute, n))]
    assert np.array_equal(covers.admissible_array(n), brute)


def test_normal_form_expansion_matches_mask_oracle_on_a_slice():
    # n = 5 with u1 and u2 fixed: the expansion supplies every GL(2) matrix
    # that maps the normal forms onto this slice
    rows = _sum_zero_rows(5, u1=(1, 0), u2=(0, 1))
    brute = rows[covers.admissibility_mask(rows, 5)]
    arr = covers.admissible_array(5)
    mine = arr[(arr[:, :4] == [1, 0, 0, 1]).all(axis=1)]
    assert len(mine) > 0
    assert np.array_equal(mine, brute)  # both in lex order


def test_normal_forms_are_the_fixed_slice():
    arr = covers.admissible_array(5)
    forms = covers.normal_forms(5)
    assert len(forms) * 480 == len(arr) == 420 * 480
    assert np.array_equal(forms, arr[(arr[:, [0, 1, 6, 7]] == [1, 0, 0, 1]).all(axis=1)])


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("n", [3, 5, 7, 40])
def test_encode_rows_matches_python_integers(n, dtype):
    # 40^12 is within 10 % of 2^64, so the top codes use every bit
    rng = np.random.default_rng(n)
    rows = rng.integers(0, n, size=(500, 12)).astype(dtype)
    rows[0], rows[1] = 0, n - 1
    codes = covers.encode_rows(rows, n)
    assert codes.dtype == np.uint64
    assert [int(c) for c in codes] == [sum(int(r) * n ** (11 - j) for j, r in enumerate(row)) for row in rows]


def test_encode_rows_reduces_residues_out_of_range():
    rows = covers.admissible_array(5)[::997].astype(np.int64)
    for shift in (5 << 60, -5):
        assert np.array_equal(covers.encode_rows(rows + shift, 5), covers.encode_rows(rows, 5))


def test_admissible_array_peak_memory():
    # from the forms, the GL(2) action table included: the rows' base-n^2
    # keys, sorted in place, and the int16 rows decoded from them 2^14 at
    # a time, about 37 bytes a row, 7.1 MiB; an argsort of the keys would
    # add 1.5 MiB and a uint64 copy of all the rows 18.5
    covers.normal_forms(5)
    covers.admissible_array.cache_clear(), covers._vec_table.cache_clear()
    tracemalloc.start()
    try:
        rows = covers.admissible_array(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (201600, 12)
    assert peak <= 12 << 20


def test_expansion_peak_with_its_tables_built():
    # with the forms and the GL(2) action table built, the expansion itself
    # peaks at about 7.1 MiB for the 4.6 MiB array
    covers.normal_forms(5), covers._vec_table(5)
    covers.admissible_array.cache_clear()
    tracemalloc.start()
    try:
        covers.admissible_array(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


def test_admissibility_mask_converts_one_chunk_at_a_time():
    # int16 rows are widened to int64 2^14 rows at a time: 3.8 MiB, where
    # widening the whole input first would add 18.5 MiB
    rows = covers.admissible_array(5)
    covers._line_table(5)
    tracemalloc.start()
    try:
        mask = covers.admissibility_mask(rows, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.shape == (201600,) and mask.all()
    assert peak <= 5 << 20


def test_encode_rows_refuses_overflowing_modulus():
    assert covers.encode_rows(np.full((1, 12), 39), 40)[0] == 40 ** 12 - 1
    with pytest.raises(ValueError, match="overflow"):
        covers.encode_rows(np.full((1, 12), 40), 41)


def test_admissible_array_peaks_within_the_bytes_it_checks(monkeypatch):
    # with the forms and the GL(2) action table built, as a caller holds
    # them, the expansion peaks at 7.43 MB: the figure it checks counts the
    # rows, their sort keys and one decode chunk (7.50 MB); the rows alone
    # were 4.84 MB
    checked, check = [], covers.check_bytes
    monkeypatch.setattr(covers, "check_bytes", lambda size, n, what: checked.append(size) or check(size, n, what))
    covers.normal_forms(5), covers._vec_table(5)
    covers.admissible_array.cache_clear()
    tracemalloc.start()
    try:
        rows = covers.admissible_array(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checked) == 1 and checked[0] > rows.nbytes
    assert peak <= checked[0]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_admissible_array_matches_the_einsum_oracle(n):
    arr, ref = covers.admissible_array(n), oracles.admissible_array_by_einsum(n)
    assert arr.dtype == ref.dtype == np.int16 and arr.shape == ref.shape
    assert arr.flags.c_contiguous and not arr.flags.writeable
    assert arr.tobytes() == ref.tobytes()


def test_admissible_array_refuses_oversized_modulus():
    # the byte check comes before the GL(2) action table at 7 is built
    covers._vec_table.cache_clear()
    with pytest.raises(ValueError, match="MiB"):
        covers.admissible_array(7)
    assert covers._vec_table.cache_info().misses == 0


def test_normal_forms_are_cached_and_read_only():
    forms = covers.normal_forms(5)
    assert covers.normal_forms(5) is forms
    # int16, the dtype of admissible_array, and strictly lexicographic
    for n in (5, 7):
        codes = covers.encode_rows(covers.normal_forms(n), n)
        assert covers.normal_forms(n).dtype == np.int16 and (codes[1:] > codes[:-1]).all()
    with pytest.raises(ValueError, match="read-only"):
        forms[0, 0] = 0


def test_normal_form_index_round_trip():
    # every row is g . forms[index] for the matrix g with columns u1 and v1
    arr = covers.admissible_array(5)
    rows = arr[np.random.default_rng(6).choice(len(arr), 500)].astype(np.int64)
    forms = covers.normal_forms(5)[covers.normal_form_index(rows, 5)].reshape(-1, 6, 2)
    g = np.stack([rows[:, 0:2], rows[:, 6:8]], axis=2)  # columns u1, v1
    assert np.array_equal(np.einsum("kij,ksj->ksi", g, forms).reshape(-1, 12) % 5, rows)
    with pytest.raises(ValueError, match="normal form"):
        covers.normal_form_index(np.array([[1, 0, 1, 0, 0, 1, 4, 1, 3, 2, 1, 0]]), 5)


def test_normal_form_index_matches_search_on_every_row():
    arr = covers.admissible_array(5)
    rows = arr[np.random.default_rng(12).permutation(len(arr))]
    assert np.array_equal(covers.normal_form_index(rows, 5), oracles.normal_form_index_by_search(rows, 5))


def test_normal_form_index_matches_search_on_gl2_images_at_7():
    forms, mats = covers.normal_forms(7), gf.gl2_array(7)
    rng = np.random.default_rng(7)
    which = rng.integers(len(forms), size=3000)
    g = mats[rng.integers(len(mats), size=3000)]
    rows = np.einsum("kij,ksj->ksi", g, forms[which].reshape(-1, 6, 2)).reshape(-1, 12) % 7
    index = covers.normal_form_index(rows, 7)
    assert np.array_equal(index, which)
    assert np.array_equal(index, oracles.normal_form_index_by_search(rows, 7))


def _raises(fn, row, n):
    try:
        fn(np.array([row]), n)
    except ValueError as err:
        assert "normal form" in str(err)
        return True
    return False


def test_normal_form_index_raises_where_the_search_does():
    # seeded non-admissible rows: every failed condition, and a singular
    # (u1, v1) apart from them, makes both routes raise
    rng = np.random.default_rng(2024)
    sum_zero = rng.integers(0, 5, size=(2000, 12))
    sum_zero[:, 10:] = -sum_zero[:, :10].reshape(-1, 5, 2).sum(axis=1) % 5
    rows = np.vstack([sum_zero, rng.integers(0, 5, size=(500, 12))])
    kinds = set()
    for row in rows:
        check = oracles.check_admissibility(SixTuple.from_residues(row), 5)
        if check:
            continue
        singular = not oracles.is_independent(row[0:2], row[6:8], 5)
        kinds.add("det" if singular else check.condition)
        assert _raises(covers.normal_form_index, row, 5)
        assert _raises(oracles.normal_form_index_by_search, row, 5)
    assert kinds == {"det", 0, 1, 2}


def test_normal_form_index_reduces_residues_out_of_range():
    arr = covers.admissible_array(5)
    rng = np.random.default_rng(55)
    rows = arr[rng.choice(len(arr), 500)].astype(np.int64)
    shifted = rows + 5 * rng.integers(-3, 4, size=rows.shape)
    assert shifted.min() < 0 and shifted.max() >= 5
    expected = covers.normal_form_index(rows, 5)
    assert np.array_equal(covers.normal_form_index(shifted, 5), expected)
    assert np.array_equal(oracles.normal_form_index_by_search(shifted, 5), expected)
    bad = np.array([1, 0, 1, 0, 0, 1, 4, 1, 3, 2, 1, 0]) + 5 * np.array([-1, 2] * 6)
    assert _raises(covers.normal_form_index, bad, 5)
    assert _raises(oracles.normal_form_index_by_search, bad, 5)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16])
def test_normal_form_index_reduces_one_residue_out_of_range_in_every_dtype(dtype):
    # one residue below 0 or at n is enough to reduce the rows: the signed
    # check reads negatives as huge unsigned numbers
    rows = covers.admissible_array(5)[:300].astype(dtype)
    expected = covers.normal_form_index(rows, 5)
    for shift in (-5, 5) if np.issubdtype(dtype, np.signedinteger) else (5,):
        moved = rows.copy()
        moved[7, 3] += shift
        assert np.array_equal(covers.normal_form_index(moved, 5), expected)


@pytest.mark.parametrize("n", [5, 7, 11])
def test_normal_form_index_sum_check_on_every_multiple_of_n(n):
    # admissible rows whose coordinate sums are k n, k = 1..5 (k = 5 needs
    # n > 5, the residues being below n): nonzero totals that pass the
    # row-sum check.  Shifting a coordinate of v3 by one keeps the form
    # that u1, v1, u2, u3 and v2 locate, so only the sum refuses the row.
    forms, mats = covers.normal_forms(n), gf.gl2_array(n)
    rng = np.random.default_rng(100 + n)
    g = mats[rng.integers(len(mats), size=4000)]
    which = rng.integers(len(forms), size=4000)
    rows = np.einsum("kij,ksj->ksi", g, forms[which].reshape(-1, 6, 2)).reshape(-1, 12) % n
    sums = rows.reshape(-1, 6, 2).sum(axis=1)
    assert not (sums % n).any()
    index = covers.normal_form_index(rows, n)
    assert np.array_equal(index, which)
    assert np.array_equal(index, oracles.normal_form_index_by_search(rows, n))
    multiples = {k for k in range(1, 6) if k * n <= 6 * (n - 1)}
    for coordinate in (0, 1):
        assert set((sums[:, coordinate] // n).tolist()) == multiples
        for k in multiples:
            row = rows[np.flatnonzero(sums[:, coordinate] == k * n)[0]].copy()
            row[10 + coordinate] += 1
            assert _raises(covers.normal_form_index, row, n)
            assert _raises(oracles.normal_form_index_by_search, row, n)


def test_normal_form_index_of_no_rows():
    none = np.zeros((0, 12), dtype=np.int64)
    assert covers.normal_form_index(none, 5).shape == (0,)
    assert oracles.normal_form_index_by_search(none, 5).shape == (0,)


@pytest.mark.parametrize("n", [5, 7])
def test_vec_table_inverts_every_matrix(n):
    # entry (code(u1) + n^2 code(v1)) n^2 + code(w) is g^-1 w for g = (u1 v1),
    # checked by applying g, and -1 exactly where g is singular
    table = covers._vec_table(n).reshape(n ** 4, n * n).astype(np.int64)
    k, w = np.arange(n ** 4)[:, None], np.arange(n * n)
    u1x, u1y, v1x, v1y = (k // n ** e % n for e in range(4))
    singular = (u1x * v1y - u1y * v1x) % n == 0
    assert np.array_equal(table < 0, np.broadcast_to(singular, table.shape))
    x, y = table % n, table // n
    image = (u1x * x + v1x * y) % n + n * ((u1y * x + v1y * y) % n)
    assert np.array_equal(np.where(singular, w, image), np.broadcast_to(w, table.shape))


def test_class_tables_are_built_once_per_modulus_and_read_only(u3):
    tables = (covers._vec_table, covers._form_table)
    for table in tables:
        table.cache_clear()
    covers.normal_form_index([u3.residues], 5)
    covers.normal_form_index(covers.admissible_array(5), 5)
    part = symmetry.orbit_partition.__wrapped__(7)
    assert [t.cache_info().misses for t in tables] == [2, 2]
    part.orbit_of(SixTuple.from_residues(covers.normal_forms(7)[-1]), 7)
    assert [t.cache_info().misses for t in tables] == [2, 2]
    for n in (5, 7):
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table(n)[0] = 0
    assert covers._vec_table(5).nbytes == 5 ** 6 * 2 and covers._form_table(5).nbytes == 5 ** 6 * 4
    # both tables count against the byte limit: 19^6 * 6 bytes exceed it
    with pytest.raises(ValueError, match="class tables over 256 MiB"):
        covers.normal_form_index(np.zeros((0, 12), dtype=np.int64), 19)


@pytest.mark.parametrize("table", [covers._vec_table, covers._form_table])
def test_class_table_builds_stay_near_what_they_hold(table):
    # each table is built in blocks of about 2^14 entries or forms, so no
    # n^6 int64 temporary is made: at 11 the build peaks within twice the
    # bytes it keeps (3.5 and 7.1 MB) and 1 MiB
    covers.normal_forms(11)
    table.cache_clear()
    tracemalloc.start()
    try:
        held = table(11).nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table.cache_clear()
    assert peak <= 2 * held + (1 << 20)


def _draw_gl2_image(data, n):
    """A random form f and matrix g, and the row g . f."""
    forms, mats = covers.normal_forms(n), gf.gl2_array(n)
    f = forms[data.draw(st.integers(0, len(forms) - 1))]
    g = mats[data.draw(st.integers(0, len(mats) - 1))]
    return f, g, (f.reshape(6, 2) @ g.T % n).ravel()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_form_index_round_trip_at_7(data):
    # g . forms[index] == row on random g . f, with g the matrix of (u1, v1)
    f, g, row = _draw_gl2_image(data, 7)
    form = covers.normal_forms(7)[covers.normal_form_index([row], 7)[0]]
    assert np.array_equal(form, f)
    assert np.array_equal((form.reshape(6, 2) @ g.T % 7).ravel(), row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generators_preserve_admissibility_at_7(data):
    # on sum-zero rows, admissible (g . f) or not, every generator of the
    # group keeps admissibility as the one-condition-at-a-time check sees it
    if data.draw(st.booleans()):
        row = _draw_gl2_image(data, 7)[2]
    else:
        head = data.draw(st.lists(st.integers(0, 6), min_size=10, max_size=10))
        row = np.array(head + [-sum(head[0::2]) % 7, -sum(head[1::2]) % 7])
    ok = oracles.check_admissibility(SixTuple.from_residues(row), 7).ok
    for gen in symmetry.default_generators(7):
        image = SixTuple.from_residues(gen.mat.apply_rows([row])[0])
        assert oracles.check_admissibility(image, 7).ok == ok
