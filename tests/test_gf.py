import random
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy

import oracles
from quadcover import gf


def test_chi_eval_examples():
    assert oracles.chi_eval((1, 3), (0, 1)) == 3
    assert oracles.chi_eval((0, 0), (4, 4)) == 0
    assert oracles.chi_eval((2, 1), (4, 1)) == 4


def test_chi_eval_zero_and_bilinear():
    vs = gf.vectors(5)
    for v in vs:
        assert oracles.chi_eval((0, 0), v) == 0
        assert oracles.chi_eval(v, (0, 0)) == 0
    for chi in vs:
        for v in vs:
            for w in vs:
                lhs = oracles.chi_eval(chi, oracles.vadd(v, w))
                rhs = (oracles.chi_eval(chi, v) + oracles.chi_eval(chi, w)) % 5
                assert lhs == rhs


def test_is_independent_examples():
    assert oracles.is_independent((1, 0), (0, 1))
    assert not oracles.is_independent((1, 0), (2, 0))
    assert oracles.is_independent((1, 0), (4, 1))


def test_is_independent_symmetric_and_zero():
    vs = gf.vectors(5)
    for v in vs:
        assert not oracles.is_independent(v, (0, 0))
        assert not oracles.is_independent((0, 0), v)
        for w in vs:
            assert oracles.is_independent(v, w) == oracles.is_independent(w, v)


def test_gl2_enumerate_count_oracle():
    for n in (2, 3, 5):
        mats = gf.gl2_enumerate(n)
        assert len(mats) == (n * n - 1) * (n * n - n)
        assert len(set(mats)) == len(mats)
        assert all(m.det() != 0 for m in mats)
        assert gf.Mat.identity(2, n) in mats


def test_gl2_enumerate_n2_brute_force():
    # independent route: a matrix is kept iff some product with another
    # candidate is the identity
    n = 2
    all_mats = [
        gf.Mat([[a, b], [c, d]], n)
        for a in range(n) for b in range(n) for c in range(n) for d in range(n)
    ]
    ident = gf.Mat.identity(2, n)
    invertible = [m for m in all_mats if any(m * x == ident for x in all_mats)]
    assert len(invertible) == 6
    assert set(invertible) == set(gf.gl2_enumerate(n))


def test_gl2_order_counts_the_array():
    for n in (2, 3, 5, 7, 11):
        assert gf.gl2_order(n) == len(gf.gl2_array(n))
    with pytest.raises(ValueError, match="not prime"):
        gf.gl2_order(4)


def test_gl2_enumerate_rejects_composite():
    with pytest.raises(ValueError):
        gf.gl2_enumerate(4)


def test_gl2_generators_generate():
    for n in (2, 3, 5):
        gens = gf.gl2_generators(n)
        els = set(gens)
        boundary = list(els)
        while boundary:
            fresh = []
            for a in gens:
                for b in boundary:
                    c = a * b
                    if c not in els:
                        els.add(c)
                        fresh.append(c)
            boundary = fresh
        assert els == set(gf.gl2_enumerate(n))


def test_is_prime():
    assert [k for k in range(-3, 30) if gf.is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(gf.is_prime(k) == sympy.isprime(k) for k in range(-3, 10 ** 5))
    assert gf.require_prime(19) == 19
    with pytest.raises(ValueError, match="not prime"):
        gf.require_prime(25)
    # 2^31 - 1 is prime; from 2^31 on the bound refuses before trial division
    assert gf.require_prime(2 ** 31 - 1) == 2 ** 31 - 1
    for n in (2 ** 31, 2 ** 61 - 1, 10 ** 16 + 61):
        with pytest.raises(ValueError, match=r"not below 2\^31"):
            gf.require_prime(n)


def test_inverses_match_pow():
    for n in (2, 5, 13, 1931):
        assert gf.inverses(n).tolist() == [0] + [pow(v, -1, n) for v in range(1, n)]
    with pytest.raises(ValueError, match="^modulus 6 is not prime$"):
        gf.inverses(6)


def test_primitive_root():
    assert gf.primitive_root(2) == 1
    assert gf.primitive_root(3) == 2
    assert gf.primitive_root(5) == 2


def test_mat_basics():
    m = gf.Mat([[1, 2], [3, 4]], 5)
    assert m.apply_rows([(1, 0)]).tolist() == [[1, 3]]
    assert (m * gf.Mat.identity(2, 5)) == m
    assert m.det() == 3  # -2 mod 5
    assert gf.Mat([[1, 2], [2, 4]], 5).det() == 0
    with pytest.raises(ValueError):
        gf.Mat([[1, 2, 3]], 5)
    with pytest.raises(ValueError):
        m * gf.Mat.identity(2, 7)


def test_mat_reads_entries_through_the_row_intake():
    # uint64 entries from 2^63 on are reduced as they are, not wrapped
    m = gf.Mat(np.array([[2 ** 63 + 1, 0], [0, 1]], dtype=np.uint64), 5)
    assert m.array.tolist() == [[(2 ** 63 + 1) % 5, 0], [0, 1]]
    assert m == gf.Mat([[4, 0], [0, 1]], 5)


def test_mat_refuses_a_modulus_beyond_int16():
    # 32749 is the largest prime whose residues int16 holds
    assert gf.Mat([[40000, 1], [0, 1]], 32749).array[0, 0] == 40000 - 32749
    for n in (32771, 40009):
        with pytest.raises(ValueError, match=f"modulus {n} "):
            gf.Mat([[40000, 1], [0, 1]], n)


def test_mat_det_in_python_ints():
    assert gf.Mat([[200, 0], [0, 200]], 211).det() == 200 * 200 % 211 == 121
    rng = random.Random(17)
    for n in (211, 32749):
        for _ in range(200):
            a, b, c, d = (rng.randrange(n) for _ in range(4))
            assert gf.Mat([[a, b], [c, d]], n).det() == (a * d - b * c) % n


def test_mat_block_diagonal():
    b = gf.Mat.block_diagonal([[2, 1], [1, 1]], 3, 5)
    assert b.size == 6
    assert b.apply_rows([(1, 0, 0, 1, 1, 1)]).tolist() == [[2, 1, 1, 1, 3, 2]]


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint8, np.uint64])
def test_reduce_rows_keeps_the_dtype_and_copies_only_out_of_range(dtype):
    rows = (np.arange(36) % 5).astype(dtype).reshape(3, 12)
    assert gf.reduce_rows(rows, 5) is rows
    shifts = (5, -5, -6) if np.issubdtype(dtype, np.signedinteger) else (5, 100)
    for shift in shifts:
        moved = rows.copy()
        moved[2, 7] += shift
        reduced = gf.reduce_rows(moved, 5)
        assert reduced.dtype == dtype and reduced is not moved
        assert np.array_equal(reduced, moved % 5) and moved[2, 7] == rows[2, 7] + shift
    empty = np.zeros((0, 12), dtype=dtype)
    assert gf.reduce_rows(empty, 5) is empty


def test_reduce_rows_reads_anything_else_as_int64():
    reduced = gf.reduce_rows([[-1, 7, (1 << 63) - 1, -(1 << 63)]], 5)
    assert reduced.dtype == np.int64
    assert reduced.tolist() == [[4, 2, ((1 << 63) - 1) % 5, -(1 << 63) % 5]]
    assert gf.reduce_rows((1.0, 6.0), 5).tolist() == [1, 1]
    # a dtype that cannot hold n is widened before the reduction
    narrow = gf.reduce_rows(np.array([-1, 5], dtype=np.int8), 131)
    assert narrow.dtype == np.int64 and narrow.tolist() == [130, 5]
    with pytest.raises(OverflowError):
        gf.reduce_rows([1 << 63], 5)
    # integral floats read exactly, from float arrays too; a Python int
    # among floats is not rounded through float64
    for rows in ([[1.0, 6.0, -1.0]], np.array([[1.0, 6.0, -1.0]]), np.array([[1.0, 6.0, -1.0]], dtype=np.float32)):
        reduced = gf.reduce_rows(rows, 5)
        assert reduced.dtype == np.int64 and reduced.tolist() == [[1, 1, 4]]
    assert gf.Mat([[1.0, 5.0], [0.0, 6.0]], 5) == gf.Mat([[1, 0], [0, 1]], 5)
    assert gf.reduce_rows([1.0, (1 << 62) + 1], 7).tolist() == [1, ((1 << 62) + 1) % 7]
    # so do integral Fractions and Decimals, from a list or an object array
    for rows in ([Fraction(12, 2), Decimal("6"), Decimal("-1")],
                 np.array([Fraction(12, 2), Decimal("6"), Decimal("-1")], dtype=object)):
        reduced = gf.reduce_rows(rows, 5)
        assert reduced.dtype == np.int64 and reduced.tolist() == [1, 1, 4]
    assert gf.reduce_rows([Fraction((1 << 62) + 1)], 7).tolist() == [((1 << 62) + 1) % 7]
    assert gf.Mat([[Fraction(6), 0], [0, Decimal("1")]], 5) == gf.Mat([[1, 0], [0, 1]], 5)
    for rows in ([Fraction(1 << 63)], np.array([Decimal(2) ** 63], dtype=object)):
        with pytest.raises(OverflowError):
            gf.reduce_rows(rows, 5)
    for rows in ([1e19], np.array([1e19]), np.array([-1e19])):
        with pytest.raises(OverflowError):
            gf.reduce_rows(rows, 5)


@pytest.mark.parametrize("bad", [1.5, 1.7, -0.5, float("nan"), float("inf"), -float("inf"),
                                 Fraction(3, 2), Decimal("6.5"), Decimal("NaN"), Decimal("-Infinity")])
def test_reduce_rows_refuses_a_float_that_is_not_a_finite_integer(bad):
    # truncated, 1.7 would read as 1 and the row as U3; a NaN cast would
    # read as a residue after a RuntimeWarning.  A ValueError names the
    # value, a float or any other number, from a list or an object array
    row = [1, 0, 1, 0, 0, 1, 4, 1, 3, 2, 1, 1]
    row[5] = bad
    floats = [np.array([row]), np.array([row], dtype=np.float32)] if isinstance(bad, float) else []
    for rows in ([row], np.array([row], dtype=object), *floats):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^residue {bad} is not an integer$"):
                gf.reduce_rows(rows, 5)
    with pytest.raises(ValueError, match=f"^residue {bad} is not an integer$"):
        gf.Mat([[bad, 0], [0, 1]], 5)
