import random

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from oracles import integer_det, rational_rank
from quadcover import exact


def _check_snf(a):
    d, u, v = exact.smith_normal_form(a)
    rows, cols = len(a), len(a[0])
    # u*a*v == d
    ua = [[sum(u[i][k] * a[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    uav = [[sum(ua[i][k] * v[k][j] for k in range(cols)) for j in range(cols)] for i in range(rows)]
    assert uav == d
    # diagonal with divisibility chain
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    assert all(x >= 0 for x in diag)
    # transforms unimodular
    assert integer_det(u) in (1, -1)
    assert integer_det(v) in (1, -1)
    return diag


def test_snf_known():
    diag = _check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    oracle = sympy_snf(sympy.Matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert diag == [oracle[i, i] for i in range(3)]


def test_snf_random_vs_sympy():
    rng = random.Random(20240517)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = _check_snf(a)
        oracle = sympy_snf(sympy.Matrix(a))
        expected = [oracle[i, i] for i in range(min(rows, cols))]
        # sympy may negate factors; compare absolute values
        assert [abs(x) for x in diag] == [abs(x) for x in expected]


def test_invariant_factors():
    assert exact.invariant_factors([[1, 0], [0, 1]]) == (1, 1)
    assert exact.invariant_factors([[2, 0], [0, 4]]) == (2, 4)
    assert exact.invariant_factors([[0, 0], [0, 0]]) == ()


def test_integer_det_vs_sympy():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        assert integer_det(a) == sympy.Matrix(a).det()


def test_rational_rank_vs_sympy():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert rational_rank(a) == sympy.Matrix(a).rank()
    assert rational_rank([]) == 0


def test_in_image():
    a = [[2, 0], [0, 3]]
    assert exact.in_image(a, [2, 3])
    assert exact.in_image(a, [4, 0])
    assert not exact.in_image(a, [1, 0])
    b = [[1, 1], [1, 1]]
    assert exact.in_image(b, [2, 2])
    assert not exact.in_image(b, [1, 0])
    # tall matrix: image is a rank-1 sublattice
    c = [[2], [4]]
    assert exact.in_image(c, [2, 4])
    assert not exact.in_image(c, [2, 5])
    assert not exact.in_image(c, [1, 2])


def test_in_image_random_products():
    rng = random.Random(99)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-3, 3) for _ in range(cols)]
        b = [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        assert exact.in_image(a, b)
