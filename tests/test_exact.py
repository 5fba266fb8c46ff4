import random

import sympy
from sympy.matrices.normalforms import hermite_normal_form
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from oracles import integer_det, rational_rank
from quadcover import exact


def _check_factors(a):
    """exact.invariant_factors against the nonzero diagonal of sympy's
    Smith normal form, up to sign; positive, each dividing the next."""
    factors = exact.invariant_factors(a)
    oracle = sympy_snf(sympy.Matrix(a))
    expected = [abs(oracle[i, i]) for i in range(min(oracle.shape)) if oracle[i, i]]
    assert list(factors) == expected
    assert all(x > 0 for x in factors)
    assert all(y % x == 0 for x, y in zip(factors, factors[1:]))
    return factors


def test_snf_known():
    assert _check_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == (2, 2, 156)


def test_snf_random_vs_sympy():
    rng = random.Random(20240517)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        _check_factors(a)


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


def _same_factors(a, b):
    """Whether appending b, a vector or a matrix of columns, to the integer
    matrix a keeps its invariant factors.  Appending maps coker(a) onto
    coker([a | b]), and a finitely generated abelian group is isomorphic to
    no proper quotient of itself, so this holds exactly when b lies in the
    column lattice of a."""
    columns = [x if isinstance(x, (list, tuple)) else [x] for x in b]
    appended = [[*row, *x] for row, x in zip(a, columns, strict=True)]
    return exact.invariant_factors(a) == exact.invariant_factors(appended)


def _in_lattice(a, b):
    """Independent oracle: b, a vector or a matrix of columns, lies in the
    column lattice of a exactly when appending it leaves sympy's Hermite
    normal form unchanged."""
    appended = [[*row, *(x if isinstance(x, list) else [x])] for row, x in zip(a, b)]
    return hermite_normal_form(sympy.Matrix(a)) == hermite_normal_form(sympy.Matrix(appended))


def _check_membership(a, b, member):
    assert _same_factors(a, b) == member, (a, b)
    assert _in_lattice(a, b) == member, (a, b)


def test_in_image():
    a = [[2, 0], [0, 3]]
    _check_membership(a, [2, 3], True)
    _check_membership(a, [4, 0], True)
    _check_membership(a, [1, 0], False)
    b = [[1, 1], [1, 1]]
    _check_membership(b, [2, 2], True)
    _check_membership(b, [1, 0], False)
    # tall matrix: image is a rank-1 sublattice
    c = [[2], [4]]
    _check_membership(c, [2, 4], True)
    _check_membership(c, [2, 5], False)
    _check_membership(c, [1, 2], False)


def test_in_image_random_products():
    rng = random.Random(99)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-3, 3) for _ in range(cols)]
        b = [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        _check_membership(a, b, True)


def test_in_image_vs_hermite_normal_form():
    rng = random.Random(3)
    members = 0
    for _ in range(2000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.choice([0, rng.randint(-6, 6)]) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(cols)]
            b = [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)]
            b[rng.randrange(rows)] += rng.choice([0, 0, 1, -1, 2])
        else:
            b = [rng.randint(-4, 4) for _ in range(rows)]
        expected = _in_lattice(a, b)
        assert _same_factors(a, b) == expected, (a, b)
        members += expected
    # both members and non-members occur
    assert 300 < members < 1700


def test_in_image_of_several_columns_vs_hermite_normal_form():
    # all columns at once, against the oracle and against one column at a
    # time
    rng = random.Random(5)
    members = 0
    for _ in range(400):
        rows, cols, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(2, 5)
        a = [[rng.choice([0, rng.randint(-6, 6)]) for _ in range(cols)] for _ in range(rows)]
        x = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(cols)]
        b = [[sum(a[i][j] * x[j][c] for j in range(cols)) for c in range(k)] for i in range(rows)]
        if rng.random() < 0.5:
            b[rng.randrange(rows)][rng.randrange(k)] += rng.choice([1, -1, 2])
        expected = _in_lattice(a, b)
        assert _same_factors(a, b) == expected, (a, b)
        assert all(_same_factors(a, list(col)) for col in zip(*b)) == expected
        members += expected
    assert 100 < members < 350


def test_in_image_empty():
    # no rows: the empty vector is the image of x = 0
    _check_membership([], [], True)
    # no columns: the image is {0}
    _check_membership([[], []], [0, 0], True)
    _check_membership([[], []], [0, 1], False)
    _check_membership([[], [], []], [3, 0, 0], False)
