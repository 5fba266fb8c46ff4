from fractions import Fraction

import pytest
import sympy

from quadcover import exact, picard
from quadcover.picard import DivClass, E, H, ZERO, canonical_class, intersect


def test_intersect_examples():
    l1p = H - E[0] - E[1]
    assert intersect(l1p, E[0]) == 1
    assert intersect(E[0], E[0]) == -1
    assert intersect(H, H) == 1


def test_intersect_symmetric_bilinear():
    basis = (H,) + E
    for a in basis:
        for b in basis:
            assert intersect(a, b) == intersect(b, a)
    a = DivClass(2, -1, 0, 3, 1)
    b = DivClass(1, 1, -2, 0, 4)
    c = DivClass(-3, 0, 1, 1, 2)
    assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
    assert intersect(3 * a, c) == 3 * intersect(a, c)


def test_canonical_class():
    k = canonical_class()
    assert k == DivClass(-3, 1, 1, 1, 1)
    assert intersect(k, k) == 5
    assert k + DivClass(3, -1, -1, -1, -1) == ZERO
    assert intersect(k, H) == -3


def test_configuration_classes():
    conf = picard.configuration()
    labels = [c.label for c in conf.curves]
    assert labels == ["L1'", "L2'", "L3'", "L1", "L2", "L3", "E0", "E1", "E2", "E3"]
    by_label = dict(conf.curves)
    assert by_label["L1'"] == H - E[0] - E[1]
    assert by_label["L2"] == H - E[1] - E[3]
    assert by_label["E2"] == E[2]
    for c in conf.curves:
        assert intersect(c.cls, c.cls) == -1
    assert conf.total_branch_class() == DivClass(6, -2, -2, -2, -2)


def test_incidences():
    pairs = picard.incidences()
    assert len(pairs) == 15
    idx = picard.CURVE_LABELS.index
    assert (idx("L1'"), idx("E0")) in pairs
    assert (idx("L1'"), idx("L2'")) not in pairs
    assert intersect(H - E[0] - E[1], H - E[0] - E[2]) == 0
    # independent route: the geometric pair list (each line meets the two
    # exceptional curves over its points, and the opposite line once)
    expected = set()
    for j in (1, 2, 3):
        i, k = [x for x in (1, 2, 3) if x != j]
        expected.add(tuple(sorted((idx(f"L{j}'"), idx(f"L{j}")))))
        expected.add(tuple(sorted((idx(f"L{j}'"), idx("E0")))))
        expected.add(tuple(sorted((idx(f"L{j}'"), idx(f"E{j}")))))
        expected.add(tuple(sorted((idx(f"L{j}"), idx(f"E{i}")))))
        expected.add(tuple(sorted((idx(f"L{j}"), idx(f"E{k}")))))
    assert pairs == expected


def test_curve_labels_meet_when_disjoint():
    # the 2-subset labels on which Sym(5) acts: two curves meet exactly
    # when their labels are disjoint
    labels = picard.CURVE_PAIRS
    assert sorted(labels) == sorted((i, j) for i in range(5) for j in range(i + 1, 5))
    disjoint = {
        (i, j) for i in range(10) for j in range(i + 1, 10) if not set(labels[i]) & set(labels[j])
    }
    assert disjoint == picard.incidences()


def test_intersection_matrix_rows():
    m = picard.intersection_matrix()
    assert m[0] == [1, 1, 1, 0, 0]  # L1'
    assert m[3] == [1, 0, 0, 1, 1]  # L1
    assert m[6] == [0, -1, 0, 0, 0]  # E0


def test_h1_complement():
    pres = picard.h1_complement()
    assert pres.rank == 5
    assert pres.torsion == ()
    assert len(pres.relations) == 5
    # relations hold in the cokernel: solve r*x = rel over the rationals
    # and check the (unique, full-column-rank) solution is integral
    r = sympy.Matrix(picard.intersection_matrix())
    for rel in pres.relations:
        sol, params = r.gauss_jordan_solve(sympy.Matrix(rel))
        assert params.shape[0] == 0
        assert all(x.is_Integer for x in sol)
        assert r * sol == sympy.Matrix(rel)


def test_loop_relations_are_the_pairing_columns():
    order = ("l1'", "l2'", "l3'", "l1", "l2", "l3", "e0", "e1", "e2", "e3")

    def relation(plus, minus=()):
        return tuple((x in plus) - (x in minus) for x in order)

    written = (
        relation(["e0"], ["l1'", "l2'", "l3'"]),  # e0 = l1' + l2' + l3'
        relation(["e1"], ["l1'", "l2", "l3"]),  # ei = li' + lj + lk
        relation(["e2"], ["l2'", "l1", "l3"]),
        relation(["e3"], ["l3'", "l1", "l2"]),
        relation(order[:6]),  # the six line loops sum to 0
    )
    assert picard.LOOP_RELATIONS == written
    columns = [tuple(c) for c in zip(*picard.intersection_matrix())]
    for rel in written:
        assert rel in columns or tuple(-x for x in rel) in columns
    assert picard.h1_complement().relations == written


def test_h1_transpose_same_rank():
    m = picard.intersection_matrix()
    mt = [list(col) for col in zip(*m)]
    assert len(exact.invariant_factors(m)) == len(exact.invariant_factors(mt))


def test_k2_rational_identity():
    k = canonical_class()
    d = picard.configuration().total_branch_class()
    adj = k + Fraction(4, 5) * d
    assert 25 * intersect(adj, adj) == 45


def test_divclass_arithmetic():
    a = DivClass(1, 2, 3, 4, 5)
    assert -a == DivClass(-1, -2, -3, -4, -5)
    assert a - a == ZERO
    assert 2 * a == a + a
    assert a * 2 == a + a
    assert Fraction(1, 2) * a == DivClass(
        Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)
    )
    assert a.format() == "H + 2E0 + 3E1 + 4E2 + 5E3"
    assert ZERO.format() == "0"
    assert (H - E[0] - E[1]).format() == "H - E0 - E1"
    with pytest.raises(TypeError, match="intersect"):
        a * a
