import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from quadcover import covers, golden, sheaves, symmetry
from quadcover.covers import SixTuple
from quadcover.picard import DivClass, ZERO, H, canonical_class, configuration, intersect


def test_coeffs_golden_rows(u3):
    for chi, expected in golden.COEFF_ROWS_U3.items():
        assert tuple(sheaves.coeffs(u3, chi)) == expected
    assert tuple(sheaves.coeffs(u3, (0, 0))) == (0,) * 10


def test_sheaf_examples(u3):
    assert sheaves.sheaf(u3, (1, 3)).cls == DivClass(3, -1, -1, -1, -1)
    assert sheaves.sheaf(u3, (0, 1)).cls == H
    assert sheaves.sheaf(u3, (0, 0)).cls == ZERO
    assert sheaves.sheaf(u3, (4, 3)).cls == DivClass(4, -2, -1, -2, -2)


def test_sheaf_table_golden(u3):
    table = sheaves.sheaf_table(u3)
    assert len(table) == 25
    # rows by b, a varying inside
    assert [cs.chi for cs in table[:6]] == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]
    for cs in table:
        assert tuple(cs.cls) == golden.SHEAF_TABLE_U3[cs.chi]


def test_sheaf_trivial_character_everywhere():
    rng = random.Random(5)
    arr = covers.admissible_array(5)
    for _ in range(20):
        t = SixTuple.from_residues(arr[rng.randrange(len(arr))])
        assert sheaves.sheaf(t, (0, 0)).cls == ZERO


def test_h0_examples(u3):
    assert sheaves.h0(ZERO) == 1
    assert sheaves.h0(H) == 3
    k = canonical_class()
    assert k + sheaves.sheaf(u3, (2, 1)).cls == ZERO
    assert sheaves.h0(k + sheaves.sheaf(u3, (2, 1)).cls) == 1
    assert k + sheaves.sheaf(u3, (0, 1)).cls == DivClass(-2, 1, 1, 1, 1)
    assert sheaves.h0(k + sheaves.sheaf(u3, (0, 1)).cls) == 0
    # exceptional fixed component: O(E0) has the constants only
    assert sheaves.h0(DivClass(0, 1, 0, 0, 0)) == 1
    assert sheaves.h0(DivClass(-1, 0, 0, 0, 0)) == 0


_SYM_POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def _oracle_h0(cls):
    """Independent route: symbolic derivatives and a sympy rank."""
    x, y, z = sympy.symbols("x y z")
    d = cls.h
    if d < 0:
        return 0
    mults = [max(-e, 0) for e in cls[1:]]
    monos = [x ** i * y ** j * z ** (d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    rows = []
    for point, m in zip(_SYM_POINTS, mults):
        subs = dict(zip((x, y, z), point))
        for total in range(m):
            for i in range(total + 1):
                for j in range(total - i + 1):
                    k = total - i - j
                    rows.append(
                        [sympy.diff(mono, x, i, y, j, z, k).subs(subs) for mono in monos]
                    )
    rank = sympy.Matrix(rows).rank() if rows else 0
    return len(monos) - rank


def test_h0_oracle_on_u3_table(u3):
    for cs in sheaves.sheaf_table(u3):
        cls = cs.cls
        if cls.h < 0:
            continue
        assert sheaves.h0(cls) == _oracle_h0(cls)
        mults = [max(-e, 0) for e in cls[1:]]
        if all(m <= 1 for m in mults):
            # simple general points impose independent conditions here
            expected = (cls.h + 1) * (cls.h + 2) // 2 - sum(mults)
            assert sheaves.h0(cls) == expected


def test_h0_oracle_on_shifted_classes(u3):
    k = canonical_class()
    for cs in sheaves.sheaf_table(u3):
        shifted = k + cs.cls
        assert sheaves.h0(shifted) == _oracle_h0(shifted)


def test_invariants_golden(representatives):
    for name, t in representatives.items():
        inv = sheaves.invariants(t)
        assert {"k2": inv.k2, "chi": inv.chi, "pg": inv.pg, "q": inv.q} == golden.INVARIANTS[name]
        assert inv.chi == inv.pg - inv.q + 1


def test_invariants_rejects_bad_input(u3):
    with pytest.raises(ValueError, match="not admissible"):
        sheaves.invariants(SixTuple.from_residues([1, 0] * 6))
    # an admissible tuple at another modulus still has no chi = 5 story
    rng = random.Random(23)
    found = None
    for _ in range(20000):
        vecs = [(rng.randrange(7), rng.randrange(7)) for _ in range(5)]
        sx = -sum(v[0] for v in vecs) % 7
        sy = -sum(v[1] for v in vecs) % 7
        t = SixTuple(*vecs, (sx, sy))
        if covers.is_admissible(t, 7):
            found = t
            break
    assert found is not None
    with pytest.raises(ValueError, match="modulus 5"):
        sheaves.invariants(found, 7)


def test_k2_recomputed_from_rational_classes():
    k = canonical_class()
    d = configuration().total_branch_class()
    adj = k + Fraction(4, 5) * d
    assert 25 * intersect(adj, adj) == 45


def test_ram_curves(u3):
    rams = sheaves.ram_curve_numbers(u3)
    assert len(rams) == 10
    assert rams[2] == sheaves.RamCurve("L3'", -1, 3, 2)
    for r in rams:
        assert (r.selfint, r.kdot, r.genus) == golden.RAM_CURVE
    with pytest.raises(ValueError):
        sheaves.ram_curve_numbers(SixTuple.from_residues([0] * 12))


def test_char_order():
    assert sheaves.char_order((0, 0)) == 1
    assert sheaves.char_order((2, 1)) == 5
    assert sheaves.char_order((0, 3)) == 5


def test_epsilon_examples(u3):
    assert sheaves.epsilon(u3, (2, 1), (2, 1)) == (0, 0, 0, 1, 1, 1, 0, 1, 1, 1)
    assert sheaves.epsilon(u3, (0, 0), (3, 2)) == (0,) * 10
    assert sheaves.epsilon(u3, (1, 3), (4, 2)) == sheaves.epsilon(u3, (4, 2), (1, 3))


def test_epsilon_identity_on_random_triples():
    rng = random.Random(8)
    arr = covers.admissible_array(5)
    curves = configuration().curves
    for _ in range(200):
        t = SixTuple.from_residues(arr[rng.randrange(len(arr))])
        chi = (rng.randrange(5), rng.randrange(5))
        chi2 = (rng.randrange(5), rng.randrange(5))
        eps = sheaves.epsilon(t, chi, chi2)
        total = ZERO
        for e, curve in zip(eps, curves):
            total = total + e * curve.cls
        l1 = sheaves.sheaf(t, chi).cls
        l2 = sheaves.sheaf(t, chi2).cls
        l12 = sheaves.sheaf(t, ((chi[0] + chi2[0]) % 5, (chi[1] + chi2[1]) % 5)).cls
        assert l1 + l2 - l12 == total


def test_cover_equations(u3):
    rels = sheaves.cover_equations(u3)
    assert len(rels) == 300
    for r in rels:
        assert r.rhs == ((r.chi[0] + r.chi2[0]) % 5, (r.chi[1] + r.chi2[1]) % 5)
    diag = [r for r in rels if r.chi == (2, 1) and r.chi2 == (2, 1)]
    assert diag[0].sigma_exponents == (0, 0, 0, 1, 1, 1, 0, 1, 1, 1)
    assert diag[0].format() == "w[2,1]*w[2,1] = s4s5s6s8s9s10*w[4,2]"
    with pytest.raises(ValueError):
        sheaves.cover_equations(SixTuple.from_residues([0] * 12))


def test_cover_equations_match_epsilon(u3):
    # cover_equations shares its residue rows across pairs; epsilon recomputes them
    arr = covers.admissible_array(5)
    rng = np.random.default_rng(20)
    tuples = [u3] + [SixTuple.from_residues(row) for row in arr[rng.choice(len(arr), 20)]]
    for t in tuples:
        for r in sheaves.cover_equations(t):
            assert r.sigma_exponents == sheaves.epsilon(t, r.chi, r.chi2)


@pytest.mark.parametrize("fn", [sheaves.invariants, sheaves.ram_curve_numbers, sheaves.cover_equations])
def test_admissibility_guard(fn):
    with pytest.raises(ValueError, match=r"tuple 1,0,1,0,1,0,1,0,1,0,1,0 is not admissible: condition 0"):
        fn(SixTuple.from_residues([1, 0] * 6))


def test_sheaf_integrality_on_random_tuples():
    rng = random.Random(100)
    arr = covers.admissible_array(5)
    for _ in range(500):
        t = SixTuple.from_residues(arr[rng.randrange(len(arr))])
        for a in range(5):
            for b in range(5):
                sheaves.sheaf(t, (a, b))  # raises ArithmeticError on failure


def test_pg_values_match_scalar(representatives):
    rows = np.array([t.residues for t in representatives.values()], dtype=np.int16)
    pg = sheaves.pg_values(rows)
    expected = [sheaves.invariants(t).pg for t in representatives.values()]
    assert list(pg) == expected


def test_invariants_constant_on_orbits():
    part = symmetry.orbit_partition(5)
    arr = covers.admissible_array(5)
    pg = sheaves.pg_values(arr)
    for orb in part.orbits:
        values = set(pg[orb.member_indices].tolist())
        assert len(values) == 1
    # the regular class is the one of size 57600 containing U3
    u3 = SixTuple.parse("1,0,1,0,0,1,4,1,3,2,1,1")
    oid = part.orbit_of(u3)
    assert pg[part.orbits[oid].member_indices[0]] == 4
