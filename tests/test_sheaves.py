import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest
import sympy
from hypothesis import given, seed, settings, strategies as st

import oracles
from quadcover import covers, gf, golden, sheaves, symmetry
from quadcover.covers import SixTuple
from quadcover.picard import CURVE_PAIRS, DivClass, ZERO, H, canonical_class, configuration, intersect


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


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 9), st.lists(st.integers(-6, 3), min_size=4, max_size=4))
def test_h0_closed_form_matches_rank(d, es):
    cls = DivClass(d, *es)
    assert sheaves.h0(cls) == oracles.h0_rank(cls)


def _integral_classes(rows, p):
    """The classes of every character on rows, each checked to be integral:
    p L is the weighted branch sum itself."""
    table = sheaves.character_table(rows, p)
    assert (table.classes * p == table.residues @ sheaves.CURVE_CLASSES).all()
    return table.classes


@lru_cache(maxsize=None)
def _every_class(p):
    """Every character class of every normal form, in chunks to bound memory."""
    forms, seen = covers.normal_forms(p), set()
    for start in range(0, len(forms), 2000):
        classes = _integral_classes(forms[start:start + 2000], p)
        seen.update(map(tuple, classes.reshape(-1, 5).tolist()))
    return np.array(sorted(seen))


@pytest.mark.parametrize("p", [5, 7])
def test_h0_closed_form_on_every_twisted_class(p):
    # every class K + L_chi of every normal form, one at a time and read
    # from the class table
    classes = _every_class(p)
    counts = sheaves.class_numbers(classes)[:, 0]
    for c, count in zip((classes + canonical_class()).tolist(), counts.tolist()):
        assert sheaves.h0(DivClass(*c)) == count == oracles.h0_rank(DivClass(*c))


def _box():
    """The 486 classes with H-coefficient 0 to 5 and E-coefficients -2 to 0,
    in lexicographic order."""
    return np.array(list(product(range(6), *[range(-2, 1)] * 4)))


def test_class_table_matches_the_peel_oracle():
    # both columns on all 486 classes of the box, one class at a time
    table, ky = sheaves._class_table(), canonical_class()
    assert table.shape == (486, 2) and table.dtype == np.int64
    for (count, half), c in zip(table.tolist(), map(DivClass._make, _box().tolist())):
        assert count == oracles.h0_by_peeling(c + ky)
        assert 2 * half == intersect(c, c + ky)
    assert np.array_equal(sheaves.class_numbers(_box()), table)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


def test_class_table_is_a_constant_of_y():
    sheaves._class_table.cache_clear()
    sheaves.invariants(SixTuple.parse("1,0,1,0,0,1,4,1,3,2,1,1"))
    sheaves.pg_values(covers.normal_forms(5))
    sheaves.h0.cache_clear()  # the h0 cache is not the table
    sheaves.class_numbers(np.zeros((3, 5), dtype=np.int64))
    assert sheaves._class_table.cache_info().misses == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), *[st.integers(-8, 8)] * 4), min_size=1, max_size=40))
def test_vectorized_h0_matches_the_peel_oracle(classes):
    counts = sheaves._h0_rows(classes).tolist()
    assert counts == [oracles.h0_by_peeling(DivClass(*c)) for c in classes]


def _sample_rows(p, count, seed):
    """Seeded admissible rows at p: random sum-zero rows that pass the mask."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, p, size=(count, 12))
    rows[:, 10:] = -rows[:, :10].reshape(-1, 5, 2).sum(axis=1) % p
    return rows[covers.admissibility_mask(rows, p)]


@pytest.mark.parametrize("p", [5, 7, 11])
def test_every_character_class_lies_in_the_box(p):
    classes = _every_class(p) if p < 11 else np.unique(
        _integral_classes(_sample_rows(p, 6000, 1511), p).reshape(-1, 5), axis=0)
    assert len(classes) > 40
    assert classes[:, 0].min() >= 0 and classes[:, 0].max() <= 5
    assert classes[:, 1:].min() >= -2 and classes[:, 1:].max() <= 0
    sheaves.class_numbers(classes)  # no ValueError


@pytest.mark.parametrize("c", [(6, 0, 0, 0, 0), (5, -3, 0, 0, 0), (0, 0, 0, -3, 0), (-1, 0, 0, 0, 0),
                               (2, 0, 1, 0, 0), (-1, -2, -2, -2, -2), (6, -3, -3, -3, -3)])
def test_classes_outside_the_box_are_refused(c):
    # each would otherwise read another class's key, or wrap through a
    # negative one, or index past the table
    rows = np.array([(1, -1, -1, -1, -1), c])
    with pytest.raises(ValueError, match=re.escape(f"class {DivClass(*c).format()} is outside the box")):
        sheaves.class_numbers(rows)
    with pytest.raises(ValueError, match="outside the box"):
        sheaves.class_numbers(np.array(c))


@pytest.mark.parametrize("p", [5, 7])
def test_chi_from_the_class_table_on_every_normal_form(p):
    # chi(O_X) = n^2 + sum of L.(L + K_Y)/2 is (7 p^2 - 30 p + 35)/12, and
    # p_g takes two values, on every normal form
    forms, chi, pg = covers.normal_forms(p), set(), set()
    for start in range(0, len(forms), 2000):
        classes = _integral_classes(forms[start:start + 2000], p)
        numbers = sheaves.class_numbers(classes).sum(axis=1)
        pg.update(numbers[:, 0].tolist())
        chi.update((p * p + numbers[:, 1]).tolist())
    assert 12 * chi.pop() == 7 * p * p - 30 * p + 35 and not chi
    assert pg == {5: {4, 6}, 7: {13, 16}}[p]


def test_chi_derived_on_all_normal_forms():
    p = 5
    euler = 2 * p * p - 10 * p + 15  # e(X) over the strata of Y
    for row in covers.normal_forms(p):
        inv = sheaves.invariants(SixTuple.from_residues(row))
        assert inv.chi == 5
        assert 12 * inv.chi == inv.k2 + euler  # Noether


def _seeded_forms(p):
    """Every normal form at 5 and 7, 2000 seeded ones from 11 on."""
    forms = covers.normal_forms(p)
    if p >= 11:
        forms = forms[np.random.default_rng(100 * p + 1).choice(len(forms), 2000, replace=False)]
    return forms


def _pg_and_chi(forms, p):
    """p_g and chi(O_X) of every form, read from the class table 2000 forms at a time."""
    numbers = np.concatenate([
        sheaves.class_numbers(sheaves.character_table(forms[i:i + 2000], p).classes).sum(axis=1)
        for i in range(0, len(forms), 2000)
    ])
    return numbers[:, 0], p * p + numbers[:, 1]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_noether_the_volume_bound_and_the_pencils_on_the_forms(p):
    # K^2 = 5 (p - 2)^2 from the adjunction class, e from the configuration,
    # chi and p_g from the class table: 12 chi = K^2 + e (Noether),
    # 9 chi - K^2 = (p - 5)^2 / 4, zero exactly at p = 5 (the paper's
    # equality in Bogomolov-Miyaoka-Yau), and q = (p - 1)/2 x #pencils
    forms, k2, e = _seeded_forms(p), 5 * (p - 2) ** 2, oracles.euler_number(p)
    assert e == 2 * p * p - 10 * p + 15
    assert (k2, e) == {5: (45, 15), 7: (125, 43), 11: (405, 147), 13: (605, 223)}[p]
    assert intersect(sheaves.adjunction_class(p), sheaves.adjunction_class(p)) == k2
    pg, chi = _pg_and_chi(forms, p)
    q, pencils = pg + 1 - chi, oracles.pencil_counts(forms, p)
    assert (12 * chi == k2 + e).all()
    assert (4 * (9 * chi - k2) == (p - 5) ** 2).all()
    assert set(chi.tolist()) == {{5: 5, 7: 14, 11: 46, 13: 69}[p]}
    assert set((9 * chi - k2).tolist()) == {{5: 0, 7: 1, 11: 9, 13: 16}[p]}
    assert (2 * q == (p - 1) * pencils).all()
    if p < 11:
        assert np.bincount(pencils).tolist() == {5: [120, 300], 7: [8840, 2800]}[p]
    # the per-tuple calls read the same values
    for i in np.random.default_rng(p).choice(len(forms), 100, replace=False):
        inv = sheaves.invariants(SixTuple.from_residues(forms[i]), p)
        assert inv == (k2, chi[i], pg[i], q[i])


def test_sym5_permutes_the_pencils():
    # the label permutation s sends the curves of pencil k to those of pencil s(k)
    pencils, labelled = oracles.pencils(), {frozenset(pair): c for c, pair in enumerate(CURVE_PAIRS)}
    assert sorted(c for pencil in pencils for c in pencil) == sorted(list(range(10)) * 2)
    for s in permutations(range(5)):
        for k, pencil in enumerate(pencils):
            image = {labelled[frozenset(s[a] for a in CURVE_PAIRS[c])] for c in pencil}
            assert image == set(pencils[s[k]])


def test_pg_and_q_are_constant_on_the_orbits_at_7():
    # each orbit's classes share p_g and q, and its representative's
    # invariants read them: 75 orbits have (13, 0) and 25 have (16, 3)
    pg, chi = _pg_and_chi(covers.normal_forms(7), 7)
    q, values = pg + 1 - chi, Counter()
    for orb in symmetry.orbit_partition(7).orbits:
        inv = sheaves.invariants(orb.representative, 7)
        assert set(zip(pg[orb.classes].tolist(), q[orb.classes].tolist())) == {(inv.pg, inv.q)}
        values[inv.pg, inv.q] += 1
    assert values == {(13, 0): 75, (16, 3): 25}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as err:
        return str(err)


def _parity_tuples(kind, representatives):
    rng = np.random.default_rng(31)
    if kind == "reference":
        return list(representatives.values())
    if kind == "admissible":
        arr = covers.admissible_array(5)
        rows = arr[rng.choice(len(arr), 200, replace=False)]
    else:
        rows = rng.integers(0, 5, (1000, 12))
        rows = rows[(rows.reshape(-1, 6, 2).sum(axis=1) % 5).any(axis=1)][:200]
    return [SixTuple.from_residues(row) for row in rows]


@pytest.mark.parametrize("kind", ["reference", "admissible", "non_sum_zero"])
def test_table_matches_scalar_oracle(kind, representatives):
    chars = [(a, b) for b in range(5) for a in range(5)]
    outcomes = set()
    for t in _parity_tuples(kind, representatives):
        for chi in chars:
            assert sheaves.coeffs(t, chi) == oracles.coeffs_scalar(t, chi)
        expected = [_outcome(oracles.sheaf_scalar, t, chi) for chi in chars]
        assert [_outcome(sheaves.sheaf, t, chi) for chi in chars] == expected
        errors = [e for e in expected if isinstance(e, str)]
        assert _outcome(sheaves.sheaf_table, t) == (errors[0] if errors else expected)
        outcomes.add((bool(errors), len(errors) < len(chars)))
    # non-sum-zero rows fail for some characters and not for others
    assert outcomes == ({(True, True)} if kind == "non_sum_zero" else {(False, True)})


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
        if covers.check_admissibility(t, 7):
            found = t
            break
    assert found is not None
    # an admissible tuple at another prime has invariants: the class table's
    # equal the oracle's, interpolation ranks over sheaf_scalar's classes,
    # and a warm memo serves them with no new entry
    inv = sheaves.invariants(found, 7)
    assert inv == oracles.invariants_scalar(found, 7)
    assert (inv.k2, inv.chi) == (125, 14)
    before = sheaves._evaluation.cache_info()
    assert sheaves.invariants(found, 7) == inv
    after = sheaves._evaluation.cache_info()
    assert (after.misses, after.currsize, after.hits) == (before.misses, before.currsize, before.hits + 1)


def test_per_tuple_calls_refuse_the_memo_bound_before_building():
    # a full memo and one build take 1344 bytes a character: 443 fits the
    # limit, 449, the next prime, does not, and no character is evaluated
    # before the refusal, admissible tuple or not
    assert 443 ** 2 * sheaves._CHARACTER_BYTES <= covers.MAX_ARRAY_BYTES < 449 ** 2 * sheaves._CHARACTER_BYTES
    calls = (sheaves.invariants, sheaves.sheaf_table, lambda t, n: sheaves.coeffs(t, (1, 0), n))
    for text in ("1,0,0,1,97,107,97,366,197,63,57,361", "1,0,0,1,0,0,0,0,0,0,0,0"):
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="^modulus 449: 201601 characters per tuple over 256 MiB$"):
                    call(SixTuple.parse(text, 449), 449)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


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
    assert oracles.char_order((0, 0)) == 1
    assert oracles.char_order((2, 1)) == 5
    assert oracles.char_order((0, 3)) == 5
    assert oracles.char_order((2, 2), 4) == 2


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


def test_carries_need_a_prime_modulus(u3):
    with pytest.raises(ValueError, match="not prime"):
        sheaves.cover_equations(u3, 4)
    with pytest.raises(ValueError, match="not prime"):
        sheaves.epsilon(u3, (1, 0), (1, 0), 4)


@pytest.mark.parametrize("p, count", [(5, None), (7, 200)])
def test_cover_equations_match_order_oracle(p, count):
    # every pair of every form at p = 5, of seeded forms at p = 7; the
    # oracle carries over character orders from the scalar residues
    forms = covers.normal_forms(p)
    if count is not None:
        forms = forms[np.random.default_rng(41).choice(len(forms), count, replace=False)]
    chars = [(a, b) for a in range(p) for b in range(p)][1:]
    pairs = [(chi, chi2) for i, chi in enumerate(chars) for chi2 in chars[i:]]
    for row in forms:
        t = SixTuple.from_residues(row)
        rels = sheaves.cover_equations(t, p)
        assert [(r.chi, r.chi2) for r in rels] == pairs
        rows = {chi: oracles.coeffs_scalar(t, chi, p) for chi in chars}
        for r in rels:
            assert r.sigma_exponents == oracles.epsilon_by_order(
                r.chi, rows[r.chi], r.chi2, rows[r.chi2], p
            )
            assert r.rhs == oracles.vadd(r.chi, r.chi2, n=p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_carry_identity_on_gl2_images(p, data):
    # L_chi + L_chi2 - L_(chi + chi2) = sum of eps_i C_i on g.f
    forms, mats = covers.normal_forms(p), gf.gl2_array(p)
    f = forms[data.draw(st.integers(0, len(forms) - 1))]
    g = mats[data.draw(st.integers(0, len(mats) - 1))]
    t = SixTuple.from_residues((f.reshape(6, 2) @ g.T % p).ravel())
    assert covers.check_admissibility(t, p)
    character = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    chi, chi2 = data.draw(character), data.draw(character)
    total = ZERO
    for e, curve in zip(sheaves.epsilon(t, chi, chi2, p), configuration().curves):
        total = total + e * curve.cls
    l1, l2 = sheaves.sheaf(t, chi, p).cls, sheaves.sheaf(t, chi2, p).cls
    assert l1 + l2 - sheaves.sheaf(t, oracles.vadd(chi, chi2, n=p), p).cls == total


def test_cover_equations_match_epsilon(u3):
    # cover_equations shares its residue rows across pairs; epsilon recomputes them
    arr = covers.admissible_array(5)
    rng = np.random.default_rng(20)
    tuples = [u3] + [SixTuple.from_residues(row) for row in arr[rng.choice(len(arr), 20)]]
    for t in tuples:
        for r in sheaves.cover_equations(t):
            assert r.sigma_exponents == sheaves.epsilon(t, r.chi, r.chi2)


def test_character_pairs_are_built_once_per_modulus(u3):
    f7 = SixTuple.from_residues(covers.normal_forms(7)[0])
    sheaves._character_pairs.cache_clear()
    sheaves.cover_equations(u3, 5)
    sheaves.cover_equations(u3, 5)
    sheaves.cover_equations(f7, 7)
    assert sheaves._character_pairs.cache_info().misses == 2


@pytest.mark.parametrize("p", [5, 7])
def test_record_types(p):
    # records are built at C level from per-modulus constants: their types
    # and their Python ints must be the ones the NamedTuple constructors give
    forms = covers.normal_forms(p)
    for row in forms[np.random.default_rng(p).choice(len(forms), 10, replace=False)]:
        t = SixTuple.from_residues(row)
        for r in sheaves.cover_equations(t, p):
            assert type(r) is sheaves.CoverRelation
            assert type(r.sigma_exponents) is tuple and len(r.sigma_exponents) == 10
            assert all(type(x) is int for x in r.sigma_exponents + r.chi + r.chi2 + r.rhs)
        table = sheaves.sheaf_table(t, p)
        assert len(table) == p * p
        for cs in table:
            assert type(cs) is sheaves.CharacterSheaf and type(cs.cls) is DivClass
            assert all(type(x) is int for x in cs.chi + cs.cls)


def test_carry_tuples_read_the_code_bits():
    assert len(sheaves._CARRIES) == 1024
    for code, carries in enumerate(sheaves._CARRIES):
        assert carries == tuple(int(bit) for bit in reversed(f"{code:010b}"))
    assert np.array_equal(np.array(sheaves._CARRIES) @ sheaves._BITS, np.arange(1024))


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


@seed(7)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sheaf_integrality_at_7(data):
    # on g.f every class is integral and chi(O_X) = sum of 1 + L.(L + K_Y)/2
    # is (7 p^2 - 30 p + 35)/12 = 14
    p, ky = 7, canonical_class()
    forms, mats = covers.normal_forms(p), gf.gl2_array(p)
    f = forms[data.draw(st.integers(0, len(forms) - 1))]
    g = mats[data.draw(st.integers(0, len(mats) - 1))]
    table = sheaves.character_table((f.reshape(6, 2) @ g.T % p).reshape(1, 12), p)
    assert (table.classes * p == table.residues @ sheaves.CURVE_CLASSES).all()
    classes = map(DivClass._make, table.classes[0].tolist())
    chi = sum(1 + Fraction(intersect(c, c + ky), 2) for c in classes)
    assert chi == Fraction(7 * p * p - 30 * p + 35, 12) == 14


@pytest.mark.parametrize("p", [5, 7, 11])
def test_a_class_is_integral_exactly_when_chi_kills_the_sum_of_the_slots(p):
    # the E-coordinates of the weighted branch sum are the loop relations,
    # zero mod p, and its H-coordinate is chi(sum of slots); so a row has a
    # class that is not integral exactly when it fails condition 0
    rng = np.random.default_rng(2100 + p)
    rows = rng.integers(0, p, size=(40, 12))
    rows[:20, 10:] = -rows[:20, :10].reshape(-1, 5, 2).sum(axis=1) % p
    table = sheaves.character_table(rows, p)
    integral = (table.classes * p == table.residues @ sheaves.CURVE_CLASSES).all(axis=2)
    chars = [(a, b) for b in range(p) for a in range(p)]
    for row, row_integral in zip(rows, integral):
        t, total = SixTuple.from_residues(row), row.reshape(6, 2).sum(axis=0)
        for chi, chi_integral in zip(chars, row_integral.tolist()):
            kills = (chi[0] * total[0] + chi[1] * total[1]) % p == 0
            expected = _outcome(oracles.sheaf_scalar, t, chi, p)
            assert isinstance(expected, str) == (not kills) == (not chi_integral)
            assert _outcome(sheaves.sheaf, t, chi, p) == expected
        assert (covers.check_admissibility(t, p).condition == 0) == (not row_integral.all())
    assert 0 < integral.all(axis=1).sum() < len(rows)


def test_pg_values_match_scalar(representatives):
    rows = np.array([t.residues for t in representatives.values()], dtype=np.int16)
    pg = sheaves.pg_values(rows)
    expected = [sheaves.invariants(t).pg for t in representatives.values()]
    assert list(pg) == expected


def test_invariants_constant_on_orbits():
    part = oracles.expanded_partition(5)
    pg = oracles.admissible_pg(5)
    for orb in part.orbits:
        values = set(pg[orb.member_indices].tolist())
        assert len(values) == 1
    # the regular class is the one of size 57600 containing U3
    u3 = SixTuple.parse("1,0,1,0,0,1,4,1,3,2,1,1")
    oid = part.orbit_of(u3)
    assert pg[part.orbits[oid].member_indices[0]] == 4


def test_pg_values_match_rowwise_oracle():
    # the form-indexed p_g against all 25 classes of every row: p_g is
    # constant on GL(2)-classes
    assert np.array_equal(sheaves.pg_values(covers.admissible_array(5)), oracles.admissible_pg(5))


def test_pg_values_of_no_rows():
    pg = sheaves.pg_values(np.zeros((0, 12), dtype=np.int64))
    assert pg.shape == (0,) and pg.dtype == np.int64


def test_pg_values_rejects_non_admissible_rows():
    with pytest.raises(ValueError, match="normal form"):
        sheaves.pg_values(np.zeros((1, 12), dtype=np.int64))


def _gl2_images(p, size, seed):
    """size rows g.f for seeded normal forms f and GL(2) matrices g, and
    the positions of their forms."""
    forms, mats = covers.normal_forms(p), gf.gl2_array(p)
    rng = np.random.default_rng(seed)
    which = rng.integers(len(forms), size=size)
    g = mats[rng.integers(len(mats), size=size)]
    return np.einsum("kij,ksj->ksi", g, forms[which].reshape(-1, 6, 2)).reshape(-1, 12) % p, which


def _pg_by_table(rows, p):
    """p_g of every row from its own character table, 2000 rows at a time."""
    return np.concatenate([
        sheaves.class_numbers(_integral_classes(rows[i:i + 2000], p))[..., 0]
        .sum(axis=1)
        for i in range(0, len(rows), 2000)
    ])


def test_pg_values_of_shuffled_rows_and_gl2_images():
    # against an oracle: the row-wise p_g of every row at p = 5, each
    # row's own character table on 2000 rows at p = 7; both runs gather
    # across chunks of 2^14 rows in an order unlike the forms'
    order = np.random.default_rng(31).permutation(len(covers.admissible_array(5)))
    pg = sheaves.pg_values(covers.admissible_array(5)[order], 5)
    assert np.array_equal(pg, oracles.admissible_pg(5)[order])
    rows, _ = _gl2_images(7, 20000, 32)
    pg = sheaves.pg_values(rows, 7)
    assert np.array_equal(pg[:2000], _pg_by_table(rows[:2000], 7))
    # the rows of one class share its p_g: 13 or 16 at p = 7
    assert set(pg.tolist()) == {13, 16}


def test_pg_values_builds_the_tables_of_the_forms_read(monkeypatch):
    built = []
    table = sheaves.character_table

    def counted(rows, n):
        built.append(rows)
        return table(rows, n)
    monkeypatch.setattr(sheaves, "character_table", counted)
    rows, which = _gl2_images(7, 20000, 33)
    sheaves.pg_values(rows, 7)
    forms = np.vstack(built)
    assert len(forms) == len(np.unique(which)) < len(covers.normal_forms(7))
    assert np.array_equal(covers.normal_form_index(forms, 7), np.unique(which))


def test_pg_values_rejects_a_non_admissible_row_in_a_later_chunk():
    rows = covers.admissible_array(5)[:20000]
    bad = np.vstack([rows, [[1, 0, 1, 0, 0, 1, 4, 1, 3, 2, 1, 0]]])
    with pytest.raises(ValueError, match="normal form"):
        sheaves.pg_values(bad, 5)


def test_pg_values_returns_int64_per_row():
    rows = covers.admissible_array(5)[:(1 << 14) + 100]
    pg = sheaves.pg_values(rows, 5)
    assert pg.dtype == np.int64 and pg.shape == (len(rows),)
    assert np.array_equal(pg, oracles.admissible_pg(5)[:len(rows)])


@pytest.mark.parametrize("p, size", [(2, 50), (5, 300), (13, 300), (211, 1)])
def test_character_table_products_are_exact(p, size):
    # the float64 products against int64 ones on seeded rows, admissible or
    # not, so classes that are not integral are floored as before
    rows = np.random.default_rng(p).integers(0, p, (size, 12))
    table = sheaves.character_table(rows, p)
    chars = np.stack(np.divmod(np.arange(p * p), p)[::-1], axis=1)
    residues = np.einsum("cj,kij->kci", chars, covers.loop_image_rows(rows, p)) % p
    assert table.residues.dtype == table.classes.dtype == np.int64
    assert np.array_equal(table.residues, residues)
    assert np.array_equal(table.classes, residues @ sheaves.CURVE_CLASSES // p)


def test_a_cold_pass_at_5_peaks_within_3_1_mib():
    # the covers tables built, the class box and characters not, as after
    # admissible_array in a fresh process; int64 products peaked at 3.19 MiB
    order = np.random.default_rng(37).permutation(len(covers.admissible_array(5)))
    rows = np.ascontiguousarray(covers.admissible_array(5)[order])
    covers.normal_form_index(rows[:1], 5)
    sheaves._class_table.cache_clear(), sheaves._characters.cache_clear()
    tracemalloc.start()
    try:
        pg = sheaves.pg_values(rows, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.1 * 2 ** 20
    assert np.array_equal(pg, oracles.admissible_pg(5)[order])
