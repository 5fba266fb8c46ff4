"""The benchmark's per-query gate on the package's per-tuple calls.

`perfbench/gates.py` is loaded from its file, read-only, so the suite
checks the same invariants, sheaf table, cover equations and canonical
certificate that the `queries` workload checks."""

import functools
import gc
import importlib.util
import re
from collections import Counter
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from quadcover import canonical, cli, covers, gf, picard, sheaves, symmetry
from quadcover.covers import SixTuple

import oracles

_spec = importlib.util.spec_from_file_location(
    "perfbench_gates", Path(__file__).resolve().parents[1] / "perfbench" / "gates.py"
)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)


def query(t: SixTuple) -> dict:
    """One tuple's per-tuple calls, as a `queries` operation makes them;
    the canonical certificate only for the regular (p_g = 4) covers."""
    inv = sheaves.invariants(t)
    out = {"k2": inv.k2, "chi": inv.chi, "pg": inv.pg, "q": inv.q,
           "sheaves": len(sheaves.sheaf_table(t)),
           "relations": len(sheaves.cover_equations(t))}
    if inv.pg == 4:
        rep = canonical.degree_certificate(t)
        out.update(
            degree_product=rep.degree_product,
            birational=rep.birational,
            base_points=len(rep.base_points),
            moving_selfint=rep.moving_selfint,
            fixed_curves=sum(1 for f in rep.fixed_part if f),
        )
    return out


def test_queries_pass_the_benchmark_gate(representatives):
    arr = covers.admissible_array(5)
    rows = arr[np.random.default_rng(17).choice(len(arr), 200, replace=False)]
    tuples = list(representatives.values()) + [SixTuple.from_residues(row) for row in rows]
    results = {t.format(): query(t) for t in tuples}
    problems = {key: gates.check_query(result) for key, result in results.items()}
    assert {key: p for key, p in problems.items() if p} == {}
    assert {result["pg"] for result in results.values()} == {4, 6}


MEMO = sheaves._evaluation


def _count_evaluations(t, monkeypatch) -> Counter:
    """The admissibility evaluations, character evaluations, one-row tables
    and section-count gathers of one query on t, from a cleared memo."""
    counts = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(covers, "_failures")
    for name in ("_residues", "character_table", "class_numbers"):
        count(sheaves, name)
    MEMO.cache_clear()
    sheaves._characters.cache_clear()
    query(t)
    assert sheaves._characters.cache_info().misses == 1
    return counts


ONCE = {"_failures": 1, "_residues": 1, "character_table": 1, "class_numbers": 1}


def test_regular_query_checks_and_tabulates_once_per_call(u3, monkeypatch):
    # invariants, cover_equations and degree_certificate check admissibility
    # and all four calls read the characters, but the checks share one
    # evaluation of the conditions and the calls one character table
    assert query(u3)["degree_product"] == 19
    assert _count_evaluations(u3, monkeypatch) == ONCE


def test_irregular_query_checks_and_tabulates_once_per_call(u1, monkeypatch):
    # no certificate: invariants, sheaf_table and cover_equations share them
    assert query(u1)["pg"] == 6
    assert _count_evaluations(u1, monkeypatch) == ONCE


def test_a_cold_query_converts_the_residues_once(u3, monkeypatch, capsys):
    # the memo reads the tuple's residues into an array once; every reader
    # after it (the conditions, the loop images) is handed that array, and
    # the sheaf-table command takes its admissibility check from the memo
    converted = []

    def count(module):
        reduce_rows = module.reduce_rows

        def counted(rows, *n):
            if not isinstance(rows, np.ndarray):
                converted.append(type(rows).__name__)
            return reduce_rows(rows, *n)
        monkeypatch.setattr(module, "reduce_rows", counted)

    for module in (canonical, covers, gf, picard, sheaves, symmetry):
        if hasattr(module, "reduce_rows"):
            count(module)
    MEMO.cache_clear()
    assert query(u3)["degree_product"] == 19
    assert converted == ["tuple"]
    MEMO.cache_clear()
    assert cli.main(["sheaf-table", u3.format()]) == 0
    assert converted == ["tuple"] * 2


CHARACTERS = [(0, 0), (1, 0), (0, 1), (4, 3), (2, 2), (3, 4)]


def _readers(t: SixTuple) -> list:
    """Every per-tuple call that reads the memo, each as a thunk."""
    calls = [lambda: sheaves.invariants(t), lambda: sheaves.sheaf_table(t),
             lambda: sheaves.cover_equations(t),
             lambda: [sheaves.coeffs(t, chi) for chi in CHARACTERS],
             lambda: [sheaves.sheaf(t, chi) for chi in CHARACTERS],
             lambda: [sheaves.epsilon(t, chi, chi2) for chi in CHARACTERS for chi2 in CHARACTERS]]
    if sheaves.invariants(t).pg == 4:
        calls.append(lambda: canonical.degree_certificate(t).as_dict())
    return calls


def _warm_and_cold(tuples, readers, chunk=6):
    """Each reader on each tuple, warm: the calls go round the tuples of a
    chunk, reader by reader, so that every call after the first on a tuple
    is served by the memo; and cold: each call on a cleared memo.  Also
    the memo's hits in the warm pass."""
    warm, cold = {}, {}
    MEMO.cache_clear()
    for start in range(0, len(tuples), chunk):
        calls = {t: readers(t) for t in tuples[start:start + chunk]}
        for k in range(max(map(len, calls.values()))):
            for t, thunks in calls.items():
                if k < len(thunks):
                    warm[t, k] = thunks[k]()
    hits = MEMO.cache_info().hits
    for t in tuples:
        for k, thunk in enumerate(readers(t)):
            MEMO.cache_clear()
            cold[t, k] = thunk()
    return warm, cold, hits


def test_warm_results_equal_cold(representatives):
    arr = covers.admissible_array(5)
    rows = arr[np.random.default_rng(1811).choice(len(arr), 200, replace=False)]
    sample = [SixTuple.from_residues(row) for row in rows]
    reps = list(representatives.values())
    tuples = [t for pair in zip(reps, sample) for t in pair] + sample[len(reps):]
    warm, cold, hits = _warm_and_cold(tuples, _readers)
    assert len(warm) == len(cold) > 6 * len(tuples)
    assert warm == cold
    assert hits > len(tuples)
    # the memo hands out read-only arrays
    check, table, numbers = MEMO(tuples[-1].residues, 5)
    assert check
    for array in (*table, numbers):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_warm_results_equal_cold_at_7():
    forms = covers.normal_forms(7)
    rows = forms[np.random.default_rng(1812).choice(len(forms), 40, replace=False)]
    tuples = [SixTuple.from_residues(row) for row in rows]

    def readers(t):
        return [lambda: sheaves.cover_equations(t, 7), lambda: sheaves.sheaf_table(t, 7)]

    warm, cold, hits = _warm_and_cold(tuples, readers)
    assert len(warm) == 2 * len(tuples) and warm == cold
    assert hits == len(tuples)


def _outcome(call):
    try:
        return call()
    except (ValueError, ArithmeticError, AssertionError) as err:
        return type(err), str(err)


NOT_ADMISSIBLE = ["1,0,1,0,1,0,1,0,1,0,1,0", "1,0,1,0,0,1,4,1,3,2,1,2",  # sum
                  "1,0,1,0,3,0,1,0,2,0,2,0", "0,0,0,0,0,0,0,0,0,0,0,0",  # zero image
                  "1,0,1,0,0,1,2,0,2,4,4,0"]  # dependent pair


def test_error_paths_on_a_warm_memo(u3):
    f7 = SixTuple.from_residues(covers.normal_forms(7)[-1])
    two_dim = SixTuple.parse("1,0,0,1,0,1,0,1,1,0,5,4", 7)
    bad = [SixTuple.parse(text) for text in NOT_ADMISSIBLE]

    def warm_up():
        # eight tuples, as many as the memo holds
        query(u3)
        for t in bad:
            _outcome(lambda: sheaves.sheaf_table(t))
        sheaves.sheaf_table(f7, 7)
        sheaves.sheaf_table(two_dim, 7)
        assert MEMO.cache_info().currsize == 8

    def fails(call, error, match):
        # the same refusal warm and cold: warm, the memo serves it with no
        # new entry; cold, the call adds at most one
        before = MEMO.cache_info()
        with pytest.raises(error, match=match):
            call()
        after = MEMO.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)
        MEMO.cache_clear()
        with pytest.raises(error, match=match):
            call()
        assert MEMO.cache_info().currsize <= 1
        warm_up()

    warm_up()
    for t in bad:
        reason = oracles.check_admissibility(t, 5).reason
        message = re.escape(f"tuple {t.format()} is not admissible: {reason}")
        assert covers.check_admissibility(t).reason == reason
        for call in (sheaves.invariants, sheaves.cover_equations, canonical.degree_certificate):
            fails(lambda: call(t), ValueError, f"^{message}$")
        # sheaf_table checks no admissibility: integral classes give a table
        warm = _outcome(lambda: sheaves.sheaf_table(t))
        MEMO.cache_clear()
        assert _outcome(lambda: sheaves.sheaf_table(t)) == warm
        if sum(t.residues[0::2]) % 5 or sum(t.residues[1::2]) % 5:
            assert warm[0] is ArithmeticError and "is not divisible by 5" in warm[1]
        else:
            assert len(warm) == 25
        warm_up()
    # f7 is admissible at 7: a warm memo serves its invariants with no new
    # entry, and cold they equal the oracle's, one character at a time
    before = MEMO.cache_info()
    warm = sheaves.invariants(f7, 7)
    after = MEMO.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    MEMO.cache_clear()
    assert sheaves.invariants(f7, 7) == warm == oracles.invariants_scalar(f7, 7)
    assert MEMO.cache_info().currsize == 1
    warm_up()
    fails(lambda: canonical.degree_certificate(f7, 7), ValueError, "only defined for modulus 5")
    fails(lambda: canonical.basis(two_dim, 7), AssertionError, r"L\(6,6\)\) = 2: .* not a basis")


def test_memos_are_bounded_and_not_shared_across_a_pool():
    bound = sheaves.TUPLE_MEMO
    assert MEMO.cache_info().maxsize == bound
    arr = covers.admissible_array(5)
    rows = arr[np.random.default_rng(1813).choice(len(arr), 3 * bound, replace=False)]
    pool = [SixTuple.from_residues(row) for row in rows]
    # one call per tuple: a second pass over the pool finds nothing
    for t in pool:
        sheaves.invariants(t)
    assert MEMO.cache_info().currsize <= bound
    for t in pool:
        sheaves.invariants(t)
    assert MEMO.cache_info().hits == 0
    # whole queries: each pass evaluates every tuple once, and nothing
    # evaluated in the first pass serves the second
    MEMO.cache_clear()
    for passes in (1, 2):
        for t in pool:
            query(t)
        assert MEMO.cache_info().misses == passes * len(pool)
        assert MEMO.cache_info().currsize <= bound


def test_per_tuple_reads_reduce_residues_far_out_of_range(u3, u3_shifted):
    # the residues are reduced before any product, so nothing wraps in int64
    chars = [(a, b) for b in range(5) for a in range(5)]
    assert [sheaves.coeffs(u3_shifted, chi) for chi in chars] == [sheaves.coeffs(u3, chi) for chi in chars]
    pairs = [(chi, chi2) for chi in chars for chi2 in chars]
    assert [sheaves.epsilon(u3_shifted, *p) for p in pairs] == [sheaves.epsilon(u3, *p) for p in pairs]
    for call in (sheaves.sheaf_table, sheaves.invariants, sheaves.cover_equations):
        assert call(u3_shifted) == call(u3), call.__name__
    # the certificate names its tuple; everything else agrees
    assert canonical.degree_certificate(u3_shifted)._replace(tuple=u3) == canonical.degree_certificate(u3)


def _arrays(obj, seen):
    """Every ndarray reachable from obj through containers, instance
    attributes and array bases; functions, types and modules are not
    entered."""
    if id(obj) in seen or callable(obj) or isinstance(obj, ModuleType):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        yield from _arrays(obj.base, seen)
    else:
        for ref in gc.get_referents(obj):
            yield from _arrays(ref, seen)


def test_every_cached_array_is_read_only(u3):
    # a caller that writes into a process table would corrupt every later
    # result; the cached results are read through the caches' references
    tables = [f for module in (canonical, covers, gf, picard, sheaves, symmetry)
              for f in vars(module).values()
              if isinstance(f, functools._lru_cache_wrapper) and f.__module__ == module.__name__]
    covers.admissible_array(5)
    part = symmetry.orbit_partition(5)
    sheaves.ram_curve_numbers(u3, 5)
    sheaves.h0(picard.canonical_class())
    assert query(u3)["degree_product"] == 19
    assert [f.__name__ for f in tables if not f.cache_info().currsize] == []
    found = [a for f in tables for a in _arrays(gc.get_referents(f), set())]
    assert any(a is covers.normal_forms(5) for a in found)
    assert all(any(a is orbit.classes for a in found) for orbit in part.orbits)
    assert [a.shape for a in found if a.flags.writeable] == []
