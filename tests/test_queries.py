"""The benchmark's per-query gate on the package's per-tuple calls.

`perfbench/gates.py` is loaded from its file, read-only, so the suite
checks the same invariants, sheaf table, cover equations and canonical
certificate that the `queries` workload checks."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from quadcover import canonical, covers, sheaves
from quadcover.covers import SixTuple

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


def test_regular_query_checks_and_tabulates_once_per_call(u3, monkeypatch):
    # invariants, cover_equations and degree_certificate check admissibility;
    # each of the four calls evaluates the characters once, from characters
    # built once per modulus, and all but cover_equations build one
    # character table on them
    counts = Counter()

    def count(module, name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    table = sheaves.character_table
    count(covers, "check_admissibility", covers.check_admissibility)
    count(sheaves, "_residues", sheaves._residues)
    for module in (sheaves, canonical):
        count(module, "character_table", table)
    sheaves._characters.cache_clear()
    assert query(u3)["degree_product"] == 19
    assert counts == {"check_admissibility": 3, "_residues": 4, "character_table": 3}
    assert sheaves._characters.cache_info().misses == 1
