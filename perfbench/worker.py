"""The in-process half of the benchmark: one fresh interpreter per run.

    python3 perfbench/worker.py --workload sweep|queries|report --seed N
                                --seconds S --trace 0|1 --root CHECKOUT

`run.py` starts this with a pinned environment and reads the JSON object
on its last stdout line.  Untraced, `sweep` and `queries` run here
(`report` is a plain cold `quadcover report --verify` process instead).
Traced, every workload runs here as three cold passes over the same
work: with tracemalloc inside the spans whose peak is reported, then
untraced, then with timing spans.  Peaks get their own pass because
tracemalloc slows every allocation, which would distort the busy times.
It goes first, so that the process's own first-pass costs (heap growth,
first calls) fall outside the other two, which differ only by the spans:
their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import gates
from spans import Recorder

N = 5
SETUP_REPEATS = {"sweep": 2, "queries": 5}
QUERY_CANDIDATES = 200_000  # random sum-zero rows; ~2 % are admissible
QUERY_WARMUP = 100  # invariants calls that fill the h0 cache
MIN_QUERIES = 1000  # so that p99 has ten samples beyond it
# spans whose tracemalloc peak is reported
PEAK_SPANS = ("covers.admissible_array", "symmetry.group_closure", "sheaves.pg_values")

REFERENCE_TUPLES = {
    "U1": (1, 0, 1, 0, 0, 1, 2, 1, 2, 1, 4, 2),
    "U2": (1, 0, 1, 0, 0, 1, 2, 1, 4, 2, 2, 1),
    "U3": (1, 0, 1, 0, 0, 1, 4, 1, 3, 2, 1, 1),
    "U4": (1, 0, 1, 0, 0, 1, 1, 1, 0, 3, 2, 0),
}


def _cache_clear(fn) -> None:
    """Empty an lru cache, also through a span wrapper around it."""
    while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    if hasattr(fn, "cache_clear"):
        fn.cache_clear()


def _h0_counts(sheaves) -> tuple[int, int]:
    info = getattr(sheaves.h0, "cache_info", None)
    if info is None:
        return 0, 0
    info = info()
    return info.hits, info.misses


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    """Shared plumbing: the quadcover modules and the run's seed."""

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        from quadcover import canonical, cli, covers, exact, picard, sheaves, symmetry
        self.canonical, self.cli, self.covers = canonical, cli, covers
        self.exact, self.picard, self.sheaves, self.symmetry = exact, picard, sheaves, symmetry
        from quadcover.covers import SixTuple
        self.SixTuple = SixTuple

    def cold(self) -> None:
        """Empty the caches of every stage a pass times."""
        for fn in (self.covers.admissible_array, self.symmetry.group_closure,
                   self.symmetry.orbit_partition, self.sheaves.h0):
            _cache_clear(fn)

    def trace_targets(self):
        s = self
        return [
            (s.covers, "admissible_array", "covers.admissible_array"),
            (s.symmetry, "group_closure", "symmetry.group_closure"),
            (s.symmetry, "orbit_partition", "symmetry.orbit_partition"),
            (getattr(s.symmetry, "OrbitPartition", None), "orbit_of", "symmetry.orbit_of"),
            (s.sheaves, "pg_values", "sheaves.pg_values"),
            (s.sheaves, "invariants", "sheaves.invariants"),
            (s.sheaves, "sheaf_table", "sheaves.sheaf_table"),
            (s.sheaves, "cover_equations", "sheaves.cover_equations"),
            (s.exact, "rational_rank", "exact.rational_rank"),
            (s.picard, "h1_complement", "picard.h1_complement"),
            (s.canonical, "degree_certificate", "canonical.degree_certificate"),
            (s.canonical, "resolve_type", "canonical.resolve_type"),
        ]

    def cold_pass(self, body, rec: Recorder | None = None):
        """body(rec) on cold caches, with rec's spans installed if given.

        Returns (body's result, wall time, h0 hits, h0 misses)."""
        self.cold()
        if rec is not None:
            rec.install(self.trace_targets())
        try:
            t0 = time.perf_counter()
            out = body(rec)
            wall = time.perf_counter() - t0
        finally:
            if rec is not None:
                rec.uninstall()
        return (out, wall, *_h0_counts(self.sheaves))


def traced_run(w: Workload, body) -> dict:
    """Per-layer metrics of body, which returns (outcomes, counts)."""
    mem = Recorder(PEAK_SPANS)
    (outcomes_m, _), _, _, _ = w.cold_pass(body, mem)
    (outcomes_u, _), wall_u, _, _ = w.cold_pass(body)
    rec = Recorder()
    (outcomes_t, counts), wall, hits, misses = w.cold_pass(body, rec)
    return {
        "outcomes": outcomes_m + outcomes_u + outcomes_t,
        "metrics": layer_metrics(rec, mem, counts, wall=wall, overhead_s=wall - wall_u,
                                 hits=hits, misses=misses),
    }


def layer_metrics(rec: Recorder, mem: Recorder, counts: dict, *, wall: float,
                  overhead_s: float, hits: int, misses: int) -> dict:
    """rec holds the timing spans, mem the spans with tracemalloc peaks;
    hits and misses are the h0 cache's over the timed pass."""
    lookups = hits + misses
    values = {
        "covers.admissible_array.busy_s": (rec.busy_s("covers.admissible_array"), "s"),
        "covers.admissible_array.peak_mb": (mem.peak_mb("covers.admissible_array"), "MB"),
        "covers.admissible_array.rows": (counts.get("rows", 0), "count"),
        "symmetry.group_closure.busy_s": (rec.busy_s("symmetry.group_closure"), "s"),
        "symmetry.group_closure.peak_mb": (mem.peak_mb("symmetry.group_closure"), "MB"),
        "symmetry.group_closure.order": (counts.get("order", 0), "count"),
        "symmetry.orbit_partition.busy_s": (rec.busy_s("symmetry.orbit_partition"), "s"),
        "symmetry.orbit_of.calls": (rec.calls("symmetry.orbit_of"), "count"),
        "symmetry.orbit_of.busy_s": (rec.busy_s("symmetry.orbit_of"), "s"),
        "sheaves.pg_values.busy_s": (rec.busy_s("sheaves.pg_values"), "s"),
        "sheaves.pg_values.peak_mb": (mem.peak_mb("sheaves.pg_values"), "MB"),
        "sheaves.invariants.busy_s": (rec.busy_s("sheaves.invariants"), "s"),
        "sheaves.sheaf_table.busy_s": (rec.busy_s("sheaves.sheaf_table"), "s"),
        "sheaves.cover_equations.busy_s": (rec.busy_s("sheaves.cover_equations"), "s"),
        "sheaves.h0.hits": (hits, "count"),
        "sheaves.h0.misses": (misses, "count"),
        "sheaves.h0.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "exact.rational_rank.calls": (rec.calls("exact.rational_rank"), "count"),
        "exact.rational_rank.busy_s": (rec.busy_s("exact.rational_rank"), "s"),
        "picard.h1_complement.busy_s": (rec.busy_s("picard.h1_complement"), "s"),
        "canonical.degree_certificate.calls": (rec.calls("canonical.degree_certificate"), "count"),
        "canonical.degree_certificate.busy_s": (rec.busy_s("canonical.degree_certificate"), "s"),
        "canonical.resolve_type.calls": (rec.calls("canonical.resolve_type"), "count"),
        "cli.report.warm_s": (rec.busy_s("cli.report"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.span_coverage": (rec.top_level_s() / wall, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# --- sweep -----------------------------------------------------------------


def _shuffled(w: Workload, rows):
    order = np.random.default_rng(w.seed).permutation(len(rows))
    return np.ascontiguousarray(rows[order])


def _failure(err: Exception) -> list[str]:
    """An operation that raised counts as failed, and the run goes on."""
    return [f"{type(err).__name__}: {err}"]


def _sweep_pass(w: Workload, rows):
    _cache_clear(w.sheaves.h0)
    t0 = time.perf_counter()
    try:
        pg = w.sheaves.pg_values(rows, N)
    except Exception as err:
        return time.perf_counter() - t0, _failure(err)
    return time.perf_counter() - t0, gates.check_pg_histogram(pg)


def run_sweep(w: Workload) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS["sweep"]):
        _cache_clear(w.covers.admissible_array)
        t0 = time.perf_counter()
        rows = w.covers.admissible_array(N)
        setups.append(time.perf_counter() - t0)
    rows = _shuffled(w, rows)
    times, outcomes = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < w.seconds:
        dt, problems = _sweep_pass(w, rows)
        times.append(dt)
        outcomes.append(problems)
    return {
        "outcomes": outcomes,
        "op_s": times,
        "items": len(rows) * len(times),
        "busy_s": sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }


def trace_sweep(w: Workload) -> dict:
    def body(rec):
        rows = w.covers.admissible_array(N)
        _, problems = _sweep_pass(w, _shuffled(w, rows))
        return [problems], {"rows": len(rows)}

    return traced_run(w, body)


# --- queries ---------------------------------------------------------------


def make_queries(w: Workload) -> list:
    """Admissible tuples from the seed, without the enumerator: random
    rows closed to sum zero, filtered by the admissibility mask."""
    rng = np.random.default_rng(w.seed)
    rows = rng.integers(0, N, size=(QUERY_CANDIDATES, 12))
    rows[:, 10] = -rows[:, 0:10:2].sum(axis=1) % N
    rows[:, 11] = -rows[:, 1:10:2].sum(axis=1) % N
    rows = rows[w.covers.admissibility_mask(rows, N)]
    return [w.SixTuple.from_residues(r) for r in rows]


def query(w: Workload, t) -> dict:
    """One tuple's per-tuple commands; the canonical certificate only
    exists for the regular (p_g = 4) covers."""
    inv = w.sheaves.invariants(t, N)
    table = w.sheaves.sheaf_table(t, N)
    rels = w.sheaves.cover_equations(t, N)
    out = {"k2": inv.k2, "chi": inv.chi, "pg": inv.pg, "q": inv.q,
           "sheaves": len(table), "relations": len(rels)}
    if inv.pg == 4:
        rep = w.canonical.degree_certificate(t, N)
        out.update(
            degree_product=rep.degree_product,
            birational=rep.birational,
            base_points=len(rep.base_points),
            moving_selfint=rep.moving_selfint,
            fixed_curves=sum(1 for f in rep.fixed_part if f),
        )
    return out


def _warm_up(w: Workload, pool) -> float:
    _cache_clear(w.sheaves.h0)
    t0 = time.perf_counter()
    for t in pool[:QUERY_WARMUP]:
        w.sheaves.invariants(t, N)
    return time.perf_counter() - t0


def _query_loop(w: Workload, pool, count: int | None = None):
    """Closed loop, one client: the next query starts when the last one
    returns.  Runs `count` queries, or for the run's seconds and at
    least MIN_QUERIES."""
    latencies, outcomes = [], []
    start = time.perf_counter()
    while True:
        done = len(latencies)
        if count is not None and done >= count:
            break
        if count is None and done >= MIN_QUERIES and time.perf_counter() - start >= w.seconds:
            break
        t = pool[done % len(pool)]
        t0 = time.perf_counter()
        try:
            result = query(w, t)
        except Exception as err:
            result = err
        latencies.append(time.perf_counter() - t0)
        outcomes.append(_failure(result) if isinstance(result, Exception)
                        else gates.check_query(result))
    return latencies, outcomes, time.perf_counter() - start


def run_queries(w: Workload) -> dict:
    pool = make_queries(w)
    warm = [_warm_up(w, pool) for _ in range(SETUP_REPEATS["queries"])]
    latencies, outcomes, elapsed = _query_loop(w, pool)
    return {
        "outcomes": outcomes,
        "op_s": latencies,
        "items": len(latencies),
        "busy_s": elapsed,
        "setup_s": statistics.median(warm),
        "peak_rss_mb": _peak_rss_mb(),
    }


def trace_queries(w: Workload) -> dict:
    pool = make_queries(w)

    def body(rec):
        _warm_up(w, pool)
        return _query_loop(w, pool, count=MIN_QUERIES)[1], {}

    return traced_run(w, body)


# --- report (traced only) --------------------------------------------------


def trace_report(w: Workload) -> dict:
    """The layers in pipeline order, then the command itself on the now
    warm caches, which leaves the cli's own time."""
    golden = gates.golden_report()
    refs = {k: w.SixTuple.from_residues(v) for k, v in REFERENCE_TUPLES.items()}

    def body(rec):
        rows = w.covers.admissible_array(N)
        order = w.symmetry.group_closure(N).order
        w.symmetry.orbit_partition(N)
        w.picard.h1_complement()
        for t in refs.values():
            w.sheaves.invariants(t, N)
        w.sheaves.sheaf_table(refs["U3"], N)
        w.canonical.degree_certificate(refs["U3"], N)
        out = io.StringIO()
        argv = ["report", "--verify"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = rec.span("cli.report", w.cli.main, argv) if rec else w.cli.main(argv)
        problems = gates.check_report(out.getvalue().encode(), code, golden)
        return [problems], {"rows": len(rows), "order": order}

    return traced_run(w, body)


RUNNERS = {
    ("sweep", 0): run_sweep,
    ("sweep", 1): trace_sweep,
    ("queries", 0): run_queries,
    ("queries", 1): trace_queries,
    ("report", 1): trace_report,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "queries", "report"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout whose src/ is measured")
    args = p.parse_args(argv)
    runner = RUNNERS.get((args.workload, args.trace))
    if runner is None:
        p.error(f"workload {args.workload} with --trace {args.trace} does not run in-process")
    w = Workload(args.seed, args.seconds)
    src = (Path(args.root) / "src").resolve()
    loaded = Path(sys.modules["quadcover"].__file__).resolve()
    if src not in loaded.parents:
        print(f"error: quadcover loaded from {loaded}, not from {src}", file=sys.stderr)
        return 2
    print(json.dumps(runner(w)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
