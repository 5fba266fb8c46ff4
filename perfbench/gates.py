"""Correctness gates of the benchmark, independent of quadcover's own
`--verify` table.

Each check returns a list of problems (empty when the output is right).
`verdict` folds per-operation outcomes into the counts every result
carries, so a failed check always shows up as a nonzero failed_ratio.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

# `quadcover report --verify` at modulus 5 on the seed commit; the stored
# file and its digest must agree, so neither can drift alone.
GOLDEN_REPORT = Path(__file__).with_name("golden_report.json")
GOLDEN_REPORT_SHA256 = "b3af1bf762501febd7aa412b3ba32325bf0610cd71cc684b0b849778b6f2d7e5"

PG_HISTOGRAM = {4: 57600, 6: 144000}

QUERY_COMMON = {"k2": 45, "chi": 5, "sheaves": 25, "relations": 300}
QUERY_REGULAR = {
    "degree_product": 19,
    "birational": True,
    "base_points": 5,
    "moving_selfint": 38,
    "fixed_curves": 1,
}


def golden_report() -> bytes:
    data = GOLDEN_REPORT.read_bytes()
    if hashlib.sha256(data).hexdigest() != GOLDEN_REPORT_SHA256:
        raise RuntimeError(f"{GOLDEN_REPORT.name} does not match its pinned sha256")
    return data


def check_report(stdout: bytes, returncode: int, golden: bytes) -> list[str]:
    """A cold `report --verify` must exit 0 and print the golden bytes."""
    problems = []
    if returncode != 0:
        problems.append(f"report exited with code {returncode}")
    if stdout != golden:
        at = next(
            (i for i, (a, b) in enumerate(zip(stdout, golden)) if a != b),
            min(len(stdout), len(golden)),
        )
        problems.append(
            f"report output differs from the golden report at byte {at} "
            f"({len(stdout)} vs {len(golden)} bytes)"
        )
    return problems


def check_pg_histogram(pg_values) -> list[str]:
    """The all-tuples p_g sweep must give exactly PG_HISTOGRAM."""
    hist = dict(Counter(int(v) for v in pg_values))
    if hist != PG_HISTOGRAM:
        return [f"p_g histogram {dict(sorted(hist.items()))} != {PG_HISTOGRAM}"]
    return []


def check_query(result: dict) -> list[str]:
    """One per-tuple query: `result` holds k2, chi, pg, q, sheaves and
    relations, plus the QUERY_REGULAR keys when pg = 4."""
    problems = [
        f"{key} = {result.get(key)!r}, expected {want!r}"
        for key, want in QUERY_COMMON.items()
        if result.get(key) != want
    ]
    pg = result.get("pg")
    if pg not in (4, 6):
        problems.append(f"pg = {pg!r}, expected 4 or 6")
    elif result.get("q") != pg + 1 - QUERY_COMMON["chi"]:
        problems.append(f"q = {result.get('q')!r} does not match pg = {pg}")
    if pg == 4:
        problems += [
            f"{key} = {result.get(key)!r}, expected {want!r}"
            for key, want in QUERY_REGULAR.items()
            if result.get(key) != want
        ]
    return problems


def verdict(outcomes: list[list[str]]) -> dict:
    """Counts over per-operation problem lists: one entry per attempt."""
    attempted = len(outcomes)
    failed = sum(1 for problems in outcomes if problems)
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "problems": [p for problems in outcomes for p in problems][:20],
    }
