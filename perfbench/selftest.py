"""Self-test of the benchmark's own correctness gates: each must accept
the right output, reject a corrupted one, and a rejection must show up
as a nonzero failed_ratio.  It runs no part of the pipeline.

    python3 perfbench/selftest.py      # exit 0 when every check holds
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import gates
import run
import worker
from spans import Recorder

HERE = Path(__file__).resolve().parent

REGULAR_QUERY = {
    "k2": 45, "chi": 5, "pg": 4, "q": 0, "sheaves": 25, "relations": 300,
    "degree_product": 19, "birational": True, "base_points": 5,
    "moving_selfint": 38, "fixed_curves": 1,
}
IRREGULAR_QUERY = {"k2": 45, "chi": 5, "pg": 6, "q": 2, "sheaves": 25, "relations": 300}


def cases():
    golden = gates.golden_report()
    flipped = bytearray(golden)
    flipped[len(flipped) // 2] ^= 0x01
    pg_right = [4] * 57600 + [6] * 144000
    pg_off_by_one = [4] * 57599 + [6] * 144001

    yield "golden report accepted", gates.check_report(golden, 0, golden) == []
    yield "report with one changed byte rejected", gates.check_report(bytes(flipped), 0, golden) != []
    yield "report exiting 1 rejected", gates.check_report(golden, 1, golden) != []
    yield "truncated report rejected", gates.check_report(golden[:-1], 0, golden) != []
    yield "exact p_g histogram accepted", gates.check_pg_histogram(pg_right) == []
    yield "p_g histogram off by one rejected", gates.check_pg_histogram(pg_off_by_one) != []
    yield "regular query accepted", gates.check_query(REGULAR_QUERY) == []
    yield "irregular query accepted", gates.check_query(IRREGULAR_QUERY) == []
    yield "degree 18 rejected", gates.check_query({**REGULAR_QUERY, "degree_product": 18}) != []
    yield "missing certificate rejected", gates.check_query({**REGULAR_QUERY, "base_points": None}) != []
    yield "pg 5 rejected", gates.check_query({**IRREGULAR_QUERY, "pg": 5, "q": 1}) != []

    bad = gates.verdict([
        gates.check_report(golden, 0, golden),
        gates.check_report(bytes(flipped), 0, golden),
        gates.check_pg_histogram(pg_off_by_one),
    ])
    yield "rejections counted as failed", bad["failed"] == 2 and bad["attempted"] == 3
    yield "failed_ratio nonzero", bad["failed_ratio"] > 0 and not bad["correct"]
    good = gates.verdict([[], []])
    yield "clean outcomes correct", good["correct"] and good["failed_ratio"] == 0

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    fake = {"op_s": [1.0], "items": 1, "busy_s": 1.0, "peak_rss_mb": 1.0, "setup_s": 1.0}
    yield "end-to-end metrics match BENCHMARK.json", (
        list(run.end_to_end(fake)) == [m["name"] for m in spec["end_to_end"]])
    layer = worker.layer_metrics(Recorder(), Recorder(), {}, wall=1.0, overhead_s=0.0,
                                 hits=0, misses=0)
    yield "per-layer metrics match BENCHMARK.json", (
        list(layer) == [m["name"] for m in spec["per_layer"]]
        and all(layer[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"]))
    layer_map = json.loads((HERE / "layers.json").read_text())
    yield "layers.json maps every per-layer metric", list(layer_map["per_layer"]) == list(layer)

    # a directory without quadcover sources: nonzero exit, no result line
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, timeout=60,
    )
    yield "no sources: nonzero exit, nothing printed", proc.returncode != 0 and not proc.stdout


def main() -> int:
    failed = 0
    for name, ok in cases():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    print(f"{failed} of the checks failed" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
