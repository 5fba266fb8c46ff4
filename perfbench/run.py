"""quadcover benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload report|sweep|queries --seed N
                             --seconds S --trace 0|1

Run it from the root of a quadcover checkout; it measures the code under
`src/` there, in child interpreters with a pinned environment (QC_THREADS
cleared, one BLAS/OpenMP thread).  The last stdout line is

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The line before it records the environment, the seed and the
metrics under the workload's own names.  The exit code is 0 only when
every correctness gate passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
WORKLOADS = ("report", "sweep", "queries")
DEADLINE_S = 170  # every run ends well inside three minutes
IMPORT_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# what one operation and one item are, per workload
UNITS = {
    "report": ("one cold `quadcover report --verify` process", "reports"),
    "sweep": ("one pg_values pass over all admissible tuples", "tuple rows"),
    "queries": ("one tuple's per-tuple commands", "queries"),
}


class RunFailed(Exception):
    """A child did not finish or printed no result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("QC_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "QC_THREADS": None,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed(f"run exceeded {DEADLINE_S} s")
    return left


def _child(cmd, env, root, deadline):
    """Run a child to completion; returns (completed process, wall s)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as err:
        raise RunFailed(f"{cmd[1:3]} timed out") from err
    return proc, time.perf_counter() - t0


def import_s(root, env, deadline) -> float:
    """Interpreter start plus import, median of fresh interpreters."""
    return statistics.median(
        _child([sys.executable, "-c", "import quadcover.cli"], env, root, deadline)[1]
        for _ in range(IMPORT_REPEATS))


def _worker(args, root, env, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root)]
    proc, _ = _child(cmd, env, root, deadline)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return json.loads(lines[-1])


def run_report(args, root, env, deadline) -> dict:
    """Cold reports for the run's seconds (at least one), each in a
    fresh interpreter; nothing is set up beyond the import."""
    golden = gates.golden_report()
    times, outcomes = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        proc, wall = _child([sys.executable, "-m", "quadcover.cli", "report", "--verify"],
                            env, root, deadline)
        times.append(wall)
        outcomes.append(gates.check_report(proc.stdout, proc.returncode, golden))
    return {
        "outcomes": outcomes,
        "op_s": times,
        "items": len(times),
        "busy_s": sum(times),
        "setup_s": 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def end_to_end(res: dict) -> dict:
    values = {
        "op_p50_ms": (statistics.median(res["op_s"]) * 1e3, "ms"),
        "op_p90_ms": (percentile(res["op_s"], 0.90) * 1e3, "ms"),
        "items_per_s": (res["items"] / res["busy_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (res["setup_s"], "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def workload_names(workload: str, metrics: dict, op_s: list, failed_ratio: float) -> dict:
    """The end-to-end metrics under the names each workload reports them by."""
    m = {k: v["value"] for k, v in metrics.items()}
    named = {
        "report": {"report_s": (m["op_p50_ms"] / 1e3, "s")},
        "sweep": {"sweep_rows_per_s": (m["items_per_s"], "rows/s")},
        "queries": {
            "queries_per_s": (m["items_per_s"], "queries/s"),
            "query_p50_ms": (m["op_p50_ms"], "ms"),
            "query_p90_ms": (m["op_p90_ms"], "ms"),
            "query_p99_ms": (percentile(op_s, 0.99) * 1e3, "ms"),
        },
    }[workload]
    named.update(
        peak_rss_mb=(m["peak_rss_mb"], "MB"),
        setup_s=(m["setup_s"], "s"),
        failed_ratio=(failed_ratio, "failed/attempted"),
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "quadcover" / "__init__.py").is_file():
        print(f"error: no quadcover sources under {root / 'src'}; "
              "run from the root of a quadcover checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_s = 0.0 if args.trace else import_s(root, env, deadline)
        if args.workload == "report" and not args.trace:
            res = run_report(args, root, env, deadline)
        else:
            res = _worker(args, root, env, deadline)
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    verdict = gates.verdict(res["outcomes"])
    if not args.trace:
        res["setup_s"] += setup_s
    metrics = res["metrics"] if args.trace else end_to_end(res)
    summary = {
        "workload": args.workload,
        "operation": UNITS[args.workload][0],
        "items": UNITS[args.workload][1],
        "trace": args.trace,
        "env": environment(args.seed),
        "failed_ratio": verdict["failed_ratio"],
        "problems": verdict["problems"],
    }
    if not args.trace:
        summary["metrics"] = workload_names(args.workload, metrics, res["op_s"],
                                            verdict["failed_ratio"])
    print(json.dumps(summary))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
