"""Memory and start-up figures of the whole-set paths, one JSON line per run.

    PYTHONPATH=path/to/checkout/src python3 tools/memory_probes.py [--repeats R]

  * dump_<fmt>_rss_mib, dump_<fmt>_s: peak RSS (MiB) of a child
    interpreter that runs `quadcover enumerate --dump --format <fmt>` at
    n = 5, read by the child itself from VmHWM in /proc/self/status at
    its exit, and the child's wall time, interpreter start included
    (stdout is discarded); medians over the repeats, for json, md and
    csv.  The child's getrusage(RUSAGE_SELF) would not do: Linux carries
    the parent's peak over to it at exec;
  * report_dump_<fmt>_rss_mib, report_dump_<fmt>_s: the same of
    `quadcover report --dump --format <fmt>`;
  * admissible_array_mib: tracemalloc peak of admissible_array(5), with
    normal_forms, the GL(2) action table _vec_table and the line table
    built first;
  * mask_mib: tracemalloc peak of admissibility_mask over that array;
  * evaluation_<n>_held_b, evaluation_<n>_peak_b: bytes a character that
    one entry of the per-tuple memo (sheaves._evaluation) holds, and the
    tracemalloc peak of building it with _characters(n) cleared, at
    n = 101 and 211, on a row that meets condition 0; the admissibility
    line table (72 bytes a character, bounded on its own) is built first;
  * import_cli_s: median wall time of a cold `import quadcover.cli` in a
    child interpreter;
  * tree: the package directory measured;
  * bytecode: whether the measured package directory held `__pycache__`
    when the script started.  A child that finds compiled bytecode there
    skips compiling the package, which shortens every child time above;
    measure from a tree without it, with PYTHONDONTWRITEBYTECODE=1.
Point PYTHONPATH at another checkout to measure that tree instead; the
children inherit it, and the script reads only names both trees export.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

# looked up before the package is imported here, which may compile it
PACKAGE = os.path.dirname(importlib.util.find_spec("quadcover").origin)
BYTECODE = os.path.isdir(os.path.join(PACKAGE, "__pycache__"))

from quadcover import covers, sheaves  # noqa: E402

DUMP = (
    "import sys\n"
    "from quadcover import cli\n"
    "code = cli.main([sys.argv[1], '--dump', '--format', sys.argv[2]])\n"
    "sys.stdout.flush()\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(line for line in fh if line.startswith('VmHWM:')), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


def _child(argv):
    """Wall time of a child interpreter and its stderr."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=os.environ, check=True)
    return time.perf_counter() - start, done.stderr


def _traced_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def _evaluation_bytes(n):
    """Held bytes and tracemalloc peak, a character, of one cold memo entry
    at n; the row's six slots sum to zero, so its section counts are held."""
    row = [1, 0, 0, 1, 1, 1, 2, 3, 5, 7]
    row += [-sum(row[0::2]) % n, -sum(row[1::2]) % n]
    covers._line_table(n)
    sheaves._evaluation.cache_clear()
    sheaves._characters.cache_clear()
    tracemalloc.start()
    try:
        _, table, numbers = sheaves._evaluation(tuple(row), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = table.residues.nbytes + table.classes.nbytes + numbers.nbytes
    return held / (n * n), peak / (n * n)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    out = {}
    for command, prefix in (("enumerate", "dump"), ("report", "report_dump")):
        for fmt in ("json", "md", "csv"):
            runs = [_child(["-c", DUMP, command, fmt]) for _ in range(args.repeats)]
            out[f"{prefix}_{fmt}_rss_mib"] = statistics.median(int(err.split()[-2]) / 1024 for _, err in runs)
            out[f"{prefix}_{fmt}_s"] = statistics.median(wall for wall, _ in runs)
    covers.normal_forms(5), covers._vec_table(5), covers._line_table(5)
    out["admissible_array_mib"] = _traced_mib(lambda: covers.admissible_array(5))
    rows = covers.admissible_array(5)
    out["mask_mib"] = _traced_mib(lambda: covers.admissibility_mask(rows, 5))
    for n in (101, 211):
        out[f"evaluation_{n}_held_b"], out[f"evaluation_{n}_peak_b"] = _evaluation_bytes(n)
    out["import_cli_s"] = statistics.median(
        _child(["-c", "import quadcover.cli"])[0] for _ in range(4 * args.repeats))
    print(json.dumps({"tree": PACKAGE} | {k: round(v, 3) for k, v in out.items()} | {"bytecode": BYTECODE}))


if __name__ == "__main__":
    main()
