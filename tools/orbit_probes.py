"""Orbit counts and the cost of the whole-set commands at n = 11 and 13, one JSON line per modulus.

    PYTHONPATH=path/to/checkout/src python3 tools/orbit_probes.py

  * orbits_s, orbits_rss_mib, enumerate_s, enumerate_rss_mib: wall time
    of a child interpreter that runs `quadcover --modulus n orbits` (or
    `enumerate`), interpreter start included, and its peak RSS, read by
    the child itself from VmHWM in /proc/self/status at its exit (Linux
    carries the parent's peak over to a child's getrusage at exec);
  * orbits, count: the orbit count and the tuple count the children print;
  * orbits_sha256: the sha256 of the `orbits` child's stdout, its json;
  * invariants_s: wall time that cli._cmd_orbits spends on the
    representatives' p_g and q, in the sheaves functions it calls for them
    (sheaves._pg_chi and _invariants, or per-tuple invariants in trees
    that have no batched pass), summed over one run in process with the
    orbit partition built first;
  * burnside: the orbit count by Burnside's lemma (tests/oracles.py),
    computed on the normal forms with no orbit built; each class is read
    by normal_form_index and each permutation's matrix by the package's
    swap matrices, CHUNK forms at a time, since the oracle's search
    route holds too much at 13;
  * partition_b_per_form: tracemalloc peak of orbit_partition(n), with
    the normal forms, the class tables of normal_form_index and the
    group closure built first, over the number of normal forms (73.1 at
    both 11 and 13 on a 2-core Linux host, Python 3.11, numpy 2.4; the
    figure that orbit_partition checks counts 73 bytes a form and one
    block of CHUNK forms);
  * vec_table_held_mib, vec_table_peak_mib, form_table_held_mib,
    form_table_peak_mib: what each class table of normal_form_index
    keeps, and the tracemalloc peak of its build, with the normal forms
    built first;
  * moves_s, least_members_s, least_s, unique_s: wall time of each phase
    of orbit_partition(n), run in turn as it runs them with the same
    tables built first: the four swap moves by apply_rows and
    normal_form_index, the codes of each class's least member, their
    orbit minima by _least, and the orbit labels by np.unique;
  * refused_<n>_s, refused_<n>_rss_mib: the same child figures of
    `quadcover --modulus n enumerate` at 17 and 31, which the
    normal-form search refuses before it starts (exit 2).
Point PYTHONPATH at another checkout to measure that tree instead; the
children inherit it.  Measure from a tree without `__pycache__`, with
PYTHONDONTWRITEBYTECODE=1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

import oracles  # noqa: E402
from quadcover import cli, covers, symmetry  # noqa: E402
from quadcover.gf import Mat  # noqa: E402

CHILD = (
    "import sys\n"
    "from quadcover import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(line for line in fh if line.startswith('VmHWM:')), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


def _child(*argv):
    """Exit code, wall time, peak RSS in MiB and stdout of one CLI child."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=os.environ)
    wall = time.perf_counter() - start
    return done.returncode, wall, int(done.stderr.split()[-2]) / 1024, done.stdout


def _fixes_class(perm, rows, n):
    """oracles.fixes_class by the package's own routes, CHUNK rows at a time."""
    swap = Mat(symmetry._swap_matrices([perm])[0], n)
    chunks = [rows[i:i + covers.CHUNK] for i in range(0, len(rows), covers.CHUNK)]
    index = covers.normal_form_index
    return np.concatenate([index(swap.apply_rows(c), n) == index(c, n) for c in chunks])


def _partition_bytes_per_form(n):
    forms = covers.normal_forms(n)
    covers.normal_form_index(forms[:1], n), symmetry.group_closure(n)
    symmetry.orbit_partition.cache_clear()
    tracemalloc.start()
    try:
        symmetry.orbit_partition(n)
        return tracemalloc.get_traced_memory()[1] / len(forms)
    finally:
        tracemalloc.stop()


def _table_builds(n):
    covers.normal_forms(n)
    out = {}
    for table in (covers._vec_table, covers._form_table):
        table.cache_clear()
        tracemalloc.start()
        try:
            held = table(n).nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        name = table.__name__.strip("_")
        out[f"{name}_held_mib"], out[f"{name}_peak_mib"] = round(held / (1 << 20), 2), round(peak / (1 << 20), 2)
    return out


def _phase_times(n):
    forms = covers.normal_forms(n)
    covers.normal_form_index(forms[:1], n), symmetry.group_closure(n)
    chunks = [forms[i:i + covers.CHUNK] for i in range(0, len(forms), covers.CHUNK)]
    stamps = [time.perf_counter()]
    moves = [np.concatenate([covers.normal_form_index(g.mat.apply_rows(c), n) for c in chunks])
             for g in symmetry.s5_generators(n)]
    stamps.append(time.perf_counter())
    codes = np.concatenate([covers.encode_rows(symmetry._least_members(c, n), n) for c in chunks])
    stamps.append(time.perf_counter())
    minima = symmetry._least(moves, codes)
    stamps.append(time.perf_counter())
    np.unique(minima, return_inverse=True)
    stamps.append(time.perf_counter())
    keys = ("moves_s", "least_members_s", "least_s", "unique_s")
    return {key: round(end - start, 3) for key, start, end in zip(keys, stamps, stamps[1:])}


def _invariants_seconds(n):
    symmetry.orbit_partition(n)
    spent = [0.0]

    def timed(fn):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[0] += time.perf_counter() - start
        return wrapper

    names = [name for name in ("invariants", "_pg_chi", "_invariants") if hasattr(cli, name)]
    saved = {name: getattr(cli, name) for name in names}
    try:
        for name in names:
            setattr(cli, name, timed(saved[name]))
        cli._cmd_orbits(argparse.Namespace(modulus=n))
    finally:
        for name in names:
            setattr(cli, name, saved[name])
    return spent[0]


def main():
    for n in (11, 13):
        out = {"modulus": n}
        for command, key in (("orbits", "orbit_count"), ("enumerate", "count")):
            code, wall, rss, stdout = _child("--modulus", str(n), command)
            if code:
                raise SystemExit(f"{command} at {n} exited {code}")
            out[f"{command}_s"], out[f"{command}_rss_mib"] = round(wall, 2), round(rss, 1)
            out["orbits" if command == "orbits" else "count"] = json.loads(stdout)[key]
            if command == "orbits":
                out["orbits_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        out.update(_table_builds(n))
        out["burnside"] = oracles.burnside_count(n, _fixes_class)
        out["partition_b_per_form"] = round(_partition_bytes_per_form(n), 1)
        out.update(_phase_times(n))
        out["invariants_s"] = round(_invariants_seconds(n), 3)
        print(json.dumps(out), flush=True)
    refused = {}
    for n in (17, 31):
        code, wall, rss, _ = _child("--modulus", str(n), "enumerate")
        refused[f"refused_{n}_exit"] = code
        refused[f"refused_{n}_s"], refused[f"refused_{n}_rss_mib"] = round(wall, 2), round(rss, 1)
    print(json.dumps(refused))


if __name__ == "__main__":
    main()
