"""Timings of the admissibility layer, one JSON line per run.

    PYTHONPATH=path/to/checkout/src python3 tools/admissibility_probes.py [--seed S]

Three medians, each in a fresh state where the figure asks for one:
  * mask_ms: admissibility_mask over 200000 seeded random rows closed to
    sum zero at n = 5 (the candidate pool of perfbench's queries workload);
  * normal_forms_ms: normal_forms(5) with its cache cleared;
  * check_us: one check_admissibility(U3), a plain call that keeps nothing.
`tree` is the package directory measured.  Point PYTHONPATH at another
checkout to time that tree instead; the script reads only names that
both trees export.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

import quadcover
from quadcover import covers
from quadcover.covers import SixTuple

U3 = SixTuple.parse("1,0,1,0,0,1,4,1,3,2,1,1")


def _median_s(fn, repeats, before=None):
    times = []
    for _ in range(repeats):
        if before:
            before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    rows = rng.integers(0, 5, size=(200_000, 12))
    rows[:, 10] = -rows[:, 0:10:2].sum(axis=1) % 5
    rows[:, 11] = -rows[:, 1:10:2].sum(axis=1) % 5
    covers.admissibility_mask(rows[:10], 5)  # the line table, built once
    out = {
        "seed": args.seed,
        "mask_ms": 1e3 * _median_s(lambda: covers.admissibility_mask(rows, 5), args.repeats),
        "normal_forms_ms": 1e3 * _median_s(lambda: covers.normal_forms(5), args.repeats,
                                           covers.normal_forms.cache_clear),
        "check_us": 1e6 * _median_s(lambda: covers.check_admissibility(U3, 5), 200 * args.repeats),
    }
    tree = {"tree": os.path.dirname(os.path.abspath(quadcover.__file__))}
    print(json.dumps(tree | {k: round(v, 2) for k, v in out.items()}))


if __name__ == "__main__":
    main()
