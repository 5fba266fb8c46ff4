"""Timings of the all-tuples p_g sweep's layers, one JSON line per run.

    PYTHONPATH=path/to/checkout/src python3 tools/sweep_probes.py [--repeats R]

  * normal_form_index_ms: normal_form_index over admissible_array(5),
    shuffled with a fixed seed;
  * pg5_ms: pg_values over the same rows, as one sweep pass runs it;
  * pg7_ms: pg_values at p = 7 on 20000 seeded GL(2) images of normal
    forms.
The per-modulus tables (normal forms, class tables, the class box) are
built before the timings, as the first call in a process builds them.
Each figure is the median over the repeats; `tree` is the package
directory measured.  Point PYTHONPATH at another checkout to measure
that tree instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

import quadcover
from quadcover import covers, gf, sheaves


def _ms(fn):
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def _gl2_sample(p, size, seed):
    forms, mats = covers.normal_forms(p), gf.gl2_array(p)
    rng = np.random.default_rng(seed)
    g = mats[rng.integers(len(mats), size=size)]
    rows = np.einsum("kij,ksj->ksi", g, forms[rng.integers(len(forms), size=size)].reshape(-1, 6, 2))
    return np.ascontiguousarray(rows.reshape(-1, 12) % p)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    rows = covers.admissible_array(5)
    rows = np.ascontiguousarray(rows[np.random.default_rng(5).permutation(len(rows))])
    sample = _gl2_sample(7, 20000, 7)
    sheaves.pg_values(rows, 5), sheaves.pg_values(sample, 7)  # the per-modulus tables
    runs = {"normal_form_index_ms": [], "pg5_ms": [], "pg7_ms": []}
    for _ in range(args.repeats):
        runs["normal_form_index_ms"].append(_ms(lambda: covers.normal_form_index(rows, 5)))
        runs["pg5_ms"].append(_ms(lambda: sheaves.pg_values(rows, 5)))
        runs["pg7_ms"].append(_ms(lambda: sheaves.pg_values(sample, 7)))
    out = {"tree": os.path.dirname(os.path.abspath(quadcover.__file__))}
    out |= {k: round(statistics.median(v), 3) for k, v in runs.items()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
