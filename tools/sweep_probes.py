"""Timings of the all-tuples p_g sweep's layers, one JSON line per run.

    PYTHONPATH=path/to/checkout/src python3 tools/sweep_probes.py [--repeats R]

  * normal_form_index_ms: normal_form_index over admissible_array(5),
    shuffled with a fixed seed;
  * pg5_ms: pg_values over the same rows, as one sweep pass runs it;
  * pg7_ms: pg_values at p = 7 on 20000 seeded GL(2) images of normal
    forms;
  * pg5_batched_ms: pg_values over the same rows in calls of CHUNK rows;
  * table5_ms: character_table over the 420 normal forms at p = 5, the
    per-form evaluation inside each pass at p = 5.
pg5_first_ms and pg7_first_ms time the first pg5 and pg7 calls of the
process, which build the per-modulus tables (normal forms, class tables,
the class box); the repeats run after them.  Each repeated figure is the
median over the repeats; `tree` is the package directory measured.
Point PYTHONPATH at another checkout to measure that tree instead.
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
    first = {"pg5_first_ms": _ms(lambda: sheaves.pg_values(rows, 5)),
             "pg7_first_ms": _ms(lambda: sheaves.pg_values(sample, 7))}
    runs = {"normal_form_index_ms": [], "pg5_ms": [], "pg7_ms": [], "pg5_batched_ms": [], "table5_ms": []}
    for _ in range(args.repeats):
        runs["normal_form_index_ms"].append(_ms(lambda: covers.normal_form_index(rows, 5)))
        runs["pg5_ms"].append(_ms(lambda: sheaves.pg_values(rows, 5)))
        runs["pg7_ms"].append(_ms(lambda: sheaves.pg_values(sample, 7)))
        runs["pg5_batched_ms"].append(_ms(lambda: [sheaves.pg_values(rows[i:i + covers.CHUNK], 5)
                                                   for i in range(0, len(rows), covers.CHUNK)]))
        runs["table5_ms"].append(_ms(lambda: sheaves.character_table(covers.normal_forms(5), 5)))
    out = {"tree": os.path.dirname(os.path.abspath(quadcover.__file__))}
    out |= {k: round(v, 3) for k, v in first.items()}
    out |= {k: round(statistics.median(v), 3) for k, v in runs.items()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
