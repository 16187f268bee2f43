"""Ungated baseline sweep: re-measures the ROADMAP "Baseline" rows that
finish in under a minute each and writes them to results/BENCH_baseline.json.

    python3 perfbench/sweep.py

Each row times one library call on the tree the ROADMAP rows used,
``treeweights.random_tree(n, seed=1)`` (binary, rational weights), so the
numbers line up with that table; every result is checked against the
input's path sums with this benchmark's own code.  Fast rows are timed three
times and report the median.  Rows that take minutes are listed as skipped,
with the reason.  This is not a gated workload.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import statistics
import sys
import time

from checkout import SetupError, bootstrap
from run import RESULTS, provenance

ROWS = [
    # (row, function, order, mode, sizes)
    ("reconstruct_from_doubles", "reconstruct_from_doubles", 2, "rational", (40, 80, 160)),
    ("nj_classic", "nj_classic", 2, "rational", (40, 80, 160)),
    ("nj_pruning", "nj_pruning", 2, "rational", (40, 80, 160)),
    ("reconstruct_from_triples", "reconstruct_from_triples", 3, "rational", (20, 40, 60)),
    ("nj_from_triples", "nj_from_triples", 3, "rational", (20, 40)),
    ("reconstruct_from_doubles, tol 1e-9", "reconstruct_from_doubles", 2, "float", (400,)),
]

SKIPPED = [
    {"row": "doubles_of_tree / .dense() / nj_pruning, float, n=1000",
     "reason": "kept with the n=1000 float reconstruction it prepares; that row takes minutes"},
    {"row": "reconstruct_from_doubles, float, tol 1e-9, n=1000",
     "reason": "about 129 s on the reference machine, over the one-minute limit"},
    {"row": "realizable_brute, doubles, n=8",
     "reason": "457 s cold, 153 s warm per reject on the reference machine"},
]


def measure(fn_name, order, mode, n):
    """(run times, worst path-sum error of the result) for one row."""
    import gen
    import treeweights as tw

    tree = tw.random_tree(n, 1, mode=mode)
    data = tw.doubles_of_tree(tree) if order == 2 else tw.triples_of_tree(tree)
    want = gen.path_sums(gen.Tree(n, list(tree.edges)))
    fn = getattr(tw, fn_name)
    kwargs = {"tol": 1e-9} if mode == "float" else {}
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = fn(data, **kwargs)
        times.append(time.perf_counter() - start)
        if times[0] >= 2.0:
            break
    got_tree = result[0] if isinstance(result, tuple) else result
    got = gen.path_sums(gen.Tree(n, list(got_tree.edges)))
    worst = max(abs(float(got[k] - w)) for k, w in want.items())
    return times, worst


def main():
    try:
        bootstrap()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    rows = []
    for row, fn_name, order, mode, sizes in ROWS:
        for n in sizes:
            times, worst = measure(fn_name, order, mode, n)
            rows.append({"row": row, "mode": mode, "n": n, "seconds": statistics.median(times),
                         "runs": times, "max_path_sum_error": worst})
            print(f"{row:40s} {mode:8s} n={n:<4d} {statistics.median(times):9.3f} s"
                  f"  (max path-sum error {worst:.2g})", flush=True)
    record = {"provenance": provenance(),
              "inputs": "treeweights.random_tree(n, seed=1), binary",
              "rows": rows, "skipped": SKIPPED}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / "BENCH_baseline.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    bad = [r for r in rows if r["max_path_sum_error"] > 1e-6]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
