"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that:

* the grader passes a right answer and counts deliberately wrong ones
  (a moved edge, a wrong exit code, a corrupted reconstruction report);
* BENCHMARK.json names exactly the metrics the runner emits, with the
  same units;
* every workload emits every end-to-end metric with its unit and a sample
  count, with error_rate 0;
* the traced run emits every per-layer metric; for every traced operation
  the layers' self times sum to its root span, and the root spans cover
  the measured wall time of the traced operations within a few percent.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

import grade
import run
import workloads
from checkout import ROOT, SetupError, bootstrap

SELF_SUM_TOL = 1e-6  # relative: self times telescope to the root span
COVER_TOL = 0.05  # root spans vs the runner's own timer, over all traced ops


def check_benchmark_json(problems):
    import tracer

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != runner {run.END_TO_END}")
    names = [m["name"] for m in bench["per_layer"]]
    if names != tracer.per_layer_names():
        problems.append("BENCHMARK.json per_layer names differ from tracer.per_layer_names()")
    wl = [w["name"] for w in bench["workloads"]]
    if wl != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {wl} != {list(workloads.WORKLOADS)}")


def check_workload(name, problems):
    import tracer
    from treeweights import cli

    ops, warm, manifest = run.prepare(name, 7, run.WORK / "smoke" / name, tiny=True)
    for op in warm:
        cli.main(op.argv())
    samples, setup_runs = run.run_untraced(ops, 0.5, manifest)
    metrics = run.end_to_end(samples, setup_runs, run.peak_rss_mb())
    for metric, unit in list(run.END_TO_END.items()) + [("error_rate", "ratio")]:
        if metric not in metrics:
            problems.append(f"{name}: {metric} missing")
            continue
        value, got_unit, count, _ = metrics[metric]
        if got_unit != unit or count < 1:
            problems.append(f"{name}: {metric} has unit {got_unit!r}, {count} samples")
    if metrics["error_rate"][0] != 0:
        problems.append(f"{name}: error_rate {metrics['error_rate'][0]}: "
                        f"{[s.error for s in samples if s.error][:3]}")

    plain, traced, spans, cycles, levels = run.run_traced(ops, 0.0)
    layer_metrics = run.per_layer(plain, traced, spans, cycles, levels)
    missing = [m for m in tracer.per_layer_names() if m not in layer_metrics]
    if missing:
        problems.append(f"{name}: per-layer metrics missing: {missing}")
    roots = 0.0
    for k in range(len(traced)):
        root = spans.root_time(k)
        selfs = sum(v for _, v in spans.self_times(k).values())
        if abs(selfs - root) > SELF_SUM_TOL * root:
            problems.append(f"{name}: op {k} self times sum to {selfs}, root span {root}")
        roots += root
    measured = sum(s.wall for s in traced)
    if not 0 <= measured - roots <= COVER_TOL * measured:
        problems.append(f"{name}: root spans cover {roots:.4f} s of {measured:.4f} s measured")
    if any(s.error for s in plain + traced):
        problems.append(f"{name}: traced run graded an answer wrong")

    if name == "pairwise-exact":
        op = next(o for o in ops if o.command == "reconstruct" and o.inst.realizable)
        rc = cli.main(op.argv())
        with open(op.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        edge = report["tree"]["json"]["edges"][0]
        edge["weight"] = str(Fraction(edge["weight"]) + 1)
        with open(op.report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        wrong = run.graded(0, op, rc, 0.001, 0.001, 0.003, None)
        if (wrong.error is None
                or run.end_to_end([wrong], [(1.0, 1.0, 0.003)], 0.0)["error_rate"][0] != 1):
            problems.append("a corrupted reconstruction report was not counted as an error")


def main():
    try:
        bootstrap()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    problems = []
    if not grade.self_check(run.WORK / "smoke" / "selfcheck"):
        problems.append("grader self-check failed")
    check_benchmark_json(problems)
    for name in workloads.WORKLOADS:
        check_workload(name, problems)
        print(f"smoke: {name} done", flush=True)
    shutil.rmtree(run.WORK / "smoke", ignore_errors=True)
    for p in problems:
        print(f"FAIL: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
