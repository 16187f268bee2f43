"""Benchmark runner: one workload, one fresh process, one closed-loop caller.

    python3 perfbench/run.py --workload pairwise-exact --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then replays the workload's
operation cycle through ``treeweights.cli.main`` for ``--seconds`` seconds,
grading every answer against the generated key; set-up is measured in
separate probe processes started between cycles.  Latencies are CPU times
scaled by a reference loop timed right before each operation
(reference.py), so that the host's changing speed cancels out.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs each
operation untraced and then traced and reports the per-layer metrics with
the tracing overhead.  The last line of standard
output is the JSON result; a table of every metric with its unit and sample
count, and ``error_rate``, comes before it.  A full record with provenance
goes to ``perfbench/results/``.

The package is imported from ``src/`` of the checkout this file sits in and
nowhere else; without it the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One load-generating process on a 2-core machine: keep BLAS to one thread.
# Set before numpy is imported, here and (by inheritance) in probe processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import grade
import reference
import workloads
from checkout import HERE, ROOT, SetupError, bootstrap

WORK = ROOT / ".perfbench_work"
RESULTS = HERE / "results"
# Set-up probes per run: at least 5, and up to 15 while they take about 3 s
# of CPU in all, as the first one's time predicts.
SETUP_PROBES_MIN, SETUP_PROBES_MAX, SETUP_BUDGET_S = 5, 15, 3.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "accept_p50_ms": "ms",
    "reject_p50_ms": "ms",
    "nj_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------- #
# Set-up                                                                 #
# --------------------------------------------------------------------- #


def prepare(workload, seed, work, tiny=False):
    """Fresh ``work`` directory with the workload's inputs and the probes'
    manifest; returns (ops, warm-up ops, manifest path)."""
    shutil.rmtree(work, ignore_errors=True)
    ops, warm = workloads.build(workload, seed, work, tiny)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({
        "inputs": sorted({op.inst.path for op in warm + ops}),
        "warm": [op.argv() for op in warm],
    }))
    return ops, warm, manifest


def setup_probe(manifest):
    """(CPU, wall) seconds of one fresh process from start until it reports
    ready (interpreter, import, reading inputs, warm-up), and the CPU
    seconds of the reference loop in that process right after."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(manifest)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().split()
        wall = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if len(line) != 3 or line[0] != "ready" or code != 0:
        raise SetupError(f"set-up probe failed (exit {code}, said {line!r})")
    return float(line[1]), wall, float(line[2])


# --------------------------------------------------------------------- #
# Timed phase                                                            #
# --------------------------------------------------------------------- #


class Sample:
    """One finished operation: its index in the cycle, latency class, CPU
    and wall seconds, the CPU seconds of the reference loop run right
    before it, and the grading verdict (None when right).

    ``latency`` is the calling thread's CPU time.  The operations are
    single-threaded (BLAS is pinned to one thread), so it is their whole
    cost, without the time the thread waits while the host runs others.
    """

    __slots__ = ("index", "kind", "latency", "wall", "ref", "error")

    def __init__(self, index, kind, latency, wall, ref, error):
        self.index = index
        self.kind = kind
        self.latency = latency
        self.wall = wall
        self.ref = ref
        self.error = error


def timed_call(call, op):
    """(exit code or None, CPU seconds, wall seconds, reference CPU seconds,
    error) for one operation, with the reference loop timed just before it."""
    ref = reference.timed()
    start, start_cpu = time.perf_counter(), time.thread_time()
    try:
        rc = call(op.argv())
        error = None
    except Exception as exc:  # an unexpected crash is a wrong answer, not a stop
        rc, error = None, f"{type(exc).__name__}: {exc}"
    cpu, wall = time.thread_time() - start_cpu, time.perf_counter() - start
    return rc, cpu, wall, ref, error


def graded(index, op, rc, latency, wall, ref, error):
    if error is None:
        try:
            error = grade.grade(op, rc)
        except Exception as exc:  # unreadable output
            error = f"output unreadable: {type(exc).__name__}: {exc}"
    return Sample(index, op.kind, latency, wall, ref, error)


def run_untraced(ops, seconds, manifest):
    """Whole cycles of ``ops`` until ``seconds`` of them have passed (at least
    one).  Between cycles, set-up probes of ``manifest`` run, spread evenly
    over the phase so that one slow spell of the host does not time them
    all; their time is not counted.  Returns (samples, probes' (CPU, wall,
    reference CPU) seconds)."""
    from treeweights import cli

    samples, setup_runs = [], []
    probes = SETUP_PROBES_MIN
    spent = 0.0
    while not samples or spent < seconds:
        if spent >= seconds * len(setup_runs) / probes:
            setup_runs.append(setup_probe(manifest))
            probes = max(probes, min(SETUP_PROBES_MAX, int(SETUP_BUDGET_S / setup_runs[0][0])))
        start = time.perf_counter()
        for k, op in enumerate(ops):
            samples.append(graded(k, op, *timed_call(cli.main, op)))
        spent += time.perf_counter() - start
    while len(setup_runs) < probes:  # phases of a cycle or two
        setup_runs.append(setup_probe(manifest))
    return samples, setup_runs


def run_traced(ops, seconds):
    """Whole cycles, each operation untraced then traced, until the time is
    up.  Returns (untraced samples, traced samples, tracer, cycles, levels)."""
    import tracer as tracer_mod
    from treeweights import cli

    tracer = tracer_mod.Tracer()
    plain, traced = [], []
    levels = {"reconstruct.levels": 0, "reconstruct.pseudobells": 0}
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        for k, op in enumerate(ops):
            plain.append(graded(k, op, *timed_call(cli.main, op)))
            op_id = len(traced)
            sample = graded(k, op, *timed_call(lambda argv: tracer.run(op_id, argv), op))
            traced.append(sample)
            if op.report_path and sample.error is None:
                _count_levels(op.report_path, levels)
        cycles += 1
    return plain, traced, tracer, cycles, levels


def _count_levels(path, levels):
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh).get("trace") or {}
    for level in trace.get("levels", []):
        levels["reconstruct.levels"] += 1
        levels["reconstruct.pseudobells"] += len(level["pseudobells"])


# --------------------------------------------------------------------- #
# Metrics                                                                #
# --------------------------------------------------------------------- #


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_input(samples, raw=False):
    """{cycle index: (kind, latency in seconds)}: the median over the
    repeats of each operation of its CPU time divided by the reference
    loop's, times the reference's nominal time (see reference.py).  The
    host's speed swings for seconds to minutes at a time, which shows in
    CPU time too; the ratio to work timed a moment earlier cancels it.
    ``raw`` gives the median CPU time itself instead."""
    runs = {}
    for s in samples:
        runs.setdefault(s.index, (s.kind, []))[1].append(
            s.latency if raw else s.latency / s.ref * reference.NOMINAL_MS / 1000)
    return {k: (kind, statistics.median(xs)) for k, (kind, xs) in runs.items()}


def end_to_end(samples, setup_runs, rss_after_warmup):
    """{name: (value, unit, samples, note)} for the untraced run; latencies
    are CPU times scaled to the reference loop's nominal speed."""
    best = per_input(samples)
    repeats = f"reference-scaled CPU time, median of {len(samples) / len(best):.1f} runs per input"
    out = {"setup_s": (statistics.median(cpu / ref for cpu, _, ref in setup_runs)
                       * reference.NOMINAL_MS / 1000, "s", len(setup_runs),
                       "median reference-scaled CPU time of probe processes")}
    out["ops_per_s"] = (len(best) / sum(lat for _, lat in best.values()), "1/s", len(best),
                        f"closed loop, 1 caller; {repeats}")
    for kind in ("accept", "reject", "nj"):
        lat = [lat for k, lat in best.values() if k == kind]
        if lat:
            out[f"{kind}_p50_ms"] = (1000 * statistics.median(lat), "ms", len(lat),
                                     f"median; {repeats}")
    value, pct, beyond = tail([lat for _, lat in best.values()])
    out["latency_tail_ms"] = (1000 * value, "ms", len(best),
                              f"p{pct:.1f}, {beyond} inputs beyond; {repeats}")
    raw = per_input(samples, raw=True)
    out["ops_per_s_cpu"] = (len(raw) / sum(lat for _, lat in raw.values()), "1/s", len(raw),
                            "unscaled CPU time, median run per input; not gated")
    out["reference_ms"] = (1000 * statistics.median(s.ref for s in samples), "ms",
                           len(samples), f"median CPU time of the reference loop "
                           f"(nominal {reference.NOMINAL_MS} ms); not gated")
    rss = peak_rss_mb()
    out["peak_rss_mb"] = (rss, "MB", 1, "ru_maxrss of this process")
    out["peak_rss_growth_mb"] = (rss - rss_after_warmup, "MB", 1,
                                 "ru_maxrss growth over the timed phase; not gated")
    failed = sum(1 for s in samples if s.error)
    out["error_rate"] = (failed / len(samples), "ratio", len(samples), "wrong or crashed ops")
    return out


def per_layer(plain, traced, tracer, cycles, levels):
    """{name: (value, unit, samples, note)}: layer totals per schedule cycle."""
    import tracer as tracer_mod

    out = {}
    times = tracer.self_times()
    for layer in tracer_mod.SPAN_NAMES:
        calls, self_s = times.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls / cycles, "count", cycles, "per cycle")
        out[f"{layer}.self_s"] = (self_s / cycles, "s", cycles, "per cycle")
    counters = dict(tracer.counters)
    counters.update(levels)
    for name in tracer_mod.COUNTERS:
        out[name] = (counters.get(name, 0) / cycles, "count", cycles, "per cycle")
    fits = times.get("oracle.fit_weights", (0, 0.0))[0]
    star = times.get("weights.star_condition", (0, 0.0))[0]
    out["oracle.fit_weights.hit_ratio"] = (
        counters.get("oracle.fit_weights.hits", 0) / fits if fits else 0.0, "ratio", fits,
        "fits that realise the target / fits tried")
    out["nj.confirm_ratio"] = (
        counters.get("nj.triple_rounds", 0) / star if star else 0.0, "ratio", star,
        "triple-NJ rounds / star_condition_triples calls")
    per_cycle = len(plain) // cycles
    t_plain = sum(lat for _, lat in per_input(plain).values())
    t_traced = sum(lat for _, lat in per_input(traced).values())
    out["trace.ops_per_s_untraced"] = (per_cycle / t_plain, "1/s", len(plain),
                                       "reference-scaled CPU time, median run per input")
    out["trace.ops_per_s_traced"] = (per_cycle / t_traced, "1/s", len(traced),
                                     "reference-scaled CPU time, median run per input")
    out["trace.overhead"] = (t_traced / t_plain - 1.0, "ratio", len(traced),
                             "traced / untraced time - 1, same inputs")
    out["trace.self_coverage"] = (
        sum(v for _, v in times.values()) / sum(s.wall for s in traced), "ratio",
        len(traced), "sum of layer self times / traced op wall time")
    return {name: out[name] for name in tracer_mod.per_layer_names()}


# --------------------------------------------------------------------- #
# Provenance and output                                                  #
# --------------------------------------------------------------------- #


def provenance():
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def _commit():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def print_table(workload, metrics):
    print(f"# {workload}")
    for name, (value, unit, count, note) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit:6s} n={count:<6d} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    prov = provenance()  # load average before this run adds its own load
    work = WORK / args.workload
    grader_ok = grade.self_check(WORK / "selfcheck")
    ops, warm, manifest = prepare(args.workload, args.seed, work)
    setup_runs = []

    import tracer
    from treeweights import cli

    for op in warm:
        cli.main(op.argv())
    rss_after_warmup = peak_rss_mb()
    if args.trace:
        plain, traced, spans, cycles, levels = run_traced(ops, args.seconds)
        samples = plain + traced
        metrics = per_layer(plain, traced, spans, cycles, levels)
        RESULTS.mkdir(exist_ok=True)
        spans.dump(RESULTS / f"spans-{args.workload}.jsonl")
        wanted = tracer.per_layer_names()
    else:
        samples, setup_runs = run_untraced(ops, args.seconds, manifest)
        metrics = end_to_end(samples, setup_runs, rss_after_warmup)
        wanted = list(END_TO_END)
    failures = [s.error for s in samples if s.error]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "setup_runs_cpu_wall_ref_s": setup_runs,
        "cycle_ops": len(ops),
        "grader_self_check": grader_ok,
        "metrics": {k: {"value": v, "unit": u, "samples": c, "note": n}
                    for k, (v, u, c, n) in metrics.items()},
        "failures": failures[:20],
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    shutil.rmtree(WORK, ignore_errors=True)
    print_table(args.workload, metrics)
    print(json.dumps(record["provenance"]))
    for reason in failures[:5]:
        print(f"failure: {reason}")
    result = {
        "correct": grader_ok and not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
