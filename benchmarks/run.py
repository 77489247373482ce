#!/usr/bin/env python3
"""socnav benchmark harness.

Usage, from the repository root:

    python3 benchmarks/run.py --workload pretrain --seed 1 --seconds 25 --trace 0

Runs one workload of `benchmarks/workloads.py` in this process as a closed
loop (one caller, each call waits for the previous one), checks every
output, and prints the metrics named in `BENCHMARK.json` as the last line
of standard output, one JSON object. `--trace 0` reports the end-to-end
metrics, untraced. `--trace 1` runs every unit twice on identical inputs,
untraced and traced, and reports per-layer metrics from the traced runs.

Full results (per-unit samples, digests, machine facts) go to
`.bench_out/<workload>-seed<seed>-trace<t>.json`, traced spans to
`.bench_out/<workload>-seed<seed>.spans.npz`. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GEMM_SHAPE = (15360, 128, 128)   # policy tokens B*3K x D, times D x D


def limit_threads(nproc: int):
    """One BLAS thread unless the environment asks for more, never more
    than nproc; must run before numpy loads.

    On a 2-vCPU machine a two-thread GEMM ran at either 63 or 175 GFLOP/s
    from one process to the next, while a pretraining iteration took
    2.5 s with one thread and 2.6-2.9 s with two, so one thread gives
    steadier figures at no cost.
    """
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, 1))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, nproc)))


def machine_facts(seed: int, gemm_gflops: float) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "numpy": np.__version__, "python": platform.python_version(),
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": seed, "machine.gemm_gflops": gemm_gflops}


def gemm_gflops(reps: int = 30) -> float:
    """Median rate of a bare float32 GEMM at the policy's dense shape."""
    import numpy as np
    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random((k, n), dtype=np.float32)
    times = []
    for r in range(reps + 3):
        t0 = time.perf_counter()
        a @ b
        if r >= 3:
            times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / statistics.median(times) / 1e9


def describe(xs) -> str:
    """Sample count, quartiles and the highest percentile with at least ten
    samples above it."""
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    text = f"n={len(xs)} q1={q[0]:.6g} median={q[1]:.6g} q3={q[2]:.6g}"
    if len(xs) > 10:
        k = len(xs) - 11
        text += f" p{100 * (k + 1) // len(xs)}={xs[k]:.6g}"
    return text


class Tally:
    """Attempts, failures and failed output checks of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, ops: int, message: str):
        self.failed += ops
        self.problems.append(message)


def run_unit(wl, i, tally, tracer=None):
    """Time one unit on fresh inputs; returns (seconds, timed ops, digest)."""
    inputs = wl.inputs(i)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = wl.run(inputs)
        error = None
    except wl.failures as exc:
        out, error = None, exc
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if error is not None:
        tally.attempted += 1
        tally.fail(1, f"unit {i}: {type(error).__name__}: {error}")
        return elapsed, 0, None
    timed, attempted, failed = wl.ops(out)
    tally.attempted += attempted
    if failed:
        tally.fail(failed, f"unit {i}: {failed} failed operations")
    for problem in wl.check(out):
        tally.fail(attempted - failed, f"unit {i}: {problem}")
    return elapsed, timed, wl.digest(out)


def set_up(wl):
    builds = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        wl.build()
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.warm_up()
    return statistics.median(builds) + (time.perf_counter() - t0)


def keep_going(started, seconds, durations):
    """Start another unit while it is expected to end by half a unit past
    the deadline; the run always has at least one unit."""
    if not durations:
        return True
    expected = statistics.median(durations)
    return time.perf_counter() - started + expected / 2 <= seconds


def measure(wl, seconds, tally):
    samples, durations, digests = [], [], []
    started = time.perf_counter()
    i = 0
    while keep_going(started, seconds, durations):
        elapsed, timed, digest = run_unit(wl, i, tally)
        durations.append(elapsed)
        if timed:
            samples.append(elapsed / timed)
        digests.append(digest)
        i += 1
    return samples, durations, digests


def measure_traced(wl, seconds, tally, tracer):
    """Each unit untraced and traced on identical inputs, alternating which
    goes first so drift hits both sides alike."""
    plain_s = traced_s = 0.0
    ops = 0
    durations, digests = [], []
    started = time.perf_counter()
    i = 0
    while keep_going(started, seconds, durations):
        order = (None, tracer) if i % 2 == 0 else (tracer, None)
        result = {}
        for tr in order:
            result[tr is not None] = run_unit(wl, i, tally, tr)
        (p_el, p_ops, p_dig), (t_el, _, t_dig) = result[False], result[True]
        if p_dig != t_dig:
            tally.fail(p_ops, f"unit {i}: traced digest {t_dig} != untraced {p_dig}")
        plain_s += p_el
        traced_s += t_el
        ops += p_ops
        durations.append(p_el + t_el)
        digests.append(p_dig)
        i += 1
    return plain_s, traced_s, ops, digests


def per_layer_metrics(tracer, plain_s, traced_s, ops, gemm):
    spans, root_s = tracer.summary()
    c = tracer.counts
    per_op = 1.0 / ops if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, (calls, self_s) in spans.items():
        m[f"{name}.calls"] = (calls * per_op, "calls/op")
        m[f"{name}.self_s"] = (self_s * per_op, "s/op")
    dense_s = spans["nn.dense_fwd"][1] + spans["nn.dense_bwd"][1]
    dense_gflops = ratio(c.get("nn.dense.flops", 0) / 1e9, dense_s)
    m["nn.dense.gflops"] = (dense_gflops, "GFLOP/s")
    m["machine.gemm_gflops"] = (gemm, "GFLOP/s")
    m["nn.dense.gemm_ratio"] = (ratio(dense_gflops, gemm), "ratio")
    m["features.canon_rows_per_decision"] = (
        ratio(c.get("features.canon_rows", 0), spans["policy.Actor.act"][0]), "rows")
    m["orca.planes_per_solve"] = (ratio(c.get("orca.planes", 0), c.get("orca.solves", 0)),
                                  "planes")
    m["orca.infeasible_frac"] = (ratio(c.get("orca.infeasible", 0), c.get("orca.solves", 0)),
                                 "ratio")
    m["dataset.bytes_written"] = (c.get("dataset.bytes_written", 0) * per_op, "B/op")
    m["trace.overhead_frac"] = (ratio(traced_s - plain_s, plain_s), "ratio")
    m["trace.root_coverage_frac"] = (ratio(root_s, traced_s), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny network shapes, for the self-test only")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "socnav", "__init__.py")):
        print(f"error: socnav sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    limit_threads(nproc)
    sys.path.insert(0, SRC)
    import socnav
    if os.path.dirname(os.path.abspath(socnav.__file__)) != os.path.join(SRC, "socnav"):
        print(f"error: imported socnav from {socnav.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        wl = WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
        tally = Tally()
        setup_s = set_up(wl)
        gemm = gemm_gflops(3 if args.tiny else 30)
        facts = machine_facts(args.seed, gemm)
        result = {"workload": args.workload, "op": wl.op, "machine": facts,
                  "setup_s": setup_s}
        if args.trace == 0:
            samples, durations, digests = measure(wl, args.seconds, tally)
            if not samples:   # every unit failed; time the failed units instead
                samples = durations
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (setup_s, "s"),
                       "op_ms": (statistics.median(samples) * 1e3, "ms"),
                       "peak_rss_mb": (peak_mb, "MB")}
            result.update(samples_s=samples)
            wanted = spec["end_to_end"]
        else:
            tracer = Tracer()
            plain_s, traced_s, ops, digests = measure_traced(wl, args.seconds, tally,
                                                             tracer)
            metrics = per_layer_metrics(tracer, plain_s, traced_s, ops, gemm)
            tracer.save(os.path.join(OUT, f"{tag}.spans.npz"))
            wanted = spec["per_layer"]
        correct = not tally.problems
        result.update(digests=digests, problems=tally.problems,
                      attempted=tally.attempted, failed=tally.failed,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w") as fh:
            json.dump(result, fh, indent=1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"machine": facts}))
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace == 0:
        name, value, unit = wl.named_metric(metrics["op_ms"][0])
        print(f"{wl.name}: op = {wl.op}")
        print(f"  op_ms per unit: {describe([x * 1e3 for x in samples])}")
        print(f"  {name} = {value:.6g} {unit}")
    print(f"failed_frac = {tally.failed / max(tally.attempted, 1):.4f} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:14.6g} {unit}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    final = {"correct": correct, "attempted": max(tally.attempted, 1),
             "failed": tally.failed,
             "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                     "unit": metrics[m["name"]][1]} for m in wanted}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
