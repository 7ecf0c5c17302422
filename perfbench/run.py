"""Benchmark entry point.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

Run from the repository root.  Set-up generates the inputs from the seed and
is repeated SETUP_REPEATS times (its median, plus one warm-up pass, is
``setup_s``); then passes of the workload's CLI commands run until
``--seconds`` have been measured, each checked for correct output.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``throughput`` (the median pass rate, in the workload's own unit of work per
second; on ``search`` both halves together), ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced passes alternate;
the last line carries the per-layer metrics from the traced passes and the
tracing overhead, and the spans are written to .perfbench_work/spans/.
A failed command or check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 4  # two untraced and two traced
# BLAS threads: at most nproc.  One thread keeps the small matrix products
# of this program steady on a shared machine.
BLAS_THREADS = 1


def _blas_env():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _passes(seconds, on_pass, min_passes):
    """Run checked passes until ``seconds`` have been measured."""
    results, measured = [], 0.0
    while measured < seconds or len(results) < min_passes:
        start = perf_counter()
        result = on_pass(len(results))
        measured += perf_counter() - start
        results.append(result)
    return results


def _summary(results, unit):
    """One line per named rate: median and every pass, slowest first."""
    lines = []
    for label in results[0].parts:
        rates = sorted(w / s for w, s in (r.parts[label] for r in results))
        lines.append(f"{label} = {median(rates):.6g} {unit} (median of "
                     f"{len(rates)} passes: "
                     f"{', '.join(f'{x:.5g}' for x in rates)})")
    return lines


def measure(workload, runner, seconds, trace, span_path=None):
    """Set up, warm up and measure one workload; returns the metrics dict
    and prints a human-readable summary."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    start = perf_counter()
    workload.run_pass()
    workload.check()
    warm = perf_counter() - start
    setup_s = median(setups) + warm

    if not trace:
        def one(_):
            r = workload.run_pass()
            workload.check()
            return r

        results = _passes(seconds, one, MIN_PASSES)
        rate = median(r.rate for r in results)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print("\n".join(_summary(results, workload.unit)))
        if len(results[0].parts) > 1:
            print(f"throughput = {rate:.6g} {workload.unit} (all timed "
                  f"commands, median of {len(results)} passes)")
        print(f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups "
              f"{', '.join(f'{s:.3f}' for s in setups)} + warm-up {warm:.3f})")
        print(f"peak_rss_mb = {rss:.1f} MiB")
        return {"throughput": (rate, "units/s"), "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss, "MiB")}

    from perfbench import layers
    from perfbench.trace import Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    per_pass = []

    def one(i):
        traced = i % 2 == 1
        if traced:
            tracer.run = len(per_pass)
            layers.install(tracer)
            runner.tracer = tracer
        start = perf_counter()
        try:
            r = workload.run_pass()
        finally:
            walls[traced].append(perf_counter() - start)
            runner.tracer = None
            tracer.unpatch()
        workload.check()
        if traced:
            spans = [s for s in tracer.spans if s.run == tracer.run]
            per_pass.append(layers.pass_metrics(
                spans, tracer.counts[tracer.run], r.recovered))
        return r

    _passes(seconds, one, MIN_TRACE_PASSES)
    metrics = layers.median_metrics(per_pass)
    base = median(walls[False])
    overhead = median(walls[True]) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_fraction"] = overhead / base
    if span_path is not None:
        tracer.write(span_path)
    _print_layer_table(tracer, len(per_pass))
    print(f"tracing overhead: {overhead:+.4f} s per pass "
          f"({100 * overhead / base:+.2f}% of {base:.4f} s untraced)")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {k: (v, units[k]) for k, v in metrics.items()}


def _print_layer_table(tracer, n_passes):
    from perfbench.trace import self_times

    incl, self_, calls = self_times(tracer.spans)
    print(f"{'span':<40} {'calls/pass':>11} {'self s/pass':>12} "
          f"{'incl s/pass':>12}")
    for name in sorted(incl, key=lambda n: -self_[n]):
        print(f"{name:<40} {calls[name] / n_passes:>11.1f} "
              f"{self_[name] / n_passes:>12.5f} {incl[name] / n_passes:>12.5f}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _blas_env()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy
        import mathcorpus
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    if not Path(mathcorpus.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: mathcorpus imported from {mathcorpus.__file__}, not "
              f"from this checkout", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, CheckFailed, Runner

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    span_path = None
    if args.trace:
        span_path = WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        span_path.parent.mkdir(parents=True, exist_ok=True)
    runner = Runner()
    workload = WORKLOADS[args.workload](runner, work, args.seed)
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} blas_threads={BLAS_THREADS} "
          f"numpy={numpy.__version__} python={sys.version.split()[0]} "
          f"program={mathcorpus.__file__}")
    metrics, correct = {}, True
    try:
        metrics = measure(workload, runner, args.seconds, bool(args.trace),
                          span_path)
    except CheckFailed as e:
        print(f"error: output check failed: {e}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed if correct else max(1, runner.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
