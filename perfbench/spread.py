"""Run the benchmark once per seed on each workload and report, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ingest,search]

Runs are sequential, one process at a time, from the repository root.  With
--out, the per-run values and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    """What the figures depend on besides the code."""
    import os
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    sys.path.insert(0, str(ROOT))
    from perfbench.run import BLAS_THREADS

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS, "numpy": numpy.__version__,
            "python": platform.python_version(), "git_sha": sha}


def summarize(values):
    q1, q2, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "seeds": _seeds(args.seeds),
              "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds) for s in _seeds(args.seeds)]
        values = {name: [r["metrics"][name]["value"] for r in runs]
                  for name in bounds}
        summary = {name: summarize(v) for name, v in values.items()}
        report["workloads"][workload] = {"summary": summary, "values": values}
        for name, s in summary.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  (above bound/3)"
            print(f"{workload:<13} {name:<12} median {s['median']:.6g}  "
                  f"spread {100 * s['spread']:.2f}%  bound "
                  f"{100 * bounds[name]:.0f}%{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
