#!/usr/bin/env python3
"""magiclab benchmark: one command, every metric with its unit.

Run from the root of a checkout (the directory that holds src/magiclab):

    python3 perfbench/run.py --workload runall --seed 7 --seconds 30 --trace 0

Workloads: runall, scatter, per_state (see perfbench/NOTES.md). With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a traced run. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
provenance block. Exits 2 without a result when the checkout has no
src/magiclab or the workload process fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread here and in every process started from here (set before
# numpy loads), so the reference kernel runs as it does in the workload.
os.environ.update({name: "1" for name in BLAS_ENV})

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUTDIR = ".perfbench_out"            # scratch and span files, inside the checkout
SETUP_RUNS = 7
WORKLOAD_TIMEOUT_S = 165             # the whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "call_p50_ms": "ms", "call_p90_ms": "ms"}


def setup_seconds(env, runs):
    """Median, over fresh processes, of `import magiclab` plus phase_point_ops(3),
    divided by the slowdown; also returns the raw median and the slowdown."""
    probe = os.path.join(HERE, "setup_probe.py")
    times, refs = [], []
    for _ in range(runs):
        reference.sample(refs)
        out = subprocess.run([sys.executable, probe], env=env, check=True, timeout=60,
                             stdout=subprocess.PIPE, text=True).stdout
        times.append(float(out.split()[-1]))
    raw = statistics.median(times)
    return raw / reference.slowdown(refs), raw, reference.slowdown(refs)


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_info():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": deps.get("name"), "version": deps.get("version")}


def main(argv=None):
    parser = argparse.ArgumentParser(description="magiclab benchmark")
    parser.add_argument("--workload", required=True, choices=("runall", "scatter", "per_state"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "magiclab", "__init__.py")):
        print(f"error: no src/magiclab under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    outdir = os.path.join(root, OUTDIR)
    os.makedirs(outdir, exist_ok=True)

    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", outdir] + (["--tiny"] if args.tiny else [])
    try:
        setup = None if args.trace else setup_seconds(env, 1 if args.tiny else SETUP_RUNS)
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["magiclab_file"].startswith(src + os.sep):
        print(f"error: imported {result['magiclab_file']}, not the checkout's", file=sys.stderr)
        return 2

    if args.trace:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = dict(result["metrics"], setup_s=setup[0])
        result["raw"].update(setup_s=setup[1], setup_slowdown=setup[2])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": result["rounds"], "calls": result["calls"],
        "slowdown": result["slowdown"], "raw": result["raw"],
        "error_rate": result["failed"] / result["attempted"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": result["numpy"], "blas": blas_info(),
        "blas_threads": {name: env[name] for name in BLAS_ENV},
        "git_commit": git_commit(root),
    }
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
