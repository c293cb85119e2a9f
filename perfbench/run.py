"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper-transfer --seed 0 --seconds 20 --trace 0

The package is imported from the checkout's ``src/``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it list every metric with its unit.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of a traced run.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings, and bit-identical results across runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("paper-transfer", "graph-dense", "retrieval-large")


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": sys.version.split()[0]}


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import workloads
    from layers import KERNEL_NOMINAL_S

    spec = _benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = workloads.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), OUT)
    print("env " + json.dumps(environment(), sort_keys=True))
    rounds = result["rounds"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed")
    print(f"calibration kernel: median {result['kernel_s'] * 1e3:.2f} ms, "
          f"nominal {KERNEL_NOMINAL_S * 1e3:.2f} ms")
    print("round seconds, measured -> nominal: " + ", ".join(
        f"{r.raw_wall_s:.3f} -> {r.wall_s:.3f}{' (traced)' if r.traced else ''}"
        for r in rounds))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so its peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, record in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = record
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "transferhash", "__init__.py")):
        print(f"perfbench: no transferhash package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
