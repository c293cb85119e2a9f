"""Run alternated parent/change perfbench pairs and write a BENCH_*.json.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads paper-transfer,graph-dense,retrieval-large --seeds 1-10 \\
        --seconds 25 --claim paper-transfer:wall_s \\
        --description "what the change does" --note "..." --out BENCH_name.json

--parent and --change are two source checkouts; each run is
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`` in
its own process, from its own checkout.  Per workload and seed the parent
runs first on odd seeds and the change first on even seeds.  Every run is
made afresh, and parent_commit is the parent checkout's HEAD.

For every end-to-end metric of BENCHMARK.json the file holds both sides'
runs (in seed order), medians and quartiles, the change's relative median
change, the pairs it won and lost, and a verdict:
  - "identical in every pair";
  - "unresolved" when the parent's quartile spread, over its median, is
    wider than the metric's bound, unless every change run reads better
    than every parent run: such runs cannot show a move within the bound;
  - "no worse", with " (improved)" when the change won every pair and its
    median moved by more than the parent's quartile spread;
  - "within bound" when the median is worse by at most the metric's bound;
  - "WORSE THAN BOUND" otherwise.
The claimed metric is "met" when the change won at least nine pairs in
ten and its median moved by more than the parent's quartile spread.  A
--claim that names no workload being run or no end-to-end metric is a
usage error (exit 2) before the first run.

Each workload's "correct" flags and failed/attempted operation counts are
printed for both sides.  The record also keeps the host's 1-minute load
average just before each run (os.getloadavg), per side in seed order.  After writing the file the exit code is 1 when
any change run printed "correct": false or the change failed more
operations than the parent on some workload, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np

ORDER = ("parent runs first on odd seeds, the change first on even seeds; "
         "each run in its own process from its own checkout")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) as a sorted list without repeats.

    An empty part or a reversed range such as '10-1' is a ValueError.
    """
    seeds = set()
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        lo, hi = int(lo), int(hi if dash else lo)
        if hi < lo:
            raise ValueError(f"seed range {part!r} is reversed")
        seeds.update(range(lo, hi + 1))
    return sorted(seeds)


def short_commit(checkout: str) -> str | None:
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its last JSON line, with the environment it printed
    and the host's 1-minute load average just before it started."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    load = os.getloadavg()[0]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = [line[4:] for line in lines if line.startswith("env ")]
    result["environment"] = json.loads(env[0]) if env else {}
    result["load_before"] = load
    return result


def host() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")]
        if names:
            model = f"{model} ({names[0]})"
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return f"{os.cpu_count()} vCPU {model}, {ram:.0f} GB RAM"


def side_summary(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's entry: both sides, the pair count won and lost, a verdict."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = side_summary(parent), side_summary(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    iqr = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    spread = iqr / p["median"] if p["median"] else 0.0
    every_run_better = min(sign * b for b in change) > max(sign * a for a in parent)
    if parent == change:
        verdict = "identical in every pair"
    elif spread > metric["bound"] and not every_run_better:
        verdict = "unresolved"
    elif gain >= 0:
        improved = wins == len(parent) and gain > iqr
        verdict = "no worse (improved)" if improved else "no worse"
    elif -sign * rel <= metric["bound"]:
        verdict = "within bound"
    else:
        verdict = "WORSE THAN BOUND"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p, "change": c, "median_change": rel,
            "change_wins": wins, "change_losses": losses,
            "parent_iqr_over_median": spread,
            "verdict": verdict}


def claim_verdict(entry: dict) -> str:
    pairs = len(entry["parent"]["runs"])
    p, c = entry["parent"]["median"], entry["change"]["median"]
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    sign = 1.0 if entry["better"] == "higher" else -1.0
    met = entry["change_wins"] >= math.ceil(0.9 * pairs) and sign * (c - p) > iqr
    return (f"{'met' if met else 'NOT MET'}: the change read {entry['better']} in "
            f"{entry['change_wins']} of {pairs} pairs, and its median moved "
            f"{c - p:+.4g} {entry['unit']} ({p:.4g} -> {c:.4g}) against a parent "
            f"quartile spread of {iqr:.4g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent source checkout")
    parser.add_argument("--change", required=True, help="changed source checkout")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write")
    parser.add_argument("--workloads", default="paper-transfer,graph-dense,retrieval-large")
    parser.add_argument("--seeds", type=parse_seeds, default="1-10",
                        help="e.g. 1-10 or 1,2,5")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--description", default="", help="what the change does")
    parser.add_argument("--note", action="append", default=[], help="repeatable")
    args = parser.parse_args(argv)

    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    workloads = args.workloads.split(",")
    seeds = args.seeds
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in {m["name"] for m in metrics}:
            parser.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC for a workload "
                         "being run and an end-to-end metric of BENCHMARK.json")
        claim = (workload, metric)

    results = {}
    for workload in workloads:
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                checkout = parent if side == "parent" else change
                results[(workload, seed, side)] = run_once(
                    checkout, workload, seed, args.seconds)
                value = results[(workload, seed, side)]["metrics"].get("wall_s", {})
                print(f"{workload} seed {seed} {side}: wall_s {value.get('value')}",
                      flush=True)

    report = {
        "change": args.description,
        "parent_commit": short_commit(parent),
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": {w: len(seeds) for w in workloads},
        "seeds": {w: seeds for w in workloads},
        "order": ORDER,
        "claim": None,
        "notes": args.note,
        "workloads": {},
        "environment": {},
    }
    for workload in workloads:
        runs = {side: [results[(workload, s, side)] for s in seeds]
                for side in ("parent", "change")}
        entry = {
            "seeds": seeds,
            "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
            "failed_operations": {
                "parent": sum(r["failed"] for r in runs["parent"]),
                "change": sum(r["failed"] for r in runs["change"]),
                "attempted_parent": sum(r["attempted"] for r in runs["parent"]),
                "attempted_change": sum(r["attempted"] for r in runs["change"]),
            },
            # a gain that needs a free CPU shows only on a host without other load
            "load_before_runs": {side: [r["load_before"] for r in runs[side]]
                                 for side in runs},
            "metrics": {},
        }
        for metric in metrics:
            name = metric["name"]
            entry["metrics"][name] = compare(
                metric, *([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change")))
        report["workloads"][workload] = entry
    if claim:
        workload, metric = claim
        report["claim"] = {"workload": workload, "metric": metric,
                           "verdict": claim_verdict(
                               report["workloads"][workload]["metrics"][metric])}
    env = results[(workloads[0], seeds[0], "change")].get("environment", {})
    report["environment"] = {**env, "host": host()}

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=False)
        fh.write("\n")
    failing = []
    for workload, entry in report["workloads"].items():
        ops = entry["failed_operations"]
        print(f"{workload:16s} correct parent {entry['correct']['parent']} change "
              f"{entry['correct']['change']}; failed/attempted parent "
              f"{ops['parent']}/{ops['attempted_parent']} change "
              f"{ops['change']}/{ops['attempted_change']}")
        if not entry["correct"]["change"] or ops["change"] > ops["parent"]:
            failing.append(workload)
        for name, m in entry["metrics"].items():
            print(f"{workload:16s} {name:18s} {m['median_change']:+8.2%} "
                  f"{m['change_wins']:2d}/{m['change_losses']:<2d} {m['verdict']}")
    if report["claim"]:
        print("claim: " + report["claim"]["verdict"])
    if failing:
        print("FAILED: the change ran incorrectly, or failed more operations than the "
              f"parent, on {', '.join(failing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
