"""Write acceptance criterion 8's per-seed MAP and fit time as JSON.

Usage, from anywhere:

    python3 tools/quality_record.py --out QUALITY_name.json [--seeds 10] \
        [--compare QUALITY_parent.json]

The workload is criterion 8's (tests/test_acceptance.py): 1,250 synthetic
pairs (64-d target, 40-d source), split seeds 0..N-1 with alpha 0.1 and
test fraction 0.2, then itq, itq+ and lapitq+ at 32 bits with lambda1 0.3,
lambda2 0.01, k 5 and 150 sweeps, scored at r 10 and K 10.  Every cell
is fitted and scored as run_bench does, so its MAP is run_bench's; the
record adds the seconds fit_model took and the sha256 of the model's
save_model bytes.  MAP and model bytes repeat exactly across runs on one
machine and numpy build, so two records' MAP and digest fields compare
with ==; fit times are wall-clock readings and do not repeat.

--compare PARENT.json checks the new record against an earlier one: it
names every (seed, method, bits) cell whose MAP differs, whose model
digest differs (when both records hold digests; older records have
none), or that either record lacks, and prints each method's median,
over its cells, of the new fit seconds over the parent's.  The exit code
is then 1 when some cell was named, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import asdict

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from transferhash.bench import fit_model  # noqa: E402
from transferhash.config import RunConfig  # noqa: E402
from transferhash.data import make_split, save_model  # noqa: E402
from transferhash.evaluate import evaluate_model, ground_truth  # noqa: E402
from transferhash.synth import make_two_view_clusters  # noqa: E402


def criterion_8(seeds: int):
    """(RunConfig, target, source) of criterion 8 with split seeds 0..seeds-1."""
    target, source, _ = make_two_view_clusters(
        1250, 64, 40, clusters=5, noise=3.0, seed=0,
        source_noise=0.1, latent_dim=16, center_spread=5.0)
    config = RunConfig(methods=("itq", "itq+", "lapitq+"), bits=(32,),
                       alpha=0.1, test_fraction=0.2, lambda1=0.3,
                       lambda2=0.01, k_graph=5, iters=150,
                       seeds=tuple(range(seeds)), r_groundtruth=10, ks=(10,))
    return config, target, source


def model_sha256(model) -> str:
    """Hex sha256 of the model's save_model bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cell.model")
        save_model(model, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def record(config: RunConfig, target, source) -> dict:
    """Per (seed, method, bits) cell, its MAP, fit seconds and model digest,
    plus each method's mean MAP, for one run of the config over the corpus."""
    config.validate()
    runs = []
    for seed in config.seeds:
        split = make_split(target, source, config.alpha, config.test_fraction, seed)
        gt = ground_truth(split.target_train, split.target_test, config.r_groundtruth)
        for method in config.methods:
            for bits in config.bits:
                start = time.perf_counter()
                fit = fit_model(method, split.target_train, split.source_corr,
                                split.source_extra, bits=bits, lambda1=config.lambda1,
                                lambda2=config.lambda2, k_graph=config.k_graph,
                                iters=config.iters, seed=seed, pca_energy=config.pca_energy)
                fit_s = time.perf_counter() - start
                report = evaluate_model(fit.model, split.target_train, split.target_test,
                                        config.r_groundtruth, config.ks, gt=gt,
                                        seed=seed, alpha=config.alpha)
                runs.append({"seed": seed, "method": method, "bits": bits,
                             "map": report.map, "fit_s": fit_s,
                             "model_sha256": model_sha256(fit.model)})
    return {
        "config": asdict(config),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "runs": runs,
        "mean_map": {method: statistics.fmean(r["map"] for r in runs if r["method"] == method)
                     for method in config.methods},
    }


def compare(parent: dict, result: dict) -> tuple[list[str], dict]:
    """(one line per cell whose MAP or, where both records hold one, model
    digest differs, or that one record lacks, each method's median ratio
    of the result's fit seconds to the parent's over the cells both
    records hold)."""
    def cells(rec):
        return {(r["seed"], r["method"], r["bits"]): r for r in rec["runs"]}

    old, new = cells(parent), cells(result)
    problems = []
    for key in sorted(old.keys() | new.keys()):
        cell = f"seed {key[0]} {key[1]} {key[2]} bits"
        if key not in new:
            problems.append(f"{cell}: in the parent record only")
        elif key not in old:
            problems.append(f"{cell}: not in the parent record")
        elif new[key]["map"] != old[key]["map"]:
            problems.append(f"{cell}: MAP {old[key]['map']!r} -> {new[key]['map']!r}")
        else:
            old_sha, new_sha = old[key].get("model_sha256"), new[key].get("model_sha256")
            if old_sha and new_sha and old_sha != new_sha:
                problems.append(f"{cell}: model sha256 {old_sha} -> {new_sha}")
    ratios = {}
    for key in sorted(old.keys() & new.keys()):
        ratios.setdefault(key[1], []).append(new[key]["fit_s"] / old[key]["fit_s"])
    return problems, {method: statistics.median(r) for method, r in ratios.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--seeds", type=int, default=10,
                        help="split seeds 0..N-1 (default 10, criterion 8's)")
    parser.add_argument("--compare", metavar="PARENT.json",
                        help="an earlier record whose MAP and model digest every cell must equal")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    parent = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            parent = json.load(fh)
    result = record(*criterion_8(args.seeds))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for method, value in result["mean_map"].items():
        print(f"{method:8s} mean MAP {value:.4f}")
    if parent is None:
        return 0
    problems, ratios = compare(parent, result)
    for method, ratio in ratios.items():
        print(f"{method:8s} fit seconds, median ratio to {args.compare}: {ratio:.3f}")
    for line in problems:
        print(f"differs: {line}")
    print(f"{len(problems)} cell(s) differ from {args.compare}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
