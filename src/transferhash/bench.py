"""Benchmark pipeline: split, train every method, evaluate, aggregate.

One ground truth per seed is shared by all methods so cells differ only
in the encoder.  The retrieval database is the target-side training
matrix; queries are the held-out target rows.
"""

from __future__ import annotations

import csv
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import cca_itq_fit, lsh_fit
from .config import RunConfig
from .data import make_split, zero_center
from .errors import ConfigError
from .evaluate import EvalReport, evaluate_model, ground_truth
from .itq import itq_train
from .itq_plus import itq_plus_train
from .lap_itq_plus import lap_itq_plus_train
from .model import HashModel, LinearProjection, default_hyperparams, with_pipeline
from .preprocess import pca_fit, project

log = logging.getLogger(__name__)


@dataclass
class FitResult:
    model: HashModel
    trace: list
    graph: object = None


def fit_model(method: str, target_train, source_corr=None, source_extra=None, *,
              bits: int, lambda1: float = 0.01, lambda2: float = 0.01,
              k_graph: int = 5, iters: int = 150, seed: int = 0,
              pca_energy: float | None = None, want_graph: bool = False) -> FitResult:
    """Train one hashing method on raw (uncentered) matrices.

    Target rows are centered on their own mean; source rows are centered on
    the mean over all available source rows (correspondences plus extras),
    since privileged data never appears at query time.  When pca_energy is
    set, the target side is reduced before rotation learning (cca-itq uses
    its canonical projection instead).
    """
    if bits < 1:
        raise ConfigError(f"bits must be positive, got {bits}")
    target_train = np.asarray(target_train, dtype=np.float64)
    centered_t, centering = zero_center(target_train)

    x_sc = x_su = None
    if source_corr is not None:
        source_corr = np.asarray(source_corr, dtype=np.float64)
        if source_extra is not None and np.asarray(source_extra).size:
            source_extra = np.asarray(source_extra, dtype=np.float64)
            source_mean = np.vstack([source_corr, source_extra]).mean(axis=0)
            x_su = source_extra - source_mean
        else:
            source_mean = source_corr.mean(axis=0)
            x_su = np.empty((0, source_corr.shape[1]))
        x_sc = source_corr - source_mean

    preprocessing = None
    trainer_input = centered_t
    if pca_energy is not None and method != "cca-itq":
        preprocessing = pca_fit(centered_t, pca_energy)
        trainer_input = project(centered_t, preprocessing)
    # cca-itq keeps the canonical projection its trainer fitted
    projection = None if method == "cca-itq" else _proj_for(preprocessing, trainer_input)

    if method in ("itq+", "lapitq+", "cca-itq") and x_sc is None:
        raise ConfigError(f"method {method} needs source correspondence data")
    trace, graph = [], None
    if method == "itq":
        _, rotation, trace = itq_train(trainer_input, bits, iters, seed)
        model = HashModel("itq", centering, projection, rotation, bits,
                          default_hyperparams(iters=iters, seed=seed))
    elif method == "lsh":
        model = lsh_fit(trainer_input.shape[1], bits, seed)
    elif method == "cca-itq":
        model = cca_itq_fit(centered_t, x_sc, bits, iters, seed)
    elif method == "itq+":
        model, state = itq_plus_train(trainer_input, x_sc, bits, lambda1, iters, seed)
        trace = state.objective_trace
    elif method == "lapitq+":
        model, state, graph = lap_itq_plus_train(
            trainer_input, x_sc, x_su, bits, lambda1, lambda2, k_graph,
            iters, seed, return_graph=True)
        trace = state.objective_trace
    else:
        raise ConfigError(f"unknown method {method!r}")
    return FitResult(with_pipeline(model, centering, projection), trace,
                     graph if want_graph else None)


def _proj_for(preprocessing, trainer_input):
    if preprocessing is not None:
        return preprocessing
    return LinearProjection.identity(trainer_input.shape[1])


def run_cell(config: RunConfig, split, gt, method: str, bits: int,
             seed: int) -> EvalReport:
    """Train and evaluate one (method, bits, seed) cell on its seed's split."""
    fit = fit_model(method, split.target_train, split.source_corr,
                    split.source_extra, bits=bits,
                    lambda1=config.lambda1, lambda2=config.lambda2,
                    k_graph=config.k_graph, iters=config.iters, seed=seed,
                    pca_energy=config.pca_energy)
    return evaluate_model(fit.model, split.target_train, split.target_test,
                          config.r_groundtruth, config.ks, gt=gt,
                          seed=seed, alpha=config.alpha)


def run_bench(config: RunConfig, target_all, source_all, out_dir) -> dict:
    """Run every (method, bits, seed) cell and write the aggregate CSVs.

    A failed cell is logged and recorded as missing; the run continues.
    Returns {(method, bits, seed): EvalReport or None}.
    """
    config.validate()
    os.makedirs(out_dir, exist_ok=True)

    splits = {}
    gts = {}
    for seed in config.seeds:
        splits[seed] = make_split(target_all, source_all, config.alpha,
                                  config.test_fraction, seed)
        if splits[seed].target_test.shape[0] == 0:
            raise ConfigError("benchmark needs a nonzero test_fraction")
        gts[seed] = ground_truth(splits[seed].target_train,
                                 splits[seed].target_test,
                                 config.r_groundtruth)

    cells = [(method, bits, seed)
             for method in config.methods
             for bits in config.bits
             for seed in config.seeds]

    def run_one(cell):
        method, bits, seed = cell
        try:
            return run_cell(config, splits[seed], gts[seed], method, bits, seed)
        except Exception:
            log.exception("bench cell failed: method=%s bits=%d seed=%d",
                          method, bits, seed)
            return None

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            reports = list(pool.map(run_one, cells))
    else:
        reports = [run_one(cell) for cell in cells]
    results = dict(zip(cells, reports))

    _write_results_csv(config, results, os.path.join(out_dir, "bench_results.csv"))
    _write_table_csv(config, results, os.path.join(out_dir, "bench_table.csv"))
    for bits in config.bits:
        _write_precision_csv(config, results, bits,
                             os.path.join(out_dir, f"precision_at_k_{bits}.csv"))
    return results


def _mean_map(config, results, method, bits):
    values = [results[(method, bits, seed)].map for seed in config.seeds
              if results[(method, bits, seed)] is not None]
    return sum(values) / len(values) if values else None


def _write_results_csv(config, results, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "bits", "seed", "map"])
        for method in config.methods:
            for bits in config.bits:
                for seed in config.seeds:
                    report = results[(method, bits, seed)]
                    writer.writerow([method, bits, seed,
                                     repr(report.map) if report else ""])
        for method in config.methods:
            for bits in config.bits:
                mean = _mean_map(config, results, method, bits)
                writer.writerow([method, bits, "mean",
                                 repr(mean) if mean is not None else ""])


def _write_table_csv(config, results, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bits"] + list(config.methods))
        for bits in config.bits:
            row = [bits]
            for method in config.methods:
                mean = _mean_map(config, results, method, bits)
                row.append(repr(mean) if mean is not None else "")
            writer.writerow(row)


def _write_precision_csv(config, results, bits, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "K", "precision"])
        for method in config.methods:
            curves = [dict(results[(method, bits, seed)].precision_at_k)
                      for seed in config.seeds
                      if results[(method, bits, seed)] is not None]
            if not curves:
                continue
            for k in sorted(curves[0]):
                values = [curve[k] for curve in curves if k in curve]
                writer.writerow([method, k, repr(sum(values) / len(values))])
