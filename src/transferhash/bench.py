"""Benchmark pipeline: split, train every method, evaluate, aggregate.

One ground truth per seed is shared by all methods so cells differ only
in the encoder.  The retrieval database is the target-side training
matrix; queries are the held-out target rows.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass

import numpy as np

from .baselines import cca_itq_fit, lsh_fit
from .config import RunConfig
from .data import make_split, zero_center
from .errors import ConfigError, DataError, check_count, check_matrix
from .evaluate import EvalReport, evaluate_model, ground_truth
from .itq import itq_train
from .itq_plus import itq_plus_train
from .lap_itq_plus import lap_itq_plus_train
from .model import HashModel, LinearProjection, default_hyperparams
from .preprocess import pca_fit, project

log = logging.getLogger(__name__)


@dataclass
class FitResult:
    model: HashModel
    trace: list
    graph: object = None


def fit_model(method: str, target_train, source_corr=None, source_extra=None, *,
              bits: int, lambda1: float = RunConfig.lambda1,
              lambda2: float = RunConfig.lambda2, k_graph: int = RunConfig.k_graph,
              iters: int = RunConfig.iters, seed: int = 0,
              pca_energy: float | None = None) -> FitResult:
    """Train one hashing method on raw (uncentered) matrices.

    Target rows are centered on their own mean; source rows are centered on
    the mean over all available source rows (correspondences plus extras),
    since privileged data never appears at query time.  source_corr must
    have the target's row count, and extras as wide as source_corr,
    possibly none, else DataError; extras without source_corr raise
    ConfigError.  When pca_energy is set, the target side is reduced before
    rotation learning (cca-itq uses its canonical projection instead); a
    rotation learned on it needs at least bits components, so keeping
    fewer raises ConfigError, as do bits that are not an integer >= 1.
    Every method's one HashModel is built here from its trainer's parts.
    """
    try:
        check_count("bits", bits, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    centered_t, centering = zero_center(target_train)

    x_sc = x_su = None
    if source_corr is None and source_extra is not None:
        raise ConfigError("source_extra needs source_corr")
    if source_corr is not None:
        source_corr = check_matrix("source_corr", source_corr, 1)
        if source_corr.shape[0] != centered_t.shape[0]:
            raise DataError(f"target has {centered_t.shape[0]} rows but source has "
                            f"{source_corr.shape[0]}")
        source_rows = source_corr
        if source_extra is not None:
            source_extra = check_matrix("source_extra", source_extra)
            if source_extra.shape[1] != source_corr.shape[1]:
                raise DataError(f"source_extra has {source_extra.shape[1]} columns but "
                                f"source_corr has {source_corr.shape[1]}")
            if source_extra.shape[0]:
                source_rows = np.vstack([source_corr, source_extra])
        source_mean = source_rows.mean(axis=0)
        if not np.isfinite(source_mean).all():  # NaN or inf in a row spoils its column mean
            raise DataError("source rows hold non-finite values")
        x_sc = source_corr - source_mean
        x_su = None if source_extra is None else source_extra - source_mean

    projection = LinearProjection.identity(centered_t.shape[1])
    trainer_input = centered_t
    if pca_energy is not None and method != "cca-itq":
        projection = pca_fit(centered_t, pca_energy)
        trainer_input = project(centered_t, projection)
        if method != "lsh" and trainer_input.shape[1] < bits:
            raise ConfigError(f"pca_energy={pca_energy} keeps {trainer_input.shape[1]} "
                              f"components, fewer than bits={bits}")

    if method in ("itq+", "lapitq+", "cca-itq") and x_sc is None:
        raise ConfigError(f"method {method} needs source correspondence data")
    params = {"iters": iters, "seed": seed}
    trace, graph = [], None
    if method == "lsh":
        rotation = lsh_fit(trainer_input.shape[1], bits, seed)
        params = {"seed": seed}
    elif method == "cca-itq":
        # cca-itq keeps the canonical projection its trainer fitted
        projection, rotation = cca_itq_fit(centered_t, x_sc, bits, iters, seed)
    elif method == "itq":
        _, rotation, trace = itq_train(trainer_input, bits, iters, seed)
    elif method == "itq+":
        state = itq_plus_train(trainer_input, x_sc, bits, lambda1, iters, seed)
        rotation, trace = state.rotation, state.objective_trace
        params["lambda1"] = lambda1
    elif method == "lapitq+":
        state = lap_itq_plus_train(trainer_input, x_sc, x_su, bits, lambda1,
                                   lambda2, k_graph, iters, seed)
        rotation, trace, graph = state.rotation, state.objective_trace, state.graph
        params.update(lambda1=lambda1, lambda2=lambda2, k_graph=k_graph)
    else:
        raise ConfigError(f"unknown method {method!r}")
    model = HashModel(method, centering, projection, rotation, bits,
                      default_hyperparams(**params))
    return FitResult(model, trace, graph)


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

    A failed cell is logged and recorded as missing, and the run continues;
    a ConfigError in a cell is a mistake in the settings and ends the run.
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

    results = {}
    for method in config.methods:
        for bits in config.bits:
            for seed in config.seeds:
                try:
                    report = run_cell(config, splits[seed], gts[seed], method, bits, seed)
                except ConfigError:
                    raise
                except Exception:
                    log.exception("bench cell failed: method=%s bits=%d seed=%d",
                                  method, bits, seed)
                    report = None
                results[(method, bits, seed)] = report

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
