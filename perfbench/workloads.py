"""The benchmark's workloads and the measurement loop that runs them.

A workload makes its inputs from a seed and writes them as thpi-bin files
(set-up), then repeats one round of work on those files until the run's
seconds are spent.  Every round does the same operations on the same
inputs, so its outputs must repeat exactly; the first round's outputs are
checked against the independent computations in ``checks``.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from transferhash import bench, data, evaluate, synth
from transferhash.config import RunConfig

import checks
from layers import Calibration, Probe, Recorder

BITS = 32
LAMBDA1 = 0.3
LAMBDA2 = 0.01
K_GRAPH = 5
LEARNED = ("itq", "itq+", "lapitq+")
METRIC_NAME = {"itq": "itq", "itq+": "itqplus", "lapitq+": "lapitqplus"}
SETUP_REPEATS = 5
REPEAT_S = 0.5  # ground-truth calls shorter than this are re-timed

# every workload draws its rows from the corpus of acceptance criterion 8
# (64-d target view, 40-d source view, synthesis seed 0); --seed picks the
# split, the training sample and the trainers' random starts
_SYNTH = dict(d_target=64, d_source=40, clusters=5, noise=3.0,
              source_noise=0.1, latent_dim=16, center_spread=5.0, seed=0)


def _caps(itq: int, itq_plus: int, lap_itq_plus: int) -> dict:
    return {"itq": itq, "itq+": itq_plus, "lapitq+": lap_itq_plus}


@dataclass(frozen=True)
class Workload:
    n_pairs: int  # paired training corpus written as target.bin / source.bin
    alpha: float
    test_fraction: float
    iters: dict  # sweep cap per learned method
    r: int  # ground-truth neighbor rank
    ks: tuple
    splits: int  # split seeds per round: seed * splits + i for i < splits
    through_run_bench: bool = False  # all methods through bench.run_bench
    db_rows: int = 0  # > 0: separate database.bin / queries.bin files
    query_rows: int = 0


WORKLOADS = {
    # criterion-8 corpus, 100 correspondences + 900 source-only rows,
    # 250 queries; every method through run_bench
    "paper-transfer": Workload(n_pairs=1250, alpha=0.1,
                               test_fraction=0.2, iters=_caps(15, 15, 15), r=10,
                               ks=(1, 10, 50), splits=4, through_run_bench=True),
    # 1,000 correspondences and 500 queries: dense n x n graph products
    # dominate lapitq+
    "graph-dense": Workload(n_pairs=1500, alpha=1.0,
                            test_fraction=1 / 3, iters=_caps(15, 10, 5), r=50,
                            ks=(1, 10, 50), splits=3),
    # 1,000-row training sample; 8,000-row database, 1,000 queries
    "retrieval-large": Workload(n_pairs=1250, alpha=0.8,
                                test_fraction=0.0, iters=_caps(30, 15, 5), r=50,
                                ks=(1, 10, 100), splits=1, db_rows=8000,
                                query_rows=1000),
}

# (span, reported fields); spans are "module.function" in transferhash
LAYER_SPANS = (
    ("itq.procrustes", ("calls", "s")),
    ("itq.itq_train", ("s",)),
    ("itq.balanced_signs", ("s",)),
    ("itq_plus.update_r", ("s",)),
    ("itq_plus.update_p", ("s",)),
    ("itq_plus.update_b_balanced", ("s",)),
    ("itq_plus.blend_scores", ("s",)),
    ("lap_itq_plus.source_codes_offline", ("s",)),
    ("lap_itq_plus.knn_hamming_graph", ("s",)),
    ("lap_itq_plus.laplacian", ("s",)),
    ("lap_itq_plus.box_qp_minimize", ("s", "calls")),
    ("codes.pack_signs", ("s",)),
    ("evaluate.ground_truth", ("s",)),
    ("evaluate.encode", ("s",)),
    ("evaluate.search", ("calls", "s")),
    ("evaluate.average_precision", ("s",)),
    ("evaluate.precision_at_k", ("s",)),
    ("evaluate.evaluate_codes", ("s",)),
    ("data.make_split", ("s",)),
    ("data.load_matrix", ("s",)),
    ("data.save_model", ("s",)),
    ("data.load_model", ("s",)),
)


@dataclass
class Inputs:
    workload: Workload
    seed: int
    out_dir: str
    paths: dict


@dataclass
class Round:
    """What the probe saw during one round."""

    # each entry ends with the call's nominal seconds
    fits: list = field(default_factory=list)  # (method, iters, FitResult, s)
    gts: list = field(default_factory=list)  # (database, queries, GroundTruth, s)
    evals: list = field(default_factory=list)  # (model, database, queries, gt, ks, report, s)
    box_qp_traces: list = field(default_factory=list)  # (objective trace, its cap)
    failed_cells: int = 0
    problems: list = field(default_factory=list)
    raw_wall_s: float = 0.0  # measured, without calibration samples and repeats
    wall_s: float = 0.0  # nominal seconds
    scale: float = 1.0  # measured -> nominal seconds, from all of the round's samples
    traced: bool = False
    layers: dict = field(default_factory=dict)

    def outputs(self):
        """The round's results, which every round must reproduce exactly."""
        return ([(m, len(fit.trace), fit.model.rotation.tobytes()) for m, _, fit, _ in self.fits],
                [gt.threshold for _, _, gt, _ in self.gts],
                [(e[0].method, e[5].map) for e in self.evals],
                [len(trace) for trace, _ in self.box_qp_traces])

    def release(self) -> None:
        """Drop the outputs, keeping the figures the metrics read, so that
        memory does not grow with the number of rounds."""
        self.fits = [(m, iters, None, s) for m, iters, _, s in self.fits]
        self.gts = [(None, None, None, s) for *_, s in self.gts]
        self.evals = [(None,) * 5 + (report, s) for *_, report, s in self.evals]
        self.box_qp_traces = []


def setup(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Synthesise the corpus, write and re-read its files, and warm up."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    total = workload.n_pairs + workload.db_rows + workload.query_rows
    target, source, _ = synth.make_two_view_clusters(total, **_SYNTH)
    n, db_end = workload.n_pairs, workload.n_pairs + workload.db_rows
    matrices = {"target": target[:n], "source": source[:n]}
    if workload.db_rows:
        matrices["database"] = target[n:db_end]
        matrices["queries"] = target[db_end:]
    paths = {}
    for name, matrix in matrices.items():
        paths[name] = os.path.join(out_dir, f"{name}.bin")
        data.save_matrix(matrix, paths[name])
        if not np.array_equal(data.load_matrix(paths[name]), matrix):
            raise RuntimeError(f"{paths[name]} does not read back bit-exactly")
    _warm_up(target[:80], source[:80])
    return Inputs(workload, seed, out_dir, paths)


def _warm_up(target, source):
    """One small pass through every code path a round takes."""
    for method in LEARNED + ("lsh", "cca-itq"):
        fit = bench.fit_model(method, target[:60], source[:60], source[60:],
                              bits=8, iters=2, k_graph=K_GRAPH, seed=0)
        evaluate.evaluate_model(fit.model, target[:60], target[60:], 5, (1, 5))


def _round_trip(model, path, rnd: Round):
    """Save and reload a model; the reloaded fields must be bit-identical."""
    data.save_model(model, path)
    loaded = data.load_model(path)
    same = (loaded.method == model.method and loaded.bits == model.bits
            and loaded.hyperparams == model.hyperparams
            and loaded.preprocessing.kind == model.preprocessing.kind
            and all(np.array_equal(a, b) for a, b in (
                (loaded.rotation, model.rotation),
                (loaded.centering.mean, model.centering.mean),
                (loaded.preprocessing.matrix, model.preprocessing.matrix))))
    if not same:
        rnd.problems.append(f"{model.method} model does not round-trip through {path}")
    return loaded


def _bench_round(inputs: Inputs, rnd: Round) -> int:
    """Load the corpus and run every method over split seeds, as `transferhash bench` does."""
    w = inputs.workload
    seeds = _split_seeds(inputs)
    config = RunConfig(methods=LEARNED + ("lsh", "cca-itq"), bits=(BITS,),
                       alpha=w.alpha, test_fraction=w.test_fraction,
                       lambda1=LAMBDA1, lambda2=LAMBDA2, k_graph=K_GRAPH,
                       iters=w.iters["itq"], seeds=seeds, r_groundtruth=w.r, ks=w.ks)
    target = data.load_matrix(inputs.paths["target"])
    source = data.load_matrix(inputs.paths["source"])
    results = bench.run_bench(config, target, source, os.path.join(inputs.out_dir, "bench"))
    rnd.failed_cells = sum(1 for report in results.values() if report is None)
    for i, (method, _, fit, _) in enumerate(rnd.fits):
        _round_trip(fit.model, os.path.join(inputs.out_dir, f"model{i}.bin"), rnd)
    return len(results) + len(seeds)


def _direct_round(inputs: Inputs, rnd: Round) -> int:
    """Per split: train the learned methods, save/reload them, then rank and score."""
    w = inputs.workload
    target = data.load_matrix(inputs.paths["target"])
    source = data.load_matrix(inputs.paths["source"])
    attempted = 0
    for seed in _split_seeds(inputs):
        split = data.make_split(target, source, w.alpha, w.test_fraction, seed)
        models = []
        for method in LEARNED:
            fit = bench.fit_model(method, split.target_train, split.source_corr,
                                  split.source_extra, bits=BITS, lambda1=LAMBDA1,
                                  lambda2=LAMBDA2, k_graph=K_GRAPH, iters=w.iters[method],
                                  seed=seed)
            path = os.path.join(inputs.out_dir, f"{METRIC_NAME[method]}.model")
            models.append(_round_trip(fit.model, path, rnd))
        if w.db_rows:
            database = data.load_matrix(inputs.paths["database"])
            queries = data.load_matrix(inputs.paths["queries"])
        else:
            database, queries = split.target_train, split.target_test
        gt = evaluate.ground_truth(database, queries, w.r)
        for model in models:
            evaluate.evaluate_model(model, database, queries, w.r, w.ks, gt=gt)
        attempted += len(models) + 1
    return attempted


def _split_seeds(inputs: Inputs) -> tuple:
    n = inputs.workload.splits
    return tuple(inputs.seed * n + i for i in range(n))


def _install_probe(probe: Probe, current) -> None:
    """Record the fits, ground truths, evaluations and box-QP traces of the current round."""
    def on_fit(args, kwargs, result, seconds):
        current().fits.append((args[0], kwargs["iters"], result, seconds))

    def on_gt(args, kwargs, result, seconds):
        current().gts.append((args[0], args[1], result, seconds))

    def on_eval(args, kwargs, result, seconds):
        current().evals.append((args[0], args[1], args[2], kwargs["gt"], args[4],
                                result, seconds))

    probe.wrap("bench.fit_model", on_fit)
    probe.wrap("evaluate.ground_truth", on_gt, repeat_s=REPEAT_S)
    probe.wrap("evaluate.evaluate_model", on_eval)

    def on_box_qp(args, kwargs, result):
        # the package passes inner_iters positionally; the trace holds the
        # starting objective and one entry per inner step
        current().box_qp_traces.append((result[1], args[3] + 1))

    probe.watch("lap_itq_plus.box_qp_minimize", on_box_qp)


def _layer_metrics(tracer: Recorder, rnd: Round) -> dict:
    """Per-layer figures of one traced round; times scaled to nominal seconds."""
    scale = rnd.scale
    values = {}
    for span, fields in LAYER_SPANS:
        for kind in fields:
            values[f"{span}.{kind}"] = (tracer.self_s[span] * scale if kind == "s"
                                        else tracer.calls[span])
    # source_codes_offline is a thin wrapper over itq_train, so its self time
    # is near zero; its inclusive time shows what the offline step costs
    values["lap_itq_plus.source_codes_offline.incl_s"] = scale * sum(
        tracer.durations["lap_itq_plus.source_codes_offline"])
    values["lap_itq_plus.box_qp_inner_steps"] = sum(
        len(trace) - 1 for trace, _ in rnd.box_qp_traces)
    for method in LEARNED:
        values[f"fit.sweeps.{METRIC_NAME[method]}"] = sum(
            len(fit.trace) for m, _, fit, _ in rnd.fits if m == method)
    values["fit.cap_hits"] = sum(1 for m, iters, fit, _ in rnd.fits
                                 if m in LEARNED and len(fit.trace) == iters)
    # float64 bytes of the dense db x db and q x db distance matrices
    values["evaluate.ground_truth.bytes_computed"] = sum(
        8 * (len(db) * len(db) + len(q) * len(db)) for db, q, _, _ in rnd.gts)
    return values


def check_round(rnd: Round, workload: Workload) -> list:
    """Independent checks of one round's outputs."""
    problems = list(rnd.problems)
    for database, queries, gt, _ in rnd.gts:
        problems += checks.check_ground_truth(database, queries, gt.r, gt.threshold,
                                              gt.relevant)
    for method, iters, fit, _ in rnd.fits:
        if method != "lsh":  # random hyperplanes are not a rotation
            problems += [f"{method}: {p}" for p in checks.check_rotation(fit.model.rotation)]
        if method in LEARNED:
            # lapitq+ records its objective before the rotation steps and
            # restarts the box QP every sweep, so only its length and
            # finiteness are checked
            problems += [f"{method}: {p}" for p in checks.check_trace(
                fit.trace, iters, monotone=method != "lapitq+")]
    for trace, max_len in rnd.box_qp_traces:  # lapitq+'s relaxed code steps
        problems += [f"box_qp_minimize: {p}" for p in checks.check_trace(trace, max_len)]
    for model, database, queries, gt, ks, report, _ in rnd.evals:
        db_signs = checks.sign_codes(model, database)
        q_signs = checks.sign_codes(model, queries)
        problems += [f"{model.method}: {p}" for p in checks.check_scores(
            db_signs, q_signs, gt.relevant, ks, report)]
        if model.method != "lsh":
            problems += [f"{model.method}: {p}" for p in checks.check_above_random(
                report.map, gt.relevant, len(database))]
    n_learned = len(LEARNED) * workload.splits
    if sum(1 for m, *_ in rnd.fits if m in LEARNED) != n_learned:
        problems.append(f"expected {n_learned} learned fits, saw {len(rnd.fits)}")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool, out_root: str) -> dict:
    """Set up, run rounds for `seconds`, check, and return the result record.

    With trace, rounds alternate untraced and traced, starting untraced, and
    at least one of each runs.
    """
    workload = WORKLOADS[name]
    out_dir = os.path.join(out_root, name)
    calibration = Calibration()
    calibration.sample()  # first call pays one-off library set-up
    setup_s = []
    last = calibration.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = setup(workload, seed, out_dir)
        elapsed = time.perf_counter() - start
        after = calibration.sample()
        setup_s.append(elapsed * Calibration.scale((last, after)))
        last = after

    round_fn = _bench_round if workload.through_run_bench else _direct_round
    rounds: list[Round] = []
    attempted = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or (
            trace and len(rounds) < 2):
        rnd = Round(traced=trace and len(rounds) % 2 == 1)
        rounds.append(rnd)
        first_sample = len(calibration.samples)
        calibration.sample()
        spent = calibration.spent
        # the tracer goes on first so that the probe's calibration samples
        # fall outside every traced span; traced rounds repeat no call
        with Recorder() as tracer, Probe(calibration, repeat=not rnd.traced) as probe:
            if rnd.traced:
                for span, _ in LAYER_SPANS:
                    tracer.wrap(span)
            _install_probe(probe, lambda: rounds[-1])
            t0 = time.perf_counter()
            attempted += round_fn(inputs, rnd)
            rnd.raw_wall_s = (time.perf_counter() - t0 - (calibration.spent - spent)
                              - probe.repeated_s)
        calibration.sample()
        rnd.scale = Calibration.scale(calibration.samples[first_sample:])
        # probed calls carry their own scale; the rest of the round takes
        # the round's mean one
        rnd.wall_s = probe.first_nominal_s + (rnd.raw_wall_s - probe.first_raw_s) * rnd.scale
        if rnd.traced:
            rnd.layers = _layer_metrics(tracer, rnd)
        if rnd is not rounds[0]:
            if rnd.outputs() != rounds[0].outputs():
                rounds[0].problems.append(f"round {len(rounds)} outputs differ from round 1")
            rnd.release()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_round(rounds[0], workload)
    failed = sum(r.failed_cells for r in rounds)
    plain = [r for r in rounds if not r.traced]
    if trace:
        traced = [r for r in rounds if r.traced]
        metrics = {key: statistics.median(r.layers[key] for r in traced)
                   for key in traced[0].layers}
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in plain))
    else:
        metrics = _end_to_end(rounds, statistics.median(setup_s), peak_rss_mb)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "rounds": rounds,
            "kernel_s": statistics.median(calibration.samples)}


def _end_to_end(rounds, setup_s, peak_rss_mb) -> dict:
    metrics = {"setup_s": setup_s,
               "wall_s": statistics.median(r.wall_s for r in rounds)}
    fit_s = {m: [] for m in LEARNED}
    gt_s, qps = [], []
    for rnd in rounds:
        for method, _, _, seconds in rnd.fits:
            if method in fit_s:
                fit_s[method].append(seconds)
        gt_s += [seconds for *_, seconds in rnd.gts]
        qps += [report.n_evaluated / seconds for *_, report, seconds in rnd.evals]
    for method in LEARNED:
        metrics[f"fit_s.{METRIC_NAME[method]}"] = statistics.median(fit_s[method])
    metrics["groundtruth_s"] = statistics.median(gt_s)
    metrics["queries_per_s"] = statistics.median(qps)
    for method in LEARNED:
        maps = [e[5].map for e in rounds[0].evals if e[0].method == method]
        metrics[f"map.{METRIC_NAME[method]}"] = float(np.mean(maps))
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics
