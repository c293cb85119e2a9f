"""Each benchmark check accepts the program's output and rejects a wrong one."""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

import transferhash.itq
import transferhash.lap_itq_plus
from transferhash.evaluate import encode, evaluate_model, ground_truth
from transferhash.codes import BinaryCodeMatrix
from transferhash.itq import itq_train, random_orthonormal
from transferhash.lap_itq_plus import knn_hamming_graph, laplacian
from transferhash.model import CenteringInfo, HashModel, LinearProjection

import checks
from layers import Probe, Recorder


@pytest.fixture(scope="module")
def retrieval():
    rng = np.random.default_rng(5)
    centers = 3.0 * rng.standard_normal((4, 12))
    db = centers[rng.integers(0, 4, 150)] + rng.standard_normal((150, 12))
    queries = centers[rng.integers(0, 4, 25)] + rng.standard_normal((25, 12))
    _, rotation, _ = itq_train(db - db.mean(axis=0), 8, iters=5, seed=0)
    model = HashModel("itq", CenteringInfo(db.mean(axis=0)), LinearProjection.identity(12),
                      rotation, 8)
    gt = ground_truth(db, queries, 5)
    report = evaluate_model(model, db, queries, 5, (1, 5, 20), gt=gt)
    return db, queries, model, gt, report


def test_ground_truth_check_accepts_program_output(retrieval):
    db, queries, _, gt, _ = retrieval
    assert checks.check_ground_truth(db, queries, gt.r, gt.threshold, gt.relevant) == []


def test_ground_truth_check_rejects_perturbed_threshold(retrieval):
    db, queries, _, gt, _ = retrieval
    problems = checks.check_ground_truth(db, queries, gt.r, gt.threshold * (1 + 1e-6),
                                         gt.relevant)
    assert any("threshold" in p for p in problems)


def test_ground_truth_check_rejects_missing_relevant_row(retrieval):
    db, queries, _, gt, _ = retrieval
    q = next(i for i, rel in enumerate(gt.relevant) if len(rel) > 1)
    nearest = int(np.argmin(np.linalg.norm(db - queries[q], axis=1)))
    relevant = list(gt.relevant)
    relevant[q] = np.setdiff1d(relevant[q], [nearest])
    assert checks.check_ground_truth(db, queries, gt.r, gt.threshold, relevant)


def test_sign_codes_match_encode(retrieval):
    db, _, model, _, _ = retrieval
    assert np.array_equal(checks.sign_codes(model, db), encode(model, db).signs)


def test_score_check_accepts_program_report(retrieval):
    db, queries, model, gt, report = retrieval
    assert checks.check_scores(checks.sign_codes(model, db), checks.sign_codes(model, queries),
                               gt.relevant, (1, 5, 20), report) == []


def test_score_check_rejects_shuffled_ranking(retrieval):
    db, queries, model, gt, report = retrieval
    shuffled = np.random.default_rng(0).permutation(len(db))
    problems = checks.check_scores(checks.sign_codes(model, db)[shuffled],
                                   checks.sign_codes(model, queries), gt.relevant,
                                   (1, 5, 20), report)
    assert any("MAP" in p for p in problems)


def test_score_check_rejects_wrong_map(retrieval):
    db, queries, model, gt, report = retrieval
    problems = checks.check_scores(checks.sign_codes(model, db), checks.sign_codes(model, queries),
                                   gt.relevant, (1, 5, 20), replace(report, map=report.map + 1e-6))
    assert any("MAP" in p for p in problems)


def test_random_ranking_map_matches_enumeration():
    n, relevant = 6, (0, 3)
    aps = []
    for order in permutations(range(n)):
        hits = np.isin(order, relevant)
        ranks = np.flatnonzero(hits) + 1
        aps.append(np.mean(np.cumsum(hits)[ranks - 1] / ranks))
    assert checks.random_ranking_map([relevant], n) == pytest.approx(np.mean(aps), rel=1e-12)


def test_above_random_check(retrieval):
    db, _, _, gt, report = retrieval
    baseline = checks.random_ranking_map(gt.relevant, len(db))
    assert checks.check_above_random(report.map, gt.relevant, len(db)) == []
    assert checks.check_above_random(baseline, gt.relevant, len(db))


def test_rotation_check():
    rotation = random_orthonormal(16, 8, 0)
    assert checks.check_rotation(rotation) == []
    bent = rotation.copy()
    bent[0, 0] += 1e-6
    assert checks.check_rotation(bent)
    assert checks.check_rotation(rotation.T)


def test_trace_check():
    assert checks.check_trace([5.0, 4.0, 4.0, 3.5], 4) == []
    assert checks.check_trace([5.0, 4.0, 4.1], 4)
    assert checks.check_trace([5.0, 4.0, 4.1], 4, monotone=False) == []
    assert checks.check_trace([5.0, np.nan], 4)
    assert checks.check_trace([5.0, 4.0, 3.0], 2)
    assert checks.check_trace([], 2)


def test_recorder_reports_self_time_and_restores():
    original = transferhash.itq.procrustes
    x = np.random.default_rng(1).standard_normal((40, 10))
    with Recorder() as recorder:
        recorder.wrap("itq.procrustes")
        recorder.wrap("itq.itq_train")
        _, _, losses = itq_train(x - x.mean(axis=0), 6, iters=4, seed=0, tol=0)
        assert transferhash.itq.procrustes is not original
    assert transferhash.itq.procrustes is original
    assert recorder.calls["itq.itq_train"] == 0  # called through the test's own import
    assert recorder.calls["itq.procrustes"] == len(losses) == 4
    with Recorder() as recorder:
        recorder.wrap("itq.procrustes")
        recorder.wrap("itq.itq_train")
        transferhash.itq.itq_train(x - x.mean(axis=0), 6, iters=4, seed=0, tol=0)
    total = recorder.durations["itq.itq_train"][0]
    inner = sum(recorder.durations["itq.procrustes"])
    assert recorder.self_s["itq.itq_train"] == pytest.approx(total - inner)


def test_box_qp_traces_seen_through_watch_pass_and_a_rising_one_fails():
    rng = np.random.default_rng(2)
    k_mat = rng.standard_normal((8, 30))
    lap = laplacian(knn_hamming_graph(BinaryCodeMatrix(np.where(k_mat.T >= 0, 1, -1)), 3))
    traces = []
    with Probe(calibration=None) as probe:
        probe.watch("lap_itq_plus.box_qp_minimize",
                    lambda args, kwargs, result: traces.append(result[1]))
        transferhash.lap_itq_plus.update_b_relaxed(k_mat, lap, 0.5, 20)
    assert len(traces) == 1 and len(traces[0]) > 2
    assert checks.check_trace(traces[0], 21) == []
    assert checks.check_trace(traces[0][::-1], 21)
