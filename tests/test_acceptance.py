"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failed assertion means the criterion did not hold.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from transferhash.bench import run_bench
from transferhash.codes import BinaryCodeMatrix, sgn
from transferhash.config import RunConfig
from transferhash.evaluate import average_precision, ground_truth, precision_at_k
from transferhash.itq import procrustes, random_orthonormal
from transferhash.itq_plus import (
    alternating_solve,
    balanced_step,
    itq_plus_train,
    sign_step,
    update_b_balanced,
)
from transferhash.lap_itq_plus import (
    box_qp_minimize,
    knn_hamming_graph,
    lap_itq_plus_train,
    laplacian,
)
from transferhash.synth import make_two_view_clusters


def two_view(n, d_t, d_s, seed, latent=6, noise=0.3):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, latent))
    x_t = z @ rng.standard_normal((latent, d_t)) + noise * rng.standard_normal((n, d_t))
    x_s = z @ rng.standard_normal((latent, d_s)) + noise * rng.standard_normal((n, d_s))
    return x_t - x_t.mean(0), x_s - x_s.mean(0)


def report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_1_objective_monotonicity():
    start = time.perf_counter()
    x_t, x_s = two_view(200, 16, 12, seed=11)
    state = itq_plus_train(x_t, x_s, 8, 0.01, iters=150, seed=0, tol=0)
    trace = np.asarray(state.objective_trace)
    assert len(trace) == 150
    assert np.all(np.diff(trace) <= 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, "objective monotonicity")


def brute_force_balanced(scores):
    n, c = scores.shape
    positives = (n + 1) // 2
    out = np.empty((n, c), dtype=np.int8)
    for j in range(c):
        best_val, best_set = -np.inf, None
        for chosen in combinations(range(n), positives):
            val = scores[list(chosen), j].sum()
            if val > best_val:
                best_val, best_set = val, chosen
        column = np.full(n, -1, dtype=np.int8)
        column[list(best_set)] = 1
        out[:, j] = column
    return out


def test_criterion_2_code_step_oracle_equivalence():
    rng = np.random.default_rng(22)
    cases = 0
    while cases < 100:
        n = int(rng.choice([4, 6, 8]))
        c = int(rng.choice([1, 2]))
        scores = rng.standard_normal((n, c))
        assert np.array_equal(update_b_balanced(scores).signs,
                              brute_force_balanced(scores))
        cases += 1
    report(2, "code-step oracle equivalence")


def test_criterion_3_procrustes_optimality():
    rng = np.random.default_rng(33)
    shapes = [(6, 3), (5, 2), (8, 4), (4, 4), (10, 3)]
    candidates = {
        shape: np.stack([random_orthonormal(shape[0], shape[1], 50_000 + i)
                         for i in range(1000)])
        for shape in shapes
    }
    for case in range(50):
        d, c = shapes[case % len(shapes)]
        n = int(rng.integers(8, 30))
        x = rng.standard_normal((n, d))
        a = rng.standard_normal((n, c))
        r = procrustes(a, x)
        assert np.abs(r.T @ r - np.eye(c)).max() < 1e-8
        best = float(np.sum((x @ r - a) ** 2))
        objs = np.sum((np.einsum("nd,qdc->qnc", x, candidates[(d, c)]) - a) ** 2,
                      axis=(1, 2))
        assert best <= objs.min() + 1e-9
    report(3, "procrustes optimality")


def test_criterion_4_reduction_identities():
    x_t, x_s = two_view(90, 12, 10, seed=44)
    for seed in (0, 1, 2):
        solve = alternating_solve(x_t, None, 6, 0.0, 40, seed, balanced_step, tol=0)
        codes_itq, losses = solve.codes, solve.objective_trace
        state = itq_plus_train(x_t, x_s, 6, 0.0, iters=40, seed=seed, tol=0)
        assert abs(state.objective_trace[-1] - losses[-1]) <= 1e-9
        assert np.array_equal(codes_itq.signs, state.codes.signs)
    for seed in (0, 1, 2):
        codes_sign = alternating_solve(x_t, x_s, 6, 0.05, 30, seed, sign_step, tol=0).codes
        state_lap = lap_itq_plus_train(x_t, x_s, None, 6, 0.05, 0.0, 5,
                                       iters=30, seed=seed, tol=0)
        assert np.array_equal(codes_sign.signs, state_lap.codes.signs)
    report(4, "reduction identities")


def test_criterion_5_laplacian_correctness():
    rng = np.random.default_rng(55)
    checks = 0
    while checks < 100:
        n = int(rng.integers(8, 25))
        k = int(rng.integers(1, min(6, n - 1)))
        codes = BinaryCodeMatrix(sgn(rng.standard_normal((n, 16))))
        graph = knn_hamming_graph(codes, k)
        lap = laplacian(graph)
        assert np.abs(lap.csr.toarray().sum(axis=1)).max() < 1e-9
        x = rng.standard_normal(n)
        quad = float(x @ lap.csr.toarray() @ x)
        edge_sum = 0.5 * float(
            (graph.toarray() * (x[:, None] - x[None, :]) ** 2).sum())
        assert abs(quad - edge_sum) <= 1e-9 * max(1.0, abs(edge_sum))
        checks += 1
        k_mat = rng.standard_normal((4, n))
        _, trace = box_qp_minimize(k_mat, lap, 0.1)
        assert np.all(np.diff(trace) <= 1e-9)
    report(5, "laplacian correctness")


def naive_average_precision(ranked_ids, relevant_set):
    relevant = set(int(i) for i in relevant_set)
    if not relevant:
        return 0.0
    total, hits = 0.0, 0
    for rank, rid in enumerate(ranked_ids, start=1):
        if int(rid) in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def test_criterion_6_retrieval_metric_oracles():
    # fixed hand-computed examples
    db = np.array([[0.0], [1.0], [2.0]])
    gt = ground_truth(db, np.array([[0.5]]), r=1)
    assert gt.threshold == 1.0
    assert list(gt.relevant[0]) == [0, 1]
    assert average_precision([10, 11, 12], {10, 12}) == (1.0 / 1.0 + 2.0 / 3.0) / 2.0
    assert average_precision([1, 2], {1, 2}) == 1.0
    assert precision_at_k([1, 2, 3, 4], {1, 3}, [4]) == [(4, 0.5)]
    # naive reimplementation on random instances
    rng = np.random.default_rng(66)
    for _ in range(50):
        n = 200
        ranked = rng.permutation(n)
        relevant = set(rng.choice(n, size=int(rng.integers(1, 50)),
                                  replace=False).tolist())
        assert average_precision(ranked, relevant) == naive_average_precision(ranked, relevant)
        for k in (1, 10, 100):
            (k_eff, prec), = precision_at_k(ranked, relevant, [k])
            naive = len(set(ranked[:k].tolist()) & relevant) / k
            assert k_eff == k and prec == naive
    report(6, "retrieval metrics oracle")


def test_criterion_7_lsh_collision_law():
    from transferhash.baselines import lsh_fit
    from transferhash.evaluate import encode
    from transferhash.model import (CenteringInfo, HashModel, LinearProjection,
                                    default_hyperparams)

    start = time.perf_counter()
    # a zero mean: the model encodes the unit rows below as given
    model = HashModel("lsh", CenteringInfo(np.zeros(24)), LinearProjection.identity(24),
                      lsh_fit(24, 512, 77), 512, default_hyperparams(seed=77))
    rng = np.random.default_rng(78)
    for theta in (np.pi / 6, np.pi / 2, 2 * np.pi / 3):
        first = rng.standard_normal((2000, 24))
        first /= np.linalg.norm(first, axis=1, keepdims=True)
        other = rng.standard_normal((2000, 24))
        other -= np.sum(other * first, axis=1, keepdims=True) * first
        other /= np.linalg.norm(other, axis=1, keepdims=True)
        second = np.cos(theta) * first + np.sin(theta) * other
        codes_a = encode(model, first)
        codes_b = encode(model, second)
        normalized = np.bitwise_count(codes_a.packed ^ codes_b.packed).sum(axis=1) / 512.0
        assert abs(float(normalized.mean()) - theta / np.pi) < 0.03
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(7, "lsh collision law")


def test_criterion_8_directional_transfer_effect(tmp_path):
    start = time.perf_counter()
    target, source, _ = make_two_view_clusters(
        1250, 64, 40, clusters=5, noise=3.0, seed=0,
        source_noise=0.1, latent_dim=16, center_spread=5.0)
    config = RunConfig(methods=("itq", "itq+", "lapitq+"), bits=(32,),
                       alpha=0.1, test_fraction=0.2, lambda1=0.3,
                       lambda2=0.01, k_graph=5, iters=150,
                       seeds=tuple(range(10)), r_groundtruth=10, ks=(10,))
    results = run_bench(config, target, source, tmp_path / "bench")
    split0 = [key for key in results][0]
    assert results[split0] is not None
    means = {}
    for method in config.methods:
        values = [results[(method, 32, seed)].map for seed in config.seeds]
        assert all(v is not None for v in values)
        means[method] = float(np.mean(values))
    # n = 100 correspondences, n_S = 900 by construction
    from transferhash.data import make_split

    split = make_split(target, source, 0.1, 0.2, 0)
    assert split.n_corr == 100 and split.n_extra == 900
    assert means["itq+"] >= means["itq"], means
    assert means["lapitq+"] >= means["itq+"] - 0.005, means
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(8, f"directional transfer effect (itq {means['itq']:.3f} <= "
              f"itq+ {means['itq+']:.3f} ~ lapitq+ {means['lapitq+']:.3f})")


def test_criterion_9_code_step_complexity():
    rng = np.random.default_rng(99)
    timings = {}
    for n in (2000, 4000):
        scores = rng.standard_normal((n, 32))
        update_b_balanced(scores)  # warm up
        samples = []
        for _ in range(15):
            t0 = time.perf_counter()
            update_b_balanced(scores)
            samples.append(time.perf_counter() - t0)
        timings[n] = float(np.median(samples))
    ratio = timings[4000] / timings[2000]
    assert ratio <= 3.0, f"ratio {ratio:.2f}"
    report(9, f"code-step complexity (x{ratio:.2f} for doubled n)")


def test_criterion_10_end_to_end_reproducibility(tmp_path):
    target, source, _ = make_two_view_clusters(300, 16, 12, clusters=3,
                                               noise=0.5, seed=3)
    config = RunConfig(methods=("itq", "itq+"), bits=(8,), alpha=0.5,
                       test_fraction=0.2, lambda1=0.01, iters=30,
                       seeds=(0, 1), r_groundtruth=5, ks=(1, 5))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_bench(config, target, source, out_a)
    run_bench(config, target, source, out_b)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(10, "end-to-end reproducibility")
