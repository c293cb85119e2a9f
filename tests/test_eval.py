import logging

import numpy as np
import pytest

from transferhash.codes import BinaryCodeMatrix, pack_signs, sgn
from transferhash.data import zero_center
from transferhash.errors import DataError
from transferhash.evaluate import (
    HammingIndex,
    average_precision,
    encode,
    evaluate_codes,
    evaluate_model,
    ground_truth,
    hamming_distance,
    precision_at_k,
    search,
    write_report_keyvalues,
)
from transferhash.itq import itq_train
from transferhash.model import CenteringInfo, HashModel, LinearProjection


def naive_average_precision(ranked_ids, relevant_set):
    relevant = set(int(i) for i in relevant_set)
    if not relevant:
        return 0.0
    total = 0.0
    hits = 0
    for rank, rid in enumerate(ranked_ids, start=1):
        if int(rid) in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def naive_precision_at_k(ranked_ids, relevant_set, k):
    top = list(ranked_ids)[:k]
    return len(set(int(i) for i in top) & set(int(i) for i in relevant_set)) / k


def simple_model(rotation, mean=None):
    d = rotation.shape[0]
    return HashModel(
        method="itq",
        centering=CenteringInfo(np.zeros(d) if mean is None else mean),
        preprocessing=LinearProjection.identity(d),
        rotation=rotation,
        bits=rotation.shape[1],
    )


def test_encode_closure_of_code_step():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((50, 8)) + 3.0
    centered, info = zero_center(raw)
    _, rotation, _ = itq_train(centered, 4, iters=20, seed=0)
    refreshed = BinaryCodeMatrix(sgn(centered @ rotation))  # one more code step
    model = simple_model(rotation, info.mean)
    assert np.array_equal(encode(model, raw).signs, refreshed.signs)


def test_encode_duplicate_rows_equal_codes():
    rng = np.random.default_rng(1)
    rotation = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :3]
    model = simple_model(rotation)
    row = rng.standard_normal(6)
    codes = encode(model, np.stack([row, row]))
    assert np.array_equal(codes.signs[0], codes.signs[1])


def test_encode_dimension_mismatch():
    model = simple_model(np.eye(4)[:, :2])
    with pytest.raises(DataError):
        encode(model, np.zeros((3, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_encode_rejects_non_finite_rows(bad):
    model = simple_model(np.eye(4)[:, :2])
    x = np.ones((3, 4))
    x[1] = bad
    with pytest.raises(DataError):
        encode(model, x)


def test_hamming_identical_and_complement():
    rng = np.random.default_rng(2)
    signs = sgn(rng.standard_normal((1, 32)))
    packed = pack_signs(signs)
    assert hamming_distance(packed[0], packed[0]) == 0
    assert hamming_distance(packed[0], pack_signs(-signs)[0]) == 32


def test_hamming_matches_per_bit_loop():
    rng = np.random.default_rng(3)
    for c in (7, 64, 130):
        a = sgn(rng.standard_normal((1, c)))
        b = sgn(rng.standard_normal((1, c)))
        expected = int(np.sum(a != b))
        assert hamming_distance(pack_signs(a)[0], pack_signs(b)[0]) == expected


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64))


def test_hamming_metric_axioms():
    rng = np.random.default_rng(4)
    codes = pack_signs(sgn(rng.standard_normal((30, 48))))
    for _ in range(100):
        i, j, k = rng.integers(0, 30, 3)
        dij = hamming_distance(codes[i], codes[j])
        assert dij == hamming_distance(codes[j], codes[i])
        assert (dij == 0) == bool(np.array_equal(codes[i], codes[j]))
        assert dij <= hamming_distance(codes[i], codes[k]) + hamming_distance(codes[k], codes[j])


def test_search_exact_match_first_and_tie_rule():
    signs = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [-1, 1, 1, 1], [-1, -1, -1, -1]],
                     dtype=np.int8)
    index = HammingIndex(BinaryCodeMatrix(signs))
    ranked = search(index, index.codes.packed[1])
    assert ranked[0] == 1
    # ids 0 and 3 tie at distance 2, ids 1 and 2 tie at distance 3
    query = pack_signs(np.array([[1, -1, -1, 1]], dtype=np.int8))[0]
    ranked = search(index, query)
    dists = [hamming_distance(query, index.codes.packed[i]) for i in range(4)]
    assert dists == [2, 3, 3, 2]
    assert list(ranked) == [0, 3, 1, 2]


def test_search_matches_naive_sort():
    rng = np.random.default_rng(5)
    db = BinaryCodeMatrix(sgn(rng.standard_normal((200, 24))))
    index = HammingIndex(db)
    for _ in range(10):
        query = pack_signs(sgn(rng.standard_normal((1, 24))))[0]
        ranked = search(index, query)
        naive = sorted(range(200),
                       key=lambda i: (hamming_distance(query, db.packed[i]), i))
        assert list(ranked) == naive
    assert list(search(index, query)) == list(ranked)  # stable rerun


def test_ground_truth_collinear_example():
    db = np.array([[0.0], [1.0], [2.0]])
    queries = np.array([[0.5]])
    gt = ground_truth(db, queries, r=1)
    assert gt.threshold == pytest.approx(1.0, abs=1e-12)
    assert list(gt.relevant[0]) == [0, 1]


def test_ground_truth_identical_points():
    db = np.zeros((5, 2))
    gt = ground_truth(db, np.zeros((2, 2)), r=3)
    assert gt.threshold == 0.0
    for rel in gt.relevant:
        assert list(rel) == [0, 1, 2, 3, 4]


def test_ground_truth_r_clamped_with_warning(caplog):
    db = np.random.default_rng(6).standard_normal((4, 2))
    with caplog.at_level(logging.WARNING):
        gt = ground_truth(db, db[:1], r=50)
    assert gt.r == 3
    assert any("clamped" in rec.message for rec in caplog.records)


def test_ground_truth_permutation_symmetry():
    rng = np.random.default_rng(7)
    db = rng.standard_normal((30, 4))
    queries = rng.standard_normal((5, 4))
    gt = ground_truth(db, queries, r=5)
    perm = rng.permutation(30)
    gt_perm = ground_truth(db[perm], queries, r=5)
    assert gt_perm.threshold == pytest.approx(gt.threshold, abs=1e-12)
    inverse = np.argsort(perm)
    for rel, rel_perm in zip(gt.relevant, gt_perm.relevant):
        assert set(rel.tolist()) == set(perm[rel_perm].tolist()) or \
            set(rel.tolist()) == {int(perm[i]) for i in rel_perm}


def test_ground_truth_query_averaging_flag():
    rng = np.random.default_rng(8)
    db = rng.standard_normal((20, 3))
    queries = rng.standard_normal((6, 3)) + 5.0
    gt_db = ground_truth(db, queries, r=3, average_over="database")
    gt_q = ground_truth(db, queries, r=3, average_over="queries")
    assert gt_q.threshold > gt_db.threshold  # shifted queries sit far away


def test_average_precision_hand_example():
    # ranking hits at positions 1 and 3, two relevant items
    assert average_precision([10, 11, 12], {10, 12}) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_average_precision_perfect_and_empty():
    assert average_precision([1, 2, 3], {1, 2, 3}) == 1.0
    assert average_precision([1, 2, 3], set()) == 0.0


def test_average_precision_full_list_counts_late_hits():
    ap = average_precision(list(range(100)), {99})
    assert ap == pytest.approx(1.0 / 100.0, abs=1e-15)


def test_precision_at_k_examples(caplog):
    assert precision_at_k([5, 6, 7], {5}, [1]) == [(1, 1.0)]
    assert precision_at_k([1, 2, 3, 4], {1, 3}, [4]) == [(4, 0.5)]
    with caplog.at_level(logging.WARNING):
        result = precision_at_k([1, 2], {1}, [10])
    assert result == [(2, 0.5)]
    assert any("clamped" in rec.message for rec in caplog.records)
    with pytest.raises(ValueError):
        precision_at_k([1], {1}, [0])


def test_metrics_match_naive_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = 200
        ranked = rng.permutation(n)
        relevant = set(rng.choice(n, size=rng.integers(1, 40), replace=False).tolist())
        assert average_precision(ranked, relevant) == naive_average_precision(ranked, relevant)
        for k in (1, 7, 50):
            (k_eff, prec), = precision_at_k(ranked, relevant, [k])
            assert k_eff == k and prec == naive_precision_at_k(ranked, relevant, k)


def test_evaluate_codes_map_is_mean_of_per_query():
    rng = np.random.default_rng(10)
    db = BinaryCodeMatrix(sgn(rng.standard_normal((40, 16))))
    queries = BinaryCodeMatrix(sgn(rng.standard_normal((12, 16))))
    relevant = tuple(
        np.sort(rng.choice(40, size=rng.integers(0, 6), replace=False))
        for _ in range(12)
    )
    from transferhash.evaluate import GroundTruth

    gt = GroundTruth(relevant=relevant, threshold=1.0, r=3)
    report = evaluate_codes(db, queries, gt, ks=(1, 5))
    included = [rel for rel in relevant if len(rel)]
    assert report.n_evaluated == len(included)
    assert report.map == pytest.approx(
        sum(report.per_query_ap) / len(report.per_query_ap), abs=1e-12)


def test_evaluate_model_and_keyvalue_output(tmp_path):
    rng = np.random.default_rng(11)
    db = rng.standard_normal((60, 6))
    queries = rng.standard_normal((10, 6))
    rotation = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :4]
    model = simple_model(rotation, db.mean(axis=0))
    report = evaluate_model(model, db, queries, r=5, ks=(1, 5, 10), seed=3, alpha=0.5)
    assert 0.0 <= report.map <= 1.0
    assert all(0.0 <= p <= 1.0 for _, p in report.precision_at_k)
    path = tmp_path / "report.kv"
    write_report_keyvalues(report, path)
    lines = dict(line.split("=", 1) for line in path.read_text().splitlines())
    assert float(lines["map"]) == report.map
    assert int(lines["seed"]) == 3
