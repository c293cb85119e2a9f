import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transferhash import evaluate
from transferhash.codes import BinaryCodeMatrix, pack_signs, sgn
from transferhash.data import zero_center
from transferhash.errors import DataError
from transferhash.evaluate import (
    GroundTruth,
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
    db = BinaryCodeMatrix(signs)
    ranked = search(db, db.packed[1])
    assert ranked[0] == 1
    # rows 0 and 3 tie at distance 2, rows 1 and 2 tie at distance 3
    query = pack_signs(np.array([[1, -1, -1, 1]], dtype=np.int8))[0]
    ranked = search(db, query)
    dists = [hamming_distance(query, db.packed[i]) for i in range(4)]
    assert dists == [2, 3, 3, 2]
    assert list(ranked) == [0, 3, 1, 2]


def test_search_matches_naive_sort():
    rng = np.random.default_rng(5)
    db = BinaryCodeMatrix(sgn(rng.standard_normal((200, 24))))
    for _ in range(10):
        query = pack_signs(sgn(rng.standard_normal((1, 24))))[0]
        ranked = search(db, query)
        naive = sorted(range(200),
                       key=lambda i: (hamming_distance(query, db.packed[i]), i))
        assert list(ranked) == naive
    assert list(search(db, query)) == list(ranked)  # stable rerun


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


def test_ground_truth_rejects_query_width_mismatch():
    rng = np.random.default_rng(9)
    with pytest.raises(DataError, match=r"\(6, 4\).*\(20, 3\)"):
        ground_truth(rng.standard_normal((20, 3)), rng.standard_normal((6, 4)), r=3)


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
    gt = GroundTruth(relevant=relevant, threshold=1.0, r=3)
    report = evaluate_codes(db, queries, gt, ks=(1, 5))
    included = [rel for rel in relevant if len(rel)]
    assert report.n_evaluated == len(included)
    assert report.map == pytest.approx(
        sum(report.per_query_ap) / len(report.per_query_ap), abs=1e-12)


def test_evaluate_clamps_large_k_with_one_warning(caplog):
    rng = np.random.default_rng(12)
    db = rng.standard_normal((60, 6))
    rotation = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :4]
    model = simple_model(rotation, db.mean(axis=0))
    with caplog.at_level(logging.WARNING):
        report = evaluate_model(model, db, db, r=5, ks=(1, 500))
    assert [k for k, _ in report.precision_at_k] == [1, 60]
    assert report.n_evaluated == 60
    assert sum("clamped" in rec.message for rec in caplog.records) == 1


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


def reference_report(db, queries, gt, ks):
    """evaluate_codes as a per-query loop over search, average_precision and
    precision_at_k."""
    ks = [min(k, db.rows) for k in ks]
    per_ap, curve = [], {}
    for qrow, relevant in zip(queries.packed, gt.relevant):
        if len(relevant) == 0:
            continue
        ranked = search(db, qrow)
        per_ap.append(average_precision(ranked, relevant))
        for k_eff, prec in precision_at_k(ranked, relevant, ks):
            curve.setdefault(k_eff, []).append(prec)
    mean_ap = sum(per_ap) / len(per_ap) if per_ap else 0.0
    return mean_ap, per_ap, [(k, sum(v) / len(v)) for k, v in sorted(curve.items())]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_evaluate_codes_equals_per_query_loop(monkeypatch, data):
    bits = data.draw(st.integers(1, 130), label="bits")
    n = data.draw(st.integers(1, 40), label="database rows")
    n_queries = data.draw(st.integers(0, 12), label="queries")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # few distinct codes, so most distances tie
    pool = sgn(rng.standard_normal((data.draw(st.integers(1, 4), label="codes"), bits)))
    db = BinaryCodeMatrix(pool[rng.integers(0, len(pool), n)])
    queries = BinaryCodeMatrix(pool[rng.integers(0, len(pool), n_queries)])
    repeats = data.draw(st.booleans(), label="ids may repeat")
    relevant = tuple(rng.choice(n, size=rng.integers(0, n + 1), replace=repeats)
                     for _ in range(n_queries))
    ks = data.draw(st.lists(st.integers(1, n + 3), min_size=1, max_size=4), label="ks")
    block = data.draw(st.integers(1, 3 * n), label="block elements")
    monkeypatch.setattr(evaluate, "_SCORE_BLOCK_ELEMENTS", block)

    gt = GroundTruth(relevant=relevant, threshold=1.0, r=1)
    report = evaluate_codes(db, queries, gt, ks)
    mean_ap, per_ap, curve = reference_report(db, queries, gt, ks)
    assert report.map == mean_ap
    assert report.per_query_ap == per_ap
    assert report.precision_at_k == curve
    assert report.n_evaluated == len(per_ap)
    assert report.n_queries == n_queries


def dense_ground_truth(db, queries, r):
    """The threshold protocol over whole db x db and q x db distance matrices."""
    def distances(a, b):
        sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
              - 2.0 * (a @ b.T))
        return np.sqrt(np.clip(sq, 0.0, None))

    inner = distances(db, db)
    np.fill_diagonal(inner, np.inf)
    threshold = float(np.partition(inner, r - 1, axis=1)[:, r - 1].mean())
    return threshold, [np.flatnonzero(row <= threshold) for row in distances(queries, db)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_ground_truth_in_blocks_equals_dense_formula(monkeypatch, data):
    # small integer features keep every product and sum exact, so the
    # result cannot depend on how BLAS groups the terms of a row block
    n = data.draw(st.integers(2, 40), label="database rows")
    d = data.draw(st.integers(1, 6), label="columns")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    db = rng.integers(-3, 4, (n, d)).astype(np.float64)
    n_queries = data.draw(st.integers(0, 12), label="queries")
    queries = rng.integers(-3, 4, (n_queries, d)).astype(np.float64)
    r = data.draw(st.integers(1, n - 1), label="r")
    block = data.draw(st.integers(1, 3 * n), label="block elements")
    monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", block)

    gt = ground_truth(db, queries, r)
    threshold, relevant = dense_ground_truth(db, queries, r)
    assert gt.threshold == threshold
    assert len(gt.relevant) == len(relevant)
    for got, expected in zip(gt.relevant, relevant):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_ground_truth_in_blocks_close_to_dense_on_real_features(monkeypatch):
    # real-valued products may round differently in a row block than in
    # the whole matrix: the threshold may move by rounding, and a row may
    # change sides only within rounding of it
    rng = np.random.default_rng(13)
    db = rng.standard_normal((300, 33)) * 4.0
    queries = rng.standard_normal((70, 33)) * 4.0
    threshold, relevant = dense_ground_truth(db, queries, 20)
    monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", 7 * 300)
    gt = ground_truth(db, queries, 20)
    assert gt.threshold == pytest.approx(threshold, rel=1e-12)
    cross = np.sqrt(((queries[:, None, :] - db[None, :, :]) ** 2).sum(axis=2))
    for q, (got, expected) in enumerate(zip(gt.relevant, relevant)):
        moved = np.setxor1d(got, expected)
        assert np.all(np.abs(cross[q, moved] - threshold) <= 1e-9 * threshold)


def codes_and_truth(rng, n_db, n_queries, gt_db_rows=None):
    """Codes of n_db database rows and the queries, with ground truth
    built on the first gt_db_rows database rows (default n_db)."""
    features = rng.standard_normal((max(n_db, gt_db_rows or 0), 6))
    queries = rng.standard_normal((n_queries, 6))
    model = simple_model(np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :5])
    gt = ground_truth(features[:gt_db_rows or n_db], queries, 5)
    return encode(model, features[:n_db]), encode(model, queries), gt


def test_evaluate_codes_rejects_truth_for_other_queries():
    rng = np.random.default_rng(14)
    db_codes, _, gt = codes_and_truth(rng, 200, 10)
    queries = BinaryCodeMatrix(sgn(rng.standard_normal((50, 5))))
    with pytest.raises(DataError, match=r"10 relevant sets for 50 queries"):
        evaluate_codes(db_codes, queries, gt, ks=(1, 5))


def test_evaluate_codes_rejects_truth_for_larger_database():
    rng = np.random.default_rng(15)
    db_codes, query_codes, gt = codes_and_truth(rng, 100, 20, gt_db_rows=200)
    assert max(int(rel.max()) for rel in gt.relevant if rel.size) >= 100
    with pytest.raises(DataError, match=r"100-row database"):
        evaluate_codes(db_codes, query_codes, gt, ks=(1, 5))


def test_evaluate_codes_keeps_value_errors():
    rng = np.random.default_rng(16)
    db_codes, query_codes, gt = codes_and_truth(rng, 30, 4)
    with pytest.raises(ValueError, match="K must be >= 1"):
        evaluate_codes(db_codes, query_codes, gt, ks=(5, 0))
    narrow = BinaryCodeMatrix(query_codes.signs[:, :4])
    with pytest.raises(ValueError, match="bits"):
        evaluate_codes(db_codes, narrow, gt, ks=(1,))


def test_ground_truth_rejects_values_whose_squares_overflow():
    db = np.ones((4, 3))
    db[2, 1] = 1e300
    with pytest.raises(DataError, match="overflows"):
        ground_truth(db, np.ones((2, 3)), r=2)


@pytest.mark.parametrize("r", [0, -3])
def test_ground_truth_rejects_rank_below_one(r):
    db = np.random.default_rng(0).standard_normal((20, 3))
    with pytest.raises(ValueError, match="r must be >= 1"):
        ground_truth(db, db[:2], r=r)


@pytest.mark.parametrize("n, block", [(300, 7 * 300), (257, 1 << 21), (40, 40)])
def test_ground_truth_threshold_equals_distances_partitioned_per_block(monkeypatch, n, block):
    # the square root of the r-th smallest square is the r-th smallest
    # distance, bit for bit, so it may be taken after the partition
    rng = np.random.default_rng(n)
    db = rng.standard_normal((n, 33)) * 4.0
    r = 20
    kth = []
    for lo, hi in evaluate._row_blocks(n, n, block):
        a = db[lo:hi]
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(db * db, axis=1)[None, :] - 2.0 * (a @ db.T)
        inner = np.sqrt(np.clip(sq, 0.0, None))
        inner[np.arange(hi - lo), lo + np.arange(hi - lo)] = np.inf
        kth.append(np.partition(inner, r - 1, axis=1)[:, r - 1])
    monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", block)
    assert ground_truth(db, db[:5], r).threshold == float(np.concatenate(kth).mean())
