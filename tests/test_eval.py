import logging
import math
import tracemalloc

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
from transferhash.synth import make_two_view_clusters


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
    # above 255 bits the distances are summed as uint16, below as uint8
    bits = data.draw(st.integers(1, 130) | st.integers(256, 320), label="bits")
    n = data.draw(st.integers(1, 40), label="database rows")
    n_queries = data.draw(st.integers(0, 12), label="queries")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # few distinct codes, so most distances tie
    pool = sgn(rng.standard_normal((data.draw(st.integers(1, 4), label="codes"), bits)))
    db = BinaryCodeMatrix(pool[rng.integers(0, len(pool), n)])
    queries = BinaryCodeMatrix(pool[rng.integers(0, len(pool), n_queries)])
    repeats = data.draw(st.booleans(), label="ids may repeat")
    # runs of empty sets leave whole score blocks (or all of them) empty
    kinds = data.draw(st.lists(st.sampled_from(["random", "whole database", "empty"]),
                               min_size=n_queries, max_size=n_queries), label="sets")
    relevant = tuple(
        rng.permutation(n) if kind == "whole database"
        else np.empty(0, dtype=np.intp) if kind == "empty"
        else rng.choice(n, size=rng.integers(0, n + 1), replace=repeats)
        for kind in kinds)
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


@pytest.mark.parametrize("block", [1, 7 * 2000, 1 << 21])
def test_evaluate_codes_equals_per_query_loop_on_encoded_features(monkeypatch, block):
    # real codes and real ground truth: many distinct distances, and relevant
    # sets of very different sizes
    target, _, _ = make_two_view_clusters(2060, 24, 4, clusters=5, noise=3.0, seed=5)
    database, queries = target[:2000], target[2000:]
    rotation = np.linalg.qr(np.random.default_rng(5).standard_normal((24, 24)))[0][:, :20]
    model = simple_model(rotation, database.mean(axis=0))
    db, query_codes = encode(model, database), encode(model, queries)
    gt = ground_truth(database, queries, 50)
    sizes = [rel.size for rel in gt.relevant]
    assert min(sizes) < 50 < max(sizes)
    monkeypatch.setattr(evaluate, "_SCORE_BLOCK_ELEMENTS", block)
    ks = (1, 10, 100, 5000)
    report = evaluate_codes(db, query_codes, gt, ks)
    mean_ap, per_ap, curve = reference_report(db, query_codes, gt, ks)
    assert report.map == mean_ap
    assert report.per_query_ap == per_ap
    assert report.precision_at_k == curve


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


@pytest.mark.parametrize("ks", [(1.5,), (1, 10, 2.5), (float("nan"),), (float("inf"),),
                                ("5",)])
def test_evaluate_codes_rejects_a_k_that_is_not_whole(ks):
    rng = np.random.default_rng(17)
    db_codes, query_codes, gt = codes_and_truth(rng, 30, 4)
    with pytest.raises(ValueError, match="K must be a whole number"):
        evaluate_codes(db_codes, query_codes, gt, ks=ks)


def test_evaluate_codes_takes_whole_float_ks_as_integers():
    rng = np.random.default_rng(17)
    db_codes, query_codes, gt = codes_and_truth(rng, 30, 4)
    as_float = evaluate_codes(db_codes, query_codes, gt, ks=(1.0, np.float64(5)))
    as_int = evaluate_codes(db_codes, query_codes, gt, ks=(1, 5))
    assert as_float.precision_at_k == as_int.precision_at_k
    assert all(type(k) is int for k, _ in as_float.precision_at_k)


@pytest.mark.parametrize("rows", [[1.7, 2.2], [0.0, np.nan], [3.0, np.inf], [1e30]])
def test_evaluate_codes_rejects_rows_that_are_not_whole(rows):
    rng = np.random.default_rng(18)
    db_codes, query_codes, _ = codes_and_truth(rng, 30, 2)
    gt = GroundTruth(relevant=(np.array([0, 4]), np.array(rows)), threshold=1.0, r=1)
    with pytest.raises(DataError, match="not whole numbers"):
        evaluate_codes(db_codes, query_codes, gt, ks=(1, 5))


def test_evaluate_codes_accepts_whole_float_rows_and_empty_lists():
    rng = np.random.default_rng(18)
    db_codes, query_codes, _ = codes_and_truth(rng, 30, 3)
    as_float = GroundTruth(relevant=(np.array([0.0, 4.0]), [], [7.0]), threshold=1.0, r=1)
    as_int = GroundTruth(relevant=(np.array([0, 4]), [], [7]), threshold=1.0, r=1)
    got = evaluate_codes(db_codes, query_codes, as_float, ks=(1, 5))
    expected = evaluate_codes(db_codes, query_codes, as_int, ks=(1, 5))
    assert got.per_query_ap == expected.per_query_ap and got.n_evaluated == 2


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


@pytest.mark.parametrize("r", [2.5, float("nan"), float("inf"), "5"])
def test_ground_truth_rejects_a_rank_that_is_not_whole(r):
    db = np.random.default_rng(0).standard_normal((20, 3))
    with pytest.raises(ValueError, match="r must be a whole number"):
        ground_truth(db, db[:2], r=r)


def test_ground_truth_takes_a_whole_float_rank_as_an_integer():
    db = np.random.default_rng(0).standard_normal((20, 3))
    as_float, as_int = ground_truth(db, db[:4], r=5.0), ground_truth(db, db[:4], r=5)
    assert type(as_float.r) is int and as_float.threshold == as_int.threshold


@settings(max_examples=500, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=np.finfo(np.float64).max)
       | st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0,
                          math.sqrt(np.finfo(np.float64).max),
                          math.nextafter(math.sqrt(np.finfo(np.float64).max), 0.0),
                          math.nextafter(math.sqrt(np.finfo(np.float64).max), math.inf)]))
def test_square_bound_is_the_largest_square_whose_root_is_at_most_t(t):
    # ground_truth's overflow guard keeps thresholds below about sqrt(max);
    # subnormal and larger t must hold too
    s = evaluate._square_bound(t)
    assert math.sqrt(s) <= t < math.sqrt(math.nextafter(s, math.inf))


def ground_truth_before_buffers(database_features, query_features, r, block_elements):
    """ground_truth as it was before its block buffers were reused: verbatim
    but for its input checks and clamp warning, and the block budget, which
    is an argument here."""
    def _squared_distances(a, b, b_norms):
        out = np.add.outer(np.sum(a * a, axis=1), b_norms)
        product = a @ b.T
        product *= 2.0
        out -= product
        return out

    def _distances(squared):
        np.clip(squared, 0.0, None, out=squared)
        return np.sqrt(squared, out=squared)

    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    db = np.asarray(database_features, dtype=np.float64)
    queries = np.asarray(query_features, dtype=np.float64)
    n = db.shape[0]
    r_eff = min(r, n - 1)
    db_norms = np.sum(db * db, axis=1)
    kth = np.empty(n)
    for lo, hi in evaluate._row_blocks(n, n, block_elements):
        inner = _squared_distances(db[lo:hi], db, db_norms)
        rows = np.arange(hi - lo)
        inner[rows, lo + rows] = np.inf
        inner.partition(r_eff - 1, axis=1)
        kth[lo:hi] = inner[:, r_eff - 1]
    threshold = float(_distances(kth).mean())

    relevant = []
    for lo, hi in evaluate._row_blocks(queries.shape[0], n, block_elements):
        cross = _distances(_squared_distances(queries[lo:hi], db, db_norms))
        relevant += [np.flatnonzero(row <= threshold) for row in cross]
    return GroundTruth(relevant=tuple(relevant), threshold=threshold, r=r_eff)


@pytest.mark.parametrize("n, d", [(300, 33), (2000, 64)])
@pytest.mark.parametrize("n_queries", [0, 70])
@pytest.mark.parametrize("block", ["7n", 1 << 19, 1 << 21])
def test_ground_truth_in_reused_buffers_equals_the_per_block_allocation(
        monkeypatch, n, d, n_queries, block):
    # same products in the same order, written into reused buffers, and
    # squares compared against the largest square whose root is <= the
    # threshold: every bit of the result stays
    block = 7 * n if block == "7n" else block
    rng = np.random.default_rng(n + n_queries)
    db = rng.standard_normal((n, d)) * 4.0
    queries = rng.standard_normal((n_queries, d)) * 4.0
    expected = ground_truth_before_buffers(db, queries, 20, block)
    monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", block)
    gt = ground_truth(db, queries, 20)
    assert gt.threshold == expected.threshold and gt.r == expected.r
    assert len(gt.relevant) == len(expected.relevant) == n_queries
    assert sum(rel.size for rel in expected.relevant) > 0 or n_queries == 0
    for got, want in zip(gt.relevant, expected.relevant):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_ground_truth_peak_memory_is_two_block_buffers(monkeypatch):
    # every database and query block reuses the same two buffers of the
    # block budget; what else is live grows with n * d + n, not with blocks
    block = 1 << 19
    monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(21)
    n, d = 3000, 64
    db, queries = rng.standard_normal((n, d)), rng.standard_normal((500, d))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ground_truth(db, queries, 50)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * block + 8 * (n * d + n)


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
