import logging
import math
import numbers
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transferhash import evaluate
from transferhash.bench import fit_model
from transferhash.codes import BinaryCodeMatrix, pack_signs, sgn
from transferhash.data import make_split, zero_center
from transferhash.errors import DataError
from transferhash.evaluate import (
    GroundTruth,
    average_precision,
    encode,
    evaluate_codes,
    evaluate_model,
    ground_truth,
    precision_at_k,
    search,
    write_report_keyvalues,
)
from transferhash.itq import itq_train
from transferhash.model import CenteringInfo, HashModel, LinearProjection
from transferhash.synth import make_two_view_clusters


def hamming_distance(a, b) -> int:
    """Differing bits between two packed codes (word-wise XOR + popcount).

    Oracle: the package's former per-pair distance, verbatim."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"packed length mismatch: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_encode_equals_the_projection_then_rotation_bit_for_bit(data):
    n = data.draw(st.integers(0, 30), label="rows")
    d = data.draw(st.integers(1, 12), label="d")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    matrices = {"identity": np.eye(d), "random": rng.standard_normal((d, d))}
    if d > 1:  # kept under kind "identity", yet not the identity
        matrices.update(permutation=np.roll(np.eye(d), 1, axis=1), twice=2 * np.eye(d),
                        selection=np.eye(d)[:, :1])
    name = data.draw(st.sampled_from(sorted(matrices)), label="projection")
    matrix = matrices[name]
    c = data.draw(st.integers(1, matrix.shape[1]), label="c")
    rotation = np.linalg.qr(rng.standard_normal((matrix.shape[1], c)))[0]
    mean = rng.standard_normal(d) * (rng.random(d) < 0.7)  # some +0.0 columns
    x = rng.standard_normal((n, d)) * 3.0
    x[rng.random((n, d)) < 0.2] = -0.0                     # -0.0 less +0.0 stays -0.0
    x[rng.random(n) < 0.3] = mean                          # rows equal to the mean
    model = HashModel("itq", CenteringInfo(mean), LinearProjection(matrix), rotation, c)
    z = x - mean
    scores = (z @ matrix) @ rotation
    got = encode(model, x)
    assert got.packed.dtype == np.uint64
    if name == "identity":  # I @ R is R but for -0.0, which sgn reads as +0.0
        assert np.array_equal(got.packed, pack_signs(sgn(scores)))
    else:
        # z @ (P @ R) and (z @ P) @ R each lie within (d + d_out) * eps / 2 times
        # |z| @ |P| @ |R| of the exact score (to first order), so a bit may flip
        # only where |reference score| is at most the sum; the bound is twice it
        terms = np.abs(z) @ np.abs(matrix) @ np.abs(rotation)
        bound = 2 * (d + matrix.shape[1]) * np.finfo(np.float64).eps * terms
        flipped = got.signs != sgn(scores)
        assert np.all(np.abs(scores[flipped]) <= bound[flipped])


def test_a_projection_keeps_a_read_only_copy_of_its_matrix():
    given_matrix = np.eye(3)
    projection = LinearProjection(given_matrix)
    given_matrix[0, 1] = 5.0  # the caller's array is not the projection's
    assert np.array_equal(projection.matrix, np.eye(3))
    with pytest.raises(ValueError, match="read-only"):
        projection.matrix[0, 1] = 5.0
    assert np.array_equal(projection.matrix, np.eye(3))


def test_encode_refuses_finite_rows_whose_centering_overflows():
    model = simple_model(np.eye(2), np.array([-1e308, 0.0]))
    x = np.array([[1.0, 2.0], [1e308, 0.0]])  # 1e308 - (-1e308) is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="mean from the input overflows"):
            encode(model, x)
        with pytest.raises(DataError, match="non-finite values"):
            encode(model, np.array([[np.nan, 0.0]]))
        assert encode(model, x[:1]).rows == 1


def test_encode_refuses_finite_rows_whose_scores_overflow():
    model = simple_model(np.array([[0.8, -0.6], [0.6, 0.8]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # it warned "overflow encountered in matmul"
        with pytest.raises(DataError, match="scores overflow"):
            encode(model, np.array([[1.0, 2.0], [1.7e308, 1.7e308]]))
        assert encode(model, np.array([[1e308, -1e308]])).rows == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_encode_matches_the_two_products_on_the_criterion_8_corpus(seed):
    # cca-itq and pca_energy models once encoded with (x - mean) @ P, then @ R
    target, source, _ = make_two_view_clusters(
        1250, 64, 40, clusters=5, noise=3.0, seed=0,
        source_noise=0.1, latent_dim=16, center_spread=5.0)
    split = make_split(target, source, 0.1, 0.2, seed)
    for method, bits, pca_energy in (("cca-itq", 32, None), ("itq", 16, 0.9)):
        model = fit_model(method, split.target_train, split.source_corr,
                          split.source_extra, bits=bits, iters=20, seed=seed,
                          pca_energy=pca_energy).model
        assert model.preprocessing.kind == ("cca-left" if pca_energy is None else "pca")
        for x in (split.target_train, split.target_test):
            z = (x - model.centering.mean) @ model.preprocessing.matrix
            assert np.array_equal(encode(model, x).signs, sgn(z @ model.rotation))


def test_a_model_keeps_read_only_copies_of_its_mean_and_rotation():
    rng = np.random.default_rng(31)
    mean = rng.standard_normal(4)
    rotation = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :3]
    projection = np.eye(4)
    model = HashModel("itq", CenteringInfo(mean), LinearProjection(projection),
                      rotation, 3)
    x = rng.standard_normal((20, 4))
    before = encode(model, x).packed.copy()
    for given in (mean, rotation, projection):  # the caller's arrays are not the model's
        given[...] = np.nan
    assert np.array_equal(encode(model, x).packed, before)
    for array in (model.centering.mean, model.preprocessing.matrix, model.rotation,
                  model.encoder):
        assert array.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            array[0] = np.inf
    assert np.array_equal(encode(model, x).packed, before)


def test_encode_peak_memory_is_one_centered_copy_plus_scores_and_codes():
    # one d x c product: no second n x d product is live, and the centered
    # rows are freed before the codes are built
    n, d, c = 20_000, 64, 32
    rng = np.random.default_rng(30)
    x = rng.standard_normal((n, d))
    model = simple_model(np.linalg.qr(rng.standard_normal((d, c)))[0], x.mean(axis=0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        codes = encode(model, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert codes.rows == n and codes.bits == c
    assert peak <= 8 * n * (d + c) + n * c + 8 * n


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


@pytest.mark.parametrize("query", [[-1], [2**64], None, [1.5], [1.0], [True], ["3"],
                                   np.array([2**64], dtype=object), np.float64(2.0),
                                   np.array([1.0]), [[1], [2, 3]]])
def test_search_refuses_a_query_that_is_not_64_bit_words(query):
    # -1 and 2**64 raised a bare OverflowError, None a TypeError, and 1.5
    # was truncated to word 1 and ranked
    db = BinaryCodeMatrix(sgn(np.random.default_rng(5).standard_normal((6, 24))))
    with pytest.raises(ValueError, match=r"must hold integers in \[0, 2\*\*64\)"):
        search(db, query)


def test_search_takes_python_and_numpy_integer_words():
    db = BinaryCodeMatrix(sgn(np.random.default_rng(5).standard_normal((6, 70))))
    query = db.packed[2]
    expected = search(db, query)
    for same in ([int(w) for w in query], list(query), query.astype(object),
                 query.reshape(2, 1)):
        assert np.array_equal(search(db, same), expected)
    # numpy reads [13, 2**63] as float64; the words must not take that detour
    assert np.array_equal(search(db, [13, 2**64 - 1]),
                          search(db, np.array([13, 2**64 - 1], dtype=np.uint64)))


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
    # and any database or query array that is not 2-D, 0-d and 1-d included
    rng = np.random.default_rng(9)
    for db_shape, query_shape in [((20, 3), (6, 4)), ((), (6, 3)), ((20, 3), ()),
                                  ((20,), (6, 3)), ((20, 3), (3,)), ((1,), (1,))]:
        db, queries = rng.standard_normal(db_shape), rng.standard_normal(query_shape)
        with pytest.raises(DataError, match=re.escape(f"{query_shape} and a database "
                                                      f"of shape {db_shape}")):
            ground_truth(db, queries, r=3)


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
    gt = GroundTruth.from_sets(relevant, threshold=1.0, r=3)
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

    gt = GroundTruth.from_sets(relevant, threshold=1.0, r=1)
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
    # such a truth cannot be built, so it never reaches evaluate_codes
    with pytest.raises(DataError, match="not whole numbers"):
        GroundTruth.from_sets((np.array([0, 4]), np.array(rows)), threshold=1.0, r=1)


def test_evaluate_codes_accepts_whole_float_rows_and_empty_lists():
    rng = np.random.default_rng(18)
    db_codes, query_codes, _ = codes_and_truth(rng, 30, 3)
    as_float = GroundTruth.from_sets((np.array([0.0, 4.0]), [], [7.0]), threshold=1.0, r=1)
    as_int = GroundTruth.from_sets((np.array([0, 4]), [], [7]), threshold=1.0, r=1)
    got = evaluate_codes(db_codes, query_codes, as_float, ks=(1, 5))
    expected = evaluate_codes(db_codes, query_codes, as_int, ks=(1, 5))
    assert got.per_query_ap == expected.per_query_ap and got.n_evaluated == 2


def hamming_distances_by_word_loop(db_packed, query_packed):
    """Oracle: the distance half of the former _hamming_order, verbatim; it
    sums every word, one word too, into a zeroed array."""
    words = db_packed.shape[1]
    dists = np.zeros((query_packed.shape[0], db_packed.shape[0]),
                     dtype=np.min_scalar_type(words * evaluate.WORD_BITS))
    for w in range(words):
        dists += np.bitwise_count(query_packed[:, w, None] ^ db_packed[:, w])
    return dists


@pytest.mark.parametrize("c", [1, 32, 63, 64, 65, 130])
def test_hamming_distances_equal_the_word_loop_in_value_and_dtype(c):
    rng = np.random.default_rng(c)
    db = BinaryCodeMatrix(sgn(rng.standard_normal((37, c))))
    queries = BinaryCodeMatrix(sgn(rng.standard_normal((11, c))))
    for q in (queries.packed, queries.packed[:0], db.packed):
        got = evaluate._hamming_distances(db.packed, q)
        want = hamming_distances_by_word_loop(db.packed, q)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def evaluate_codes_before_flat_view(db_codes, query_codes, gt, ks=evaluate.DEFAULT_KS,
                                    **meta):
    """Oracle: the former evaluate_codes, verbatim but for qualified module
    names; it flattens and checks gt.relevant on every call, and ranks
    through the word loop."""
    ks = list(ks)
    if not all(isinstance(k, numbers.Real) and float(k).is_integer() for k in ks):
        raise ValueError(f"K must be a whole number, got {ks}")
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise ValueError(f"K must be >= 1, got {ks}")
    if query_codes.bits != db_codes.bits:
        raise ValueError(f"query codes have {query_codes.bits} bits, "
                         f"database codes {db_codes.bits}")
    n = db_codes.rows
    if len(gt.relevant) != query_codes.rows:
        raise DataError(f"evaluate_codes: ground truth has {len(gt.relevant)} "
                        f"relevant sets for {query_codes.rows} queries")
    relevant = [np.asarray(rel).reshape(-1) for rel in gt.relevant]
    given = np.concatenate(relevant) if relevant else np.empty(0, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        ids = given.astype(np.intp)
    if not np.array_equal(ids, given):
        raise DataError("evaluate_codes: ground truth names rows that are not "
                        "whole numbers")
    if ids.size and not 0 <= ids.min() <= ids.max() < n:
        raise DataError(f"evaluate_codes: ground truth names rows {ids.min()}.."
                        f"{ids.max()} of a {n}-row database")
    if any(k > n for k in ks):
        evaluate.log.warning("evaluate_codes: K=%s clamped to the database size %d",
                             [k for k in ks if k > n], n)
        ks = [min(k, n) for k in ks]
    k_values = np.array(sorted(set(ks)), dtype=np.intp)

    # queries with an empty relevant set are not ranked; the ids of the
    # others are contiguous in `ids`, from bounds[q] to bounds[q + 1]
    sizes = np.array([rel.size for rel in relevant], dtype=np.intp)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    evaluated = np.flatnonzero(sizes)
    ap_blocks, precision_blocks = [], []
    for lo, hi in evaluate._row_blocks(evaluated.size, n, evaluate._SCORE_BLOCK_ELEMENTS):
        block = evaluated[lo:hi]
        relevant_mask = np.zeros((block.size, n), dtype=bool)
        owner = np.repeat(np.arange(block.size), sizes[block])
        relevant_mask[owner, ids[bounds[block[0]]:bounds[block[-1] + 1]]] = True
        order = np.argsort(hamming_distances_by_word_loop(
            db_codes.packed, query_codes.packed[block]), axis=1, kind="stable")
        # one flat gather: far faster than take_along_axis's per-row one
        order += n * np.arange(block.size)[:, None]
        hits = np.take(relevant_mask.ravel(), order)
        # flat index q * n + rank - 1 of every hit: each query's hits in rank
        # order, query after query (a 1-D nonzero is far faster than a 2-D one)
        flat = np.flatnonzero(hits)
        query, position = np.divmod(flat, n)
        # the mask counts each distinct relevant id once, as the set in
        # average_precision does
        found = np.bincount(query, minlength=block.size)
        first = np.cumsum(found) - found
        hit = np.arange(flat.size) - first[query]  # j - 1 for the j-th hit
        terms = np.zeros((block.size, found.max()))
        terms[query, hit] = (hit + 1) / (position + 1)
        ap_blocks.append(np.cumsum(terms, axis=1)[:, -1] / found)
        # a query's hits ranked K or better lie before flat index q * n + K
        below = np.searchsorted(flat, np.arange(block.size)[:, None] * n + k_values)
        precision_blocks.append((below - first[:, None]) / k_values)

    per_ap = np.concatenate(ap_blocks).tolist() if ap_blocks else []
    mean_ap = sum(per_ap) / len(per_ap) if per_ap else 0.0
    curve = []
    if per_ap:
        precision = np.concatenate(precision_blocks)
        for j, k in enumerate(k_values.tolist()):
            # a K listed m times counts each query's precision m times
            values = np.repeat(precision[:, j], ks.count(k)).tolist()
            curve.append((k, sum(values) / len(values)))
    return evaluate.EvalReport(
        map=mean_ap,
        precision_at_k=curve,
        per_query_ap=per_ap,
        n_queries=query_codes.rows,
        n_evaluated=len(per_ap),
        **meta,
    )


def outcome(fn, *args):
    """The report's repr (exact for every float), or the error's type and text."""
    try:
        return repr(fn(*args))
    except (ValueError, DataError) as err:
        return type(err).__name__, str(err)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_ground_truth_scored_repeatedly_equals_the_per_call_oracle(monkeypatch, data):
    bits = data.draw(st.integers(1, 130), label="bits")
    n_truth = data.draw(st.integers(1, 30), label="rows the truth was built on")
    n_queries = data.draw(st.integers(0, 8), label="queries")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = data.draw(st.lists(
        st.sampled_from(["random", "repeated", "whole floats", "list", "empty"]),
        min_size=n_queries, max_size=n_queries), label="sets")
    relevant = []
    for kind in kinds:
        rel = rng.choice(n_truth, size=rng.integers(0, n_truth + 1), replace=kind == "repeated")
        relevant.append(np.empty(0, dtype=np.intp) if kind == "empty"
                        else rel.astype(np.float64) if kind == "whole floats"
                        else rel.tolist() if kind == "list" else rel)
    if n_queries and data.draw(st.booleans(), label="one id not whole"):
        relevant[-1] = np.append(np.asarray(relevant[-1], dtype=np.float64),
                                 data.draw(st.sampled_from([0.5, np.nan, np.inf, 1e30])))
    # the oracle reads the sets as given; a truth with an id that is not whole
    # cannot be built, where the oracle raises on every call
    as_given = SimpleNamespace(relevant=tuple(relevant))
    try:
        gt = GroundTruth.from_sets(relevant, threshold=1.0, r=1)
    except DataError as err:
        assert "not whole numbers" in str(err)
        gt = None
    monkeypatch.setattr(evaluate, "_SCORE_BLOCK_ELEMENTS",
                        data.draw(st.integers(1, 3 * n_truth + 10), label="block elements"))
    ks = data.draw(st.lists(st.integers(1, n_truth + 3), min_size=1, max_size=3), label="ks")
    highest = max((int(np.max(rel)) for rel in relevant
                   if len(rel) and np.all(np.isfinite(rel))), default=-1)
    pool = sgn(rng.standard_normal((data.draw(st.integers(1, 4), label="codes"), bits)))
    for n in data.draw(st.lists(st.integers(1, n_truth + 5), min_size=2, max_size=4),
                       label="database rows per call"):
        db = BinaryCodeMatrix(pool[rng.integers(0, len(pool), n)])
        queries = BinaryCodeMatrix(pool[rng.integers(0, len(pool), n_queries)])
        expected = outcome(evaluate_codes_before_flat_view, db, queries, as_given, ks)
        if gt is None:
            assert expected[0] == "DataError" and "not whole numbers" in expected[1]
            continue
        got = outcome(evaluate_codes, db, queries, gt, ks)
        assert got == expected
        if highest >= n:
            assert got[0] == "DataError"


def test_from_sets_of_a_ground_truth_rebuilds_it():
    rng = np.random.default_rng(19)
    db_codes, query_codes, gt = codes_and_truth(rng, 40, 6)
    rebuilt = GroundTruth.from_sets(gt.relevant, gt.threshold, gt.r)
    for got, want in ((rebuilt.ids, gt.ids), (rebuilt.bounds, gt.bounds)):
        assert got.dtype == want.dtype == np.intp and np.array_equal(got, want)
    assert (repr(evaluate_codes(db_codes, query_codes, rebuilt, ks=(1, 5)))
            == repr(evaluate_codes(db_codes, query_codes, gt, ks=(1, 5))))


def test_a_ground_truth_keeps_its_own_copy_of_the_sets():
    rng = np.random.default_rng(19)
    db_codes, query_codes, built = codes_and_truth(rng, 40, 6)
    sets = [rel.copy() for rel in built.relevant]
    gt = GroundTruth.from_sets(sets, built.threshold, built.r)
    first = repr(evaluate_codes(db_codes, query_codes, gt, ks=(1, 5)))
    for rel in sets:
        rel[:] = 0
    direct_ids, direct_bounds = gt.ids.copy(), gt.bounds.copy()
    direct = GroundTruth(direct_ids, direct_bounds, gt.threshold, gt.r)
    direct_ids[:] = 0
    direct_bounds[1:] = direct_bounds[-1]
    for truth in (gt, direct):
        assert repr(evaluate_codes(db_codes, query_codes, truth, ks=(1, 5))) == first
        assert not (truth.ids.flags.writeable or truth.bounds.flags.writeable)


@pytest.mark.parametrize("ids, bounds, message", [
    ([0, 1.5], [0, 2], "not whole numbers"),
    ([0, np.nan], [0, 2], "not whole numbers"),
    ([[0, 1]], [0, 2], "ids of shape"),
    (["0"], [0, 1], "ids of shape"),
    ([True], [0, 1], "ids of shape"),
    ([0, 1], [0, 1.5, 2], "bounds of shape (3,)"),
    ([0, 1], [], "bounds must rise from 0 to 2"),
    ([0, 1], [1, 2], "bounds must rise from 0 to 2"),
    ([0, 1], [0, 1], "bounds must rise from 0 to 2"),
    ([0, 1], [0, 2, 1, 2], "bounds must rise from 0 to 2"),
    ([0, 1], [0, 3], "bounds must rise from 0 to 2"),
])
def test_a_malformed_ground_truth_cannot_be_built(ids, bounds, message):
    with pytest.raises(DataError, match=re.escape(message)):
        GroundTruth(ids, bounds, threshold=1.0, r=1)


def test_ground_truth_relevant_sets_are_read_only():
    rng = np.random.default_rng(20)
    gt = ground_truth(rng.standard_normal((60, 5)), rng.standard_normal((7, 5)), 10)
    rel = next(rel for rel in gt.relevant if rel.size)
    assert all(not r.flags.writeable for r in gt.relevant)
    with pytest.raises(ValueError, match="read-only"):
        rel[0] = 1


def test_ground_truth_rejects_values_whose_squares_overflow():
    db = np.ones((4, 3))
    db[2, 1] = 1e300
    with pytest.raises(DataError, match="overflows"):
        ground_truth(db, np.ones((2, 3)), r=2)


def test_ground_truth_rejects_a_database_with_a_nan():
    db = np.random.default_rng(0).standard_normal((30, 3))
    db[4, 1] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        ground_truth(db, np.zeros((5, 3)), r=2)


def test_ground_truth_rejects_queries_with_a_nan():
    db = np.random.default_rng(0).standard_normal((30, 3))
    queries = db[:5].copy()
    queries[3, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        ground_truth(db, queries, r=2)


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
    but for its input checks and clamp warning, the block budget, which is
    an argument here, and its GroundTruth, built by from_sets."""
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
    return GroundTruth.from_sets(relevant, threshold, r_eff)


@pytest.mark.parametrize("n, d", [(300, 33), (2000, 64)])
@pytest.mark.parametrize("n_queries", [0, 70])
@pytest.mark.parametrize("block, chunk", [
    pytest.param(block, chunk, id=str(block) + (f"-chunk{chunk}" if chunk else ""))
    for chunk in (None, "3n", "1") for block in ("7n", 1 << 19, 1 << 21)])
def test_ground_truth_in_reused_buffers_equals_the_per_block_allocation(
        monkeypatch, n, d, n_queries, block, chunk):
    # same products in the same order, finished in place chunk by chunk, and
    # squares compared against the largest square whose root is <= the
    # threshold: every bit of the result stays.  chunk None keeps the
    # budget; "3n" splits a 7-row block into chunks of 2, 2 and 3 rows and
    # 70 queries into chunks of 2 or 3; "1" finishes one row at a time
    block = 7 * n if block == "7n" else block
    rng = np.random.default_rng(n + n_queries)
    db = rng.standard_normal((n, d)) * 4.0
    queries = rng.standard_normal((n_queries, d)) * 4.0
    expected = ground_truth_before_buffers(db, queries, 20, block)
    monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", block)
    if chunk is not None:
        monkeypatch.setattr(evaluate, "_CHUNK_ELEMENTS", 3 * n if chunk == "3n" else 1)
    gt = ground_truth(db, queries, 20)
    assert gt.threshold == expected.threshold and gt.r == expected.r
    assert len(gt.relevant) == len(expected.relevant) == n_queries
    assert sum(rel.size for rel in expected.relevant) > 0 or n_queries == 0
    for got, want in zip(gt.relevant, expected.relevant):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def features_of_kind(rng, kind, rows, d):
    """Rows whose products test the folded -2 and the int64-keyed selection."""
    signs = np.where(rng.random((rows, d)) < 0.5, -1.0, 1.0)
    if kind == "at-floor":  # every magnitude in [2^-458, 2^-440]: the fold is exact
        x = signs * np.exp2(rng.uniform(-458, -440, (rows, d)))
        x[0, 0] = np.copysign(2.0 ** -458, x[0, 0])
        return x
    if kind == "straddling":  # 2^-470 .. 2^-440: values below the floor keep -2 out
        return signs * np.exp2(rng.uniform(-470, -440, (rows, d)))
    if kind == "subnormal":  # products round in the subnormal range
        return signs * np.exp2(rng.uniform(-545, -520, (rows, d)))
    if kind == "large":
        return rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(100, 150)
    x = rng.standard_normal((rows, d)) * 4.0  # "duplicates"
    x[:, ::7] = 0.0
    x[rng.random(rows) < 0.2] = x[0]
    return x


# (kind, whether -2 folds, seed); with OpenBLAS 0.3.31 seeds 111 and 20 give
# thresholds that a doubled copy of the database through GEMM would change
FOLD_CASES = [("at-floor", True, 0), ("straddling", False, 1), ("subnormal", False, 2),
              ("large", True, 111), ("duplicates", True, 20)]


@pytest.mark.parametrize("kind, folds, seed", FOLD_CASES)
@pytest.mark.parametrize("block", ["one", "7n", "1"])
@pytest.mark.parametrize("chunk", [None, "3n", "1"])
def test_ground_truth_with_folded_gemms_and_int64_keys_equals_the_oracle(
        monkeypatch, kind, folds, seed, block, chunk):
    # -2 folds into every GEMM only where each nonzero magnitude is at least
    # 2^-458: subnormal products would round differently once doubled, and
    # numpy forms one block of the whole database by SYRK, which a doubled
    # copy would not take (d = 33 makes the two round differently).  Rows
    # equal to row 0 give it squares below 0, so int64 keys select among
    # negatives, and every 7th column is zero
    n, d, r = 300, 33, 20
    rng = np.random.default_rng(seed)
    rows = features_of_kind(rng, kind, n + 70, d)
    db, queries = rows[:n], rows[n:]
    budget = {"one": n * n, "7n": 7 * n, "1": 1}[block]
    expected = ground_truth_before_buffers(db, queries, r, budget)
    monkeypatch.setattr(evaluate, "_BLOCK_ELEMENTS", budget)
    if chunk is not None:
        monkeypatch.setattr(evaluate, "_CHUNK_ELEMENTS", 3 * n if chunk == "3n" else 1)
    seen, fold_is_exact = [], evaluate._fold_is_exact

    def spy(*magnitudes):
        seen.append(fold_is_exact(*magnitudes))
        return seen[-1]

    monkeypatch.setattr(evaluate, "_fold_is_exact", spy)
    gt = ground_truth(db, queries, r)
    assert seen == [folds]
    assert np.float64(gt.threshold).tobytes() == np.float64(expected.threshold).tobytes()
    assert np.array_equal(gt.ids, expected.ids) and np.array_equal(gt.bounds, expected.bounds)
    assert gt.ids.size > 0
    if kind == "duplicates":
        norms = np.sum(db * db, axis=1)  # row 0's squares as one SYRK block has them
        squares = norms[0] + norms - 2.0 * (db @ db.T)[0]
        assert np.sum(squares < 0) >= r and expected.threshold > 0


def test_ground_truth_peak_memory_is_one_block_and_one_chunk_buffer(monkeypatch):
    # every database and query block reuses one product buffer of the block
    # budget and one sums buffer of the chunk budget; what else is live grows
    # with n * d + n, not with blocks or chunks
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
    assert peak <= 8 * (block + evaluate._CHUNK_ELEMENTS + n * d + n)


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
