import numpy as np
import pytest

from transferhash.baselines import cca_itq_fit, lsh_fit
from transferhash.data import zero_center
from transferhash.evaluate import encode, evaluate_model
from transferhash.itq import itq_train
from transferhash.model import CenteringInfo, HashModel, LinearProjection, default_hyperparams


def hamming_distance(a, b) -> int:
    """Differing bits between two packed codes (word-wise XOR + popcount).

    Oracle: the package's former per-pair distance, verbatim."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"packed length mismatch: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


def pairs_at_angle(theta, count, dim, seed):
    """Random unit-vector pairs with exact angle theta between them."""
    rng = np.random.default_rng(seed)
    first = rng.standard_normal((count, dim))
    first /= np.linalg.norm(first, axis=1, keepdims=True)
    other = rng.standard_normal((count, dim))
    other -= np.sum(other * first, axis=1, keepdims=True) * first
    other /= np.linalg.norm(other, axis=1, keepdims=True)
    return first, np.cos(theta) * first + np.sin(theta) * other


def lsh_model(d, c, seed):
    """The zero-mean model around lsh_fit's planes, which encodes centered rows."""
    return HashModel("lsh", CenteringInfo(np.zeros(d)), LinearProjection.identity(d),
                     lsh_fit(d, c, seed), c, default_hyperparams(seed=seed))


def cca_itq_model(x_t, x_sc, c, iters, seed):
    """The zero-mean model around cca_itq_fit's (projection, rotation)."""
    projection, rotation = cca_itq_fit(x_t, x_sc, c, iters=iters, seed=seed)
    return HashModel("cca-itq", CenteringInfo(np.zeros(projection.d_in)), projection,
                     rotation, c, default_hyperparams(iters=iters, seed=seed))


def test_lsh_identical_inputs_collide():
    model = lsh_model(12, 32, 0)
    row = np.random.default_rng(1).standard_normal((1, 12))
    codes = encode(model, np.vstack([row, row]))
    assert hamming_distance(codes.packed[0], codes.packed[1]) == 0


def test_lsh_antipodal_inputs_complement():
    model = lsh_model(10, 64, 2)
    row = np.random.default_rng(3).standard_normal((1, 10))
    codes = encode(model, np.vstack([row, -row]))
    assert hamming_distance(codes.packed[0], codes.packed[1]) == 64


def test_lsh_collision_law():
    model = lsh_model(24, 512, 7)
    for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        first, second = pairs_at_angle(theta, 2000, 24, seed=int(theta * 100))
        codes_a = encode(model, first)
        codes_b = encode(model, second)
        normalized = np.bitwise_count(codes_a.packed ^ codes_b.packed).sum(axis=1) / 512.0
        assert abs(normalized.mean() - theta / np.pi) < 0.03


def test_lsh_scale_invariance():
    model = lsh_model(8, 16, 4)
    x = np.random.default_rng(5).standard_normal((20, 8))
    a = encode(model, x)
    b = encode(model, 37.5 * x)
    assert np.array_equal(a.signs, b.signs)


@pytest.mark.parametrize("d, c", [(4.0, 2), (4, 2.0), (True, 2), (4, True), (4, 0)])
def test_lsh_rejects_counts_that_are_not_integers_with_a_value_error(d, c):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        lsh_fit(d, c, 0)


def test_lsh_takes_numpy_integers():
    assert lsh_model(np.int64(6), np.int32(4), 0).rotation.shape == (6, 4)


def test_lsh_model_tag_and_projection_shape():
    model = lsh_model(6, 12, 9)
    assert model.method == "lsh"
    assert model.rotation.shape == (6, 12)


def two_views(n=150, d_t=10, d_s=8, seed=0, noise=0.2):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 5))
    x_t = z @ rng.standard_normal((5, d_t)) + noise * rng.standard_normal((n, d_t))
    x_s = z @ rng.standard_normal((5, d_s)) + noise * rng.standard_normal((n, d_s))
    return x_t - x_t.mean(0), x_s - x_s.mean(0)


def test_cca_itq_deterministic():
    x_t, x_s = two_views()
    a = cca_itq_model(x_t, x_s, 4, iters=20, seed=1)
    b = cca_itq_model(x_t, x_s, 4, iters=20, seed=1)
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.preprocessing.matrix, b.preprocessing.matrix)
    assert a.method == "cca-itq"
    assert a.preprocessing.kind == "cca-left"


def test_cca_itq_rank_error():
    x_t, x_s = two_views(d_t=10, d_s=3)
    with pytest.raises(ValueError):
        cca_itq_fit(x_t, x_s, 5, iters=5, seed=0)


@pytest.mark.parametrize("view", ["target", "source"])
@pytest.mark.parametrize("bad", [np.float64(1.0), np.ones(10)])
def test_cca_itq_rejects_views_that_are_not_matrices(view, bad):
    x_t, x_s = two_views()
    if view == "target":
        x_t = bad
    else:
        x_s = bad
    with pytest.raises(ValueError, match=r"x_[ab] of shape \(.*\) is not a matrix"):
        cca_itq_fit(x_t, x_s, 4, iters=5, seed=0)


def test_cca_itq_identical_views_close_to_plain_itq():
    # with x_s == x_t CCA only whitens; on isotropic data whitening is a
    # near no-op, so retrieval should match plain quantization within noise
    rng = np.random.default_rng(6)
    maps_cca, maps_itq = [], []
    for seed in range(10):
        raw = rng.standard_normal((120, 8))
        queries = raw[100:]
        db = raw[:100]
        centered, info = zero_center(db)
        projection, rotation = cca_itq_fit(centered, centered.copy(), 4, iters=30,
                                           seed=seed)
        model_cca = HashModel("cca-itq", info, projection, rotation, 4)
        _, rotation, _ = itq_train(centered, 4, iters=30, seed=seed)
        model_itq = HashModel("itq", info, LinearProjection.identity(8), rotation, 4)
        maps_cca.append(evaluate_model(model_cca, db, queries, r=5, ks=(5,)).map)
        maps_itq.append(evaluate_model(model_itq, db, queries, r=5, ks=(5,)).map)
    assert abs(np.mean(maps_cca) - np.mean(maps_itq)) < 0.1


def test_cca_itq_bits_roughly_balanced():
    x_t, x_s = two_views(n=200, seed=7)
    model = cca_itq_model(x_t, x_s, 6, iters=30, seed=2)
    signs = encode(model, x_t).signs  # x_t is centered, as the model's zero mean expects
    imbalance = np.abs(signs.sum(axis=0)) / signs.shape[0]
    assert np.all(imbalance < 0.5)
