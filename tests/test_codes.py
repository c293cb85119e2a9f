import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferhash.codes import BinaryCodeMatrix, pack_signs, sgn, unpack_words
from transferhash.evaluate import hamming_distance, search


def naive_pack(signs):
    n, c = signs.shape
    words = (c + 63) // 64
    out = np.zeros((n, words), dtype=np.uint64)
    for i in range(n):
        for j in range(c):
            if signs[i, j] > 0:
                out[i, j // 64] |= np.uint64(1) << np.uint64(j % 64)
    return out


def test_sgn_basic():
    assert np.array_equal(sgn([[0.5, -0.5]]), [[1, -1]])
    assert np.array_equal(sgn([[0.0, -0.0]]), [[1, 1]])


def test_sgn_idempotent():
    m = np.random.default_rng(0).standard_normal((20, 7))
    assert np.array_equal(sgn(sgn(m)), sgn(m))


@pytest.mark.parametrize("c", [1, 7, 64, 65, 130])
def test_pack_matches_naive(c):
    rng = np.random.default_rng(c)
    signs = sgn(rng.standard_normal((11, c)))
    assert np.array_equal(pack_signs(signs), naive_pack(signs))


@pytest.mark.parametrize("c", [1, 63, 64, 100])
def test_pack_unpack_round_trip(c):
    rng = np.random.default_rng(c + 1)
    signs = sgn(rng.standard_normal((9, c)))
    assert np.array_equal(unpack_words(pack_signs(signs), c), signs)


def test_code_matrix_agrees_with_signs():
    rng = np.random.default_rng(3)
    codes = BinaryCodeMatrix(sgn(rng.standard_normal((6, 70))))
    assert np.array_equal(unpack_words(codes.packed, codes.bits), codes.signs)
    assert codes.rows == 6 and codes.bits == 70


def test_code_matrix_rejects_non_signs():
    with pytest.raises(ValueError):
        BinaryCodeMatrix(np.array([[1, 0], [-1, 1]]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), c=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_code_invariants(n, c, seed):
    rng = np.random.default_rng(seed)
    signs = sgn(rng.standard_normal((n, c)))
    packed = pack_signs(signs)
    assert np.array_equal(unpack_words(packed, c), signs)
    query = sgn(rng.standard_normal(c)).astype(int)
    query_packed = pack_signs(query[None, :])[0]
    dists = [hamming_distance(row, query_packed) for row in packed]
    assert [2 * d for d in dists] == [c - int(s @ query) for s in signs.astype(int)]
    codes = BinaryCodeMatrix(signs)
    if n == 0:
        with pytest.raises(ValueError):
            search(codes, query_packed)
    else:
        expected = sorted(range(n), key=lambda i: (dists[i], i))
        assert list(search(codes, query_packed)) == expected
