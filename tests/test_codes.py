import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferhash.codes import WORD_BITS, BinaryCodeMatrix, pack_signs, sgn
from transferhash.evaluate import search

_SHIFTS = np.arange(WORD_BITS, dtype=np.uint64)


def sgn_before_bytes(m):
    """Elementwise sign with sgn(0) = +1, as an int8 matrix over {-1,+1}.

    Oracle: the package's former sgn, verbatim."""
    m = np.asarray(m)
    return np.where(m >= 0, 1, -1).astype(np.int8)


def pack_signs_before_bytes(signs):
    """Pack a {-1,+1} matrix into rows of uint64 words, bit b = 1 iff sign = +1.

    Oracle: the package's former packer, verbatim; it widened every bit to
    a uint64 and or-reduced the shifted bits of each word."""
    signs = np.asarray(signs)
    n, c = signs.shape
    words = (c + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((n, words * WORD_BITS), dtype=np.uint64)
    bits[:, :c] = signs > 0
    bits = bits.reshape(n, words, WORD_BITS)
    return np.bitwise_or.reduce(bits << _SHIFTS, axis=2)


def unpack_words(packed, bits):
    """Inverse of pack_signs: recover the {-1,+1} sign matrix.

    Oracle: the package's former unpacker, verbatim."""
    packed = np.asarray(packed, dtype=np.uint64)
    n, words = packed.shape
    unpacked = (packed[:, :, None] >> _SHIFTS) & np.uint64(1)
    flat = unpacked.reshape(n, words * WORD_BITS)[:, :bits]
    return (flat.astype(np.int8) * 2) - 1


def hamming_distance(a, b) -> int:
    """Differing bits between two packed codes (word-wise XOR + popcount).

    Oracle: the package's former per-pair distance, verbatim."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"packed length mismatch: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


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
    for values in ([[1, 0], [-1, 1]],
                   [[1.7, -1.2]],    # the int8 cast would read 1, -1
                   [[257.0, -1.0]],  # 1, -1
                   [[255, -1]],      # -1, -1
                   np.array([[255, 1]], dtype=np.uint8),
                   [[1 + 0j, -1]],
                   [["1", "-1"]]):
        with pytest.raises(ValueError, match="exactly -1 or \\+1"):
            BinaryCodeMatrix(np.array(values))


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


SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 2.5, -2.5]


def assert_same_array(got, expected):
    assert isinstance(got, np.ndarray)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_sgn_of_special_values_matches_the_former_sgn():
    assert_same_array(sgn(SPECIAL_VALUES), sgn_before_bytes(SPECIAL_VALUES))
    assert np.array_equal(sgn(SPECIAL_VALUES), [1, 1, -1, 1, -1, 1, -1, 1, -1])
    for value in SPECIAL_VALUES:  # 0-d input gives a 0-d array, as before
        assert_same_array(sgn(value), sgn_before_bytes(value))
        assert_same_array(sgn(np.float64(value)), sgn_before_bytes(np.float64(value)))
    nested = [[0.0, -0.0, 3], [-1, np.nan, -np.inf]]
    assert_same_array(sgn(nested), sgn_before_bytes(nested))
    ints = [[0, -1, 2], [5, -7, 0]]
    assert_same_array(sgn(ints), sgn_before_bytes(ints))


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(0, 70), min_size=0, max_size=3),
       dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int8]),
       transpose=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_sgn_matches_the_former_sgn(shape, dtype, transpose, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape) * 3
    if np.issubdtype(dtype, np.floating):
        mask = rng.random(shape) < 0.3
        m = np.where(mask, rng.choice(SPECIAL_VALUES, size=shape), m)
    m = m.astype(dtype)
    if transpose:
        m = m.T  # a non-contiguous layout
    assert_same_array(sgn(m), sgn_before_bytes(m))


@pytest.mark.parametrize("c", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("n", [0, 1, 17])
def test_pack_signs_matches_the_former_packer(n, c):
    rng = np.random.default_rng(n * 1000 + c)
    signs = sgn(rng.standard_normal((n, c)))
    assert_same_array(pack_signs(signs), pack_signs_before_bytes(signs))
    assert_same_array(pack_signs(signs.T.copy().T), pack_signs_before_bytes(signs))
    if n:  # no rows make an empty list, which is not a matrix
        as_list = signs.tolist()
        assert_same_array(pack_signs(as_list), pack_signs_before_bytes(as_list))
    # nonzero entries other than +-1, and NaN, pack by `> 0` as before
    values = rng.choice(SPECIAL_VALUES, size=(n, c))
    assert_same_array(pack_signs(values), pack_signs_before_bytes(values))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), c=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_pack_signs_matches_the_former_packer_on_any_shape(n, c, seed):
    signs = sgn(np.random.default_rng(seed).standard_normal((n, c)))
    assert_same_array(pack_signs(signs), pack_signs_before_bytes(signs))


@pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 3, 4)), np.float64(1.0)])
def test_pack_signs_rejects_what_is_not_a_matrix_as_before(bad):
    with pytest.raises(ValueError):
        pack_signs_before_bytes(bad)
    with pytest.raises(ValueError):
        pack_signs(bad)
