import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferhash.bench import fit_model
from transferhash.cli import main
from transferhash.data import (
    MAGIC,
    load_matrix,
    load_model,
    make_split,
    save_matrix,
    save_model,
    zero_center,
)
from transferhash.errors import DataError, ParseError
from transferhash.itq_plus import itq_plus_objective, itq_plus_train
from transferhash.model import CenteringInfo, HashModel, LinearProjection


def test_csv_direct_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(load_matrix(path, "csv"), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_header_flag(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ParseError):
        load_matrix(path, "csv")
    assert np.array_equal(load_matrix(path, "csv", skip_header=True), [[1.0, 2.0]])


def test_bin_zero_matrix(tmp_path):
    path = tmp_path / "z.bin"
    blob = MAGIC + bytes([1]) + (1).to_bytes(4, "little") + (3).to_bytes(4, "little")
    blob += bytes(8 * 3)
    path.write_bytes(blob)
    assert np.array_equal(load_matrix(path, "thpi-bin"), np.zeros((1, 3)))


@pytest.mark.parametrize("fmt", ["csv", "thpi-bin"])
def test_round_trip_bit_exact(tmp_path, fmt):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((17, 5)) * 10.0 ** rng.integers(-8, 8, (17, 5))
    path = tmp_path / "m.dat"
    save_matrix(m, path, fmt)
    loaded = load_matrix(path, fmt)
    assert np.array_equal(loaded, m)
    # re-serialization reproduces the file byte for byte
    path2 = tmp_path / "m2.dat"
    save_matrix(loaded, path2, fmt)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_errors_name_location(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ParseError, match="line 2"):
        load_matrix(ragged, "csv")
    junk = tmp_path / "junk.csv"
    junk.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError, match="line 2, field 2"):
        load_matrix(junk, "csv")
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(b"1,2\r\n3,\xff\n")
    with pytest.raises(ParseError, match=r"latin1\.csv: line 2: not UTF-8"):
        load_matrix(undecodable, "csv")


def test_csv_line_ends(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\r\n\r\n3,4\r5,6\n")
    assert np.array_equal(load_matrix(path, "csv"), [[1, 2], [3, 4], [5, 6]])


def test_bin_errors(tmp_path):
    bad_magic = tmp_path / "bad.bin"
    bad_magic.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ParseError, match="magic"):
        load_matrix(bad_magic, "thpi-bin")
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(
        MAGIC + bytes([1]) + (2).to_bytes(4, "little") + (2).to_bytes(4, "little") + bytes(8)
    )
    with pytest.raises(ParseError, match="payload"):
        load_matrix(truncated, "thpi-bin")


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,nan\n")
    with pytest.raises(DataError):
        load_matrix(path, "csv")


def test_zero_center_symmetric_pair():
    centered, info = zero_center(np.array([[1.0, 1.0], [3.0, 3.0]]))
    assert np.array_equal(centered, [[-1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(info.mean, [2.0, 2.0])


def test_zero_center_fixed_point():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 4)) + 5.0
    centered, _ = zero_center(x)
    assert np.abs(centered.sum(axis=0)).max() < 1e-9 * 50 * np.abs(x).max()
    again, info = zero_center(centered)
    assert np.abs(info.mean).max() < 1e-12
    assert np.allclose(again, centered)


def make_pair(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 4)), rng.standard_normal((n, 3))


def test_make_split_counts():
    target, source = make_pair(10)
    bundle = make_split(target, source, 0.5, 0.0, 0)
    assert bundle.n_corr == 5 and bundle.n_extra == 5
    assert bundle.target_test.shape[0] == 0


def test_make_split_alpha_one():
    target, source = make_pair(10)
    bundle = make_split(target, source, 1.0, 0.0, 0)
    assert bundle.n_extra == 0 and bundle.n_corr == 10


def test_make_split_deterministic_and_seed_sensitive():
    target, source = make_pair(40)
    first = make_split(target, source, 0.5, 0.2, 3)
    second = make_split(target, source, 0.5, 0.2, 3)
    assert np.array_equal(first.corr_idx, second.corr_idx)
    assert np.array_equal(first.test_idx, second.test_idx)
    differs = sum(
        not np.array_equal(
            make_split(target, source, 0.5, 0.2, s).corr_idx, first.corr_idx
        )
        for s in range(1, 21)
    )
    assert differs >= 1


def test_make_split_partitions_origin_indices():
    target, source = make_pair(37, seed=5)
    bundle = make_split(target, source, 0.4, 0.1, 9)
    merged = np.concatenate([bundle.corr_idx, bundle.extra_idx, bundle.test_idx])
    assert np.array_equal(np.sort(merged), np.arange(37))
    # row pairing by origin index
    assert np.array_equal(bundle.target_train, target[bundle.corr_idx])
    assert np.array_equal(bundle.source_corr, source[bundle.corr_idx])


def test_make_split_alpha_consistency():
    target, source = make_pair(100, seed=2)
    bundle = make_split(target, source, 0.3, 0.1, 1)
    n, ns = bundle.n_corr, bundle.n_extra
    assert abs(bundle.alpha - n / (n + ns)) <= 1.0 / (n + ns)


def test_make_split_validation():
    target, source = make_pair(10)
    with pytest.raises(ValueError):
        make_split(target, source, 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        make_split(target, source, 0.5, 1.0, 0)
    with pytest.raises(ValueError):
        make_split(target, source, 0.01, 0.0, 0)  # n == 0
    with pytest.raises(DataError):
        make_split(target, source[:5], 0.5, 0.0, 0)


def identity_model(d=4, c=2):
    return HashModel(
        method="itq",
        centering=CenteringInfo(np.zeros(d)),
        preprocessing=LinearProjection.identity(d),
        rotation=np.eye(d)[:, :c],
        bits=c,
    )


def test_model_round_trip_identity(tmp_path):
    model = identity_model()
    path = tmp_path / "id.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.method == model.method
    assert loaded.bits == model.bits
    assert np.array_equal(loaded.rotation, model.rotation)
    assert np.array_equal(loaded.centering.mean, model.centering.mean)
    assert np.array_equal(loaded.preprocessing.matrix, model.preprocessing.matrix)
    assert loaded.hyperparams == model.hyperparams


def test_model_round_trip_trained(tmp_path):
    rng = np.random.default_rng(7)
    x_t = rng.standard_normal((60, 8)); x_t -= x_t.mean(0)
    x_s = rng.standard_normal((60, 6)); x_s -= x_s.mean(0)
    state = itq_plus_train(x_t, x_s, 4, 0.05, iters=25, seed=0)
    model = fit_model("itq+", x_t, x_s, bits=4, lambda1=0.05, iters=25, seed=0).model
    path = tmp_path / "trained.model"
    save_model(model, path)
    loaded = load_model(path)
    before = itq_plus_objective(state.codes, model.rotation, state.slack_rotation,
                                x_t, x_s, 0.05)
    after = itq_plus_objective(state.codes, loaded.rotation, state.slack_rotation,
                               x_t, x_s, 0.05)
    assert after == before
    assert loaded.hyperparams == model.hyperparams


@pytest.mark.parametrize("c, lambda1, iters", [
    (np.int64(2), 0.1, np.int64(3)),
    (2, np.float32(0.1), 3),
])
def test_model_trained_with_numpy_numbers_round_trips(tmp_path, c, lambda1, iters):
    # the hyperparameter record once refused numpy numbers with a bare TypeError
    rng = np.random.default_rng(9)
    x_t = rng.standard_normal((30, 5)); x_t -= x_t.mean(0)
    x_s = rng.standard_normal((30, 4)); x_s -= x_s.mean(0)
    model = fit_model("itq+", x_t, x_s, bits=c, lambda1=lambda1, iters=iters).model
    path = tmp_path / "numpy.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.hyperparams == model.hyperparams
    assert {type(model.hyperparams[key]) for key in ("lambda1", "iters")} == {float, int}
    if type(lambda1) is float:  # the same model from Python numbers, byte for byte
        as_python = fit_model("itq+", x_t, x_s, bits=int(c), lambda1=lambda1,
                              iters=int(iters)).model
        save_model(as_python, tmp_path / "python.model")
        assert (tmp_path / "python.model").read_bytes() == path.read_bytes()


def test_model_reserialization_is_byte_exact(tmp_path):
    rng = np.random.default_rng(8)
    x_t = rng.standard_normal((40, 6)); x_t -= x_t.mean(0)
    x_s = rng.standard_normal((40, 5)); x_s -= x_s.mean(0)
    model = fit_model("itq+", x_t, x_s, bits=3, lambda1=0.01, iters=10, seed=1).model
    first = tmp_path / "one.model"
    second = tmp_path / "two.model"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_model_wrong_magic(tmp_path):
    path = tmp_path / "bogus.model"
    path.write_bytes(b"XXXX" + bytes(40))
    with pytest.raises(ParseError, match="magic/version"):
        load_model(path)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    rng = np.random.default_rng(9)
    x_t = rng.standard_normal((20, 4)); x_t -= x_t.mean(0)
    x_s = rng.standard_normal((20, 3)); x_s -= x_s.mean(0)
    model = fit_model("itq+", x_t, x_s, bits=2, lambda1=0.1, iters=3, seed=0).model
    path = tmp_path_factory.mktemp("model") / "saved.model"
    save_model(model, path)
    return path


def with_record(blob, tag, payload):
    """The model file bytes with the payload of record `tag` replaced."""
    out, offset = bytearray(blob[:5]), 5
    while offset < len(blob):
        record_tag, length = struct.unpack_from("<BI", blob, offset)
        body = payload if record_tag == tag else blob[offset + 5:offset + 5 + length]
        out += struct.pack("<BI", record_tag, len(body)) + body
        offset += 5 + length
    return bytes(out)


@pytest.mark.parametrize("tag, payload", [
    (2, b"\x02\x00"),  # short bits record
    (3, b"\x01"),  # short mean record
    (7, b"{not json"),
    (7, b"\xff\xfe"),  # not UTF-8
    (7, b"[1, 2]"),  # JSON, but not an object
    (1, b"nope"),  # unknown method
    (1, b"\xff"),
    (4, b"weird"),  # unknown projection kind
    (2, struct.pack("<I", 3)),  # bits disagree with the rotation
    (3, struct.pack("<I", 1) + bytes(8)),  # mean disagrees with the projection
])
def test_model_bad_record_is_parse_error(tmp_path, model_file, tag, payload):
    path = tmp_path / "bad.model"
    path.write_bytes(with_record(model_file.read_bytes(), tag, payload))
    with pytest.raises(ParseError):
        load_model(path)
    assert main(["inspect-model", "--model", str(path)]) == 3


def record_payload(blob, tag):
    """The payload of record `tag` in the model file bytes."""
    offset = 5
    while offset < len(blob):
        record_tag, length = struct.unpack_from("<BI", blob, offset)
        if record_tag == tag:
            return blob[offset + 5:offset + 5 + length]
        offset += 5 + length
    raise KeyError(tag)


def test_hash_model_needs_a_bit_and_a_mean_as_long_as_the_projection_input():
    identity = LinearProjection.identity(4)
    with pytest.raises(ValueError, match=re.escape("bits=0 must be an integer >= 1")):
        HashModel("itq", CenteringInfo(np.zeros(4)), identity, np.zeros((4, 0)), 0)
    with pytest.raises(ValueError, match="mean length"):
        HashModel("itq", CenteringInfo(np.zeros(3)), identity, np.eye(4)[:, :2], 2)


@pytest.mark.parametrize("bits", [2.0, np.float64(2.0)])
def test_hash_model_refuses_bits_that_are_not_an_integer(tmp_path, bits):
    # 2.0 equals the rotation's 2 columns; it was accepted and save_model then
    # failed with struct.error
    with pytest.raises(ValueError, match=re.escape(f"bits={bits} must be an integer >= 1")):
        HashModel("itq", CenteringInfo(np.zeros(2)), LinearProjection.identity(2),
                  np.eye(2), bits)
    model = HashModel("itq", CenteringInfo(np.zeros(2)), LinearProjection.identity(2),
                      np.eye(2), np.int64(2))
    save_model(model, tmp_path / "m.model")
    assert load_model(tmp_path / "m.model").bits == 2


def test_a_model_whose_projection_times_rotation_overflows_is_refused(tmp_path):
    # P @ R = 1.7e308 * 1.4 is past float64's range
    matrix, rotation = np.array([[1.7e308, 1.7e308]]), np.array([[0.8], [0.6]])
    with pytest.raises(ValueError, match=re.escape("projection @ rotation overflows")):
        HashModel("itq", CenteringInfo(np.zeros(1)), LinearProjection(matrix, "pca"),
                  rotation, 1)
    model = HashModel("itq", CenteringInfo(np.zeros(1)),
                      LinearProjection(np.array([[1.0, 1.0]]), "pca"), rotation, 1)
    save_model(model, tmp_path / "fine.model")
    blob = (tmp_path / "fine.model").read_bytes()
    path = tmp_path / "overflow.model"
    path.write_bytes(with_record(blob, 5, struct.pack("<II", 1, 2) + matrix.tobytes()))
    with pytest.raises(ParseError, match="projection @ rotation overflows"):
        load_model(path)
    assert main(["inspect-model", "--model", str(path)]) == 3


def test_encode_command_exits_3_when_the_scores_overflow(tmp_path):
    model = HashModel("itq", CenteringInfo(np.zeros(2)), LinearProjection.identity(2),
                      np.array([[0.8, -0.6], [0.6, 0.8]]), 2)
    save_model(model, tmp_path / "m.model")
    rows = tmp_path / "rows.csv"
    save_matrix(np.array([[1.0, 2.0], [1.7e308, 1.7e308]]), rows, "csv")
    assert main(["encode", "--model", str(tmp_path / "m.model"), "--input", str(rows),
                 "--format", "csv", "--out", str(tmp_path / "codes.csv")]) == 3
    assert not (tmp_path / "codes.csv").exists()


@pytest.mark.parametrize("shape", [(3,), (3, 3, 2), (), (3, 2, 1)])
def test_a_projection_that_is_not_a_matrix_is_refused(shape):
    with pytest.raises(ValueError, match=f"projection of shape {re.escape(str(shape))} "
                                         f"is not a 2-D matrix"):
        LinearProjection(np.ones(shape))


@pytest.mark.parametrize("shape", [(3,), (3, 2, 1), (), (3, 3, 2)])
def test_a_rotation_that_is_not_a_matrix_is_refused(shape):
    with pytest.raises(ValueError, match=f"rotation of shape {re.escape(str(shape))} "
                                         f"is not a 2-D matrix"):
        HashModel("itq", CenteringInfo(np.zeros(3)), LinearProjection.identity(3),
                  np.ones(shape), 2)


@pytest.mark.parametrize("field", ["mean", "projection", "rotation"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hash_model_rejects_a_non_finite_value(field, value):
    mean, matrix, rotation = np.zeros(4), np.eye(4), np.eye(4)[:, :2]
    {"mean": mean, "projection": matrix, "rotation": rotation}[field][1] = value
    with pytest.raises(ValueError, match=f"non-finite value in the model's {field}"):
        HashModel("itq", CenteringInfo(mean), LinearProjection(matrix), rotation, 2)


@pytest.mark.parametrize("tag", [3, 5, 6])  # mean, projection matrix, rotation
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_file_with_a_non_finite_value_exits_3(tmp_path, matrix_files, tag, value):
    root, paths = matrix_files
    blob = (root / "m.model").read_bytes()
    payload = bytearray(record_payload(blob, tag))
    payload[-8:] = struct.pack("<d", value)  # the record's last entry
    path = tmp_path / "bad.model"
    path.write_bytes(with_record(blob, tag, bytes(payload)))
    with pytest.raises(ParseError, match="non-finite"):
        load_model(path)
    database, queries = (str(p) for p in paths["csv"])
    assert main(["inspect-model", "--model", str(path)]) == 3
    assert main(["encode", "--model", str(path), "--input", queries, "--format", "csv",
                 "--out", str(tmp_path / "codes.csv")]) == 3
    assert main(["eval", "--model", str(path), "--database", database, "--queries", queries,
                 "--format", "csv", "--r-groundtruth", "3", "--ks", "1",
                 "--out", str(tmp_path / "eval")]) == 3


def test_model_file_with_zero_bits_exits_3(tmp_path, matrix_files):
    root, paths = matrix_files
    blob = (root / "m.model").read_bytes()
    blob = with_record(blob, 2, struct.pack("<I", 0))
    blob = with_record(blob, 6, struct.pack("<II", 4, 0))  # a 4 x 0 rotation
    path = tmp_path / "zero.model"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=re.escape("bits=0 must be an integer >= 1")):
        load_model(path)
    database, queries = (str(p) for p in paths["csv"])
    assert main(["eval", "--model", str(path), "--database", database, "--queries", queries,
                 "--format", "csv", "--r-groundtruth", "3", "--ks", "1",
                 "--out", str(tmp_path / "eval")]) == 3


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_loads_or_raises_parse_error(model_file, data):
    blob = model_file.read_bytes()
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    flip = data.draw(st.integers(0, 255), label="xor (0 truncates)")
    if flip:
        mutated = blob[:offset] + bytes([blob[offset] ^ flip]) + blob[offset + 1:]
    else:
        mutated = blob[:offset]
    path = model_file.with_name("mutated.model")
    path.write_bytes(mutated)
    try:
        model = load_model(path)
    except ParseError:
        pass
    else:  # a model that loads keeps HashModel's invariants
        assert model.bits >= 1
        assert model.centering.mean.shape == (model.preprocessing.d_in,)
        for values in (model.centering.mean, model.preprocessing.matrix, model.rotation):
            assert np.isfinite(values).all()
    assert main(["inspect-model", "--model", str(path)]) in (0, 3)


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    """An itq model over 4 columns plus a database and queries in both formats."""
    rng = np.random.default_rng(10)
    database = rng.standard_normal((12, 4))
    state = itq_plus_train(database - database.mean(0),
                           rng.standard_normal((12, 3)), 3, 0.1, iters=3, seed=0)
    model = HashModel("itq", CenteringInfo(database.mean(0)),
                      LinearProjection.identity(4), state.rotation, 3)
    root = tmp_path_factory.mktemp("matrices")
    save_model(model, root / "m.model")
    paths = {}
    for fmt in ("csv", "thpi-bin"):
        paths[fmt] = (root / f"database.{fmt}", root / f"queries.{fmt}")
        save_matrix(database, paths[fmt][0], fmt)
        save_matrix(rng.standard_normal((5, 4)), paths[fmt][1], fmt)
    return root, paths


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_matrix_loads_or_raises_data_error(matrix_files, data):
    root, paths = matrix_files
    fmt = data.draw(st.sampled_from(["csv", "thpi-bin"]), label="format")
    role = data.draw(st.sampled_from([0, 1]), label="0 database, 1 queries")
    blob = paths[fmt][role].read_bytes()
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    flip = data.draw(st.integers(0, 255), label="xor (0 truncates)")
    if flip:
        mutated = blob[:offset] + bytes([blob[offset] ^ flip]) + blob[offset + 1:]
    else:
        mutated = blob[:offset]
    path = root / f"mutated.{fmt}"
    path.write_bytes(mutated)
    try:
        load_matrix(path, fmt)
    except DataError:
        pass
    files = [str(p) for p in paths[fmt]]
    files[role] = str(path)
    assert main(["eval", "--model", str(root / "m.model"), "--database", files[0],
                 "--queries", files[1], "--format", fmt, "--r-groundtruth", "3",
                 "--ks", "1,5", "--out", str(root / "eval")]) in (0, 3)
