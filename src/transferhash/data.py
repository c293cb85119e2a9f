"""Matrix and model files, zero-centering, and partial-correspondence splits.

Two matrix formats are supported: plain CSV (no header by default) and a
little-endian binary format ("thpi-bin": magic THPI, version byte 0x01,
uint32 row/col counts, float64 payload).  Model files reuse the magic with
version byte 0x02 and a tagged record per field.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError, check_count, check_weight
from .model import CenteringInfo, HashModel, LinearProjection

MAGIC = b"THPI"
MATRIX_VERSION = 0x01
MODEL_VERSION = 0x02

MATRIX_FORMATS = ("csv", "thpi-bin")

_TAG_METHOD = 1
_TAG_BITS = 2
_TAG_MEAN = 3
_TAG_PREPROC_KIND = 4
_TAG_PREPROC_MATRIX = 5
_TAG_ROTATION = 6
_TAG_HYPERPARAMS = 7


def _check_matrix(values: np.ndarray, origin: str) -> np.ndarray:
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise DataError(f"{origin}: expected a nonempty 2-D matrix, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise DataError(f"{origin}: matrix contains non-finite values")
    return values


def read_text_lines(path, error=ParseError) -> list:
    """The lines of a UTF-8 text file, split as text-mode open splits them.

    Bytes that are not UTF-8 raise `error` naming the path and the line.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {lineno}: not UTF-8 text "
                    f"(byte {exc.start})") from None
    # newline=None reads \r\n and \r line ends as \n, as text-mode open does
    with io.StringIO(text, newline=None) as fh:
        return fh.readlines()


def _load_csv(path, skip_header: bool) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(read_text_lines(path), start=1):
        if skip_header and lineno == 1:
            continue
        line = line.rstrip("\n")
        if line == "":
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} values, got {len(cells)}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            for offset, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, field {offset}: "
                        f"not a number: {cell.strip()!r}"
                    ) from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def _load_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 13:
        raise ParseError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:4]!r} at offset 0")
    if blob[4] != MATRIX_VERSION:
        raise ParseError(f"{path}: unsupported format version {blob[4]} at offset 4")
    rows, cols = struct.unpack_from("<II", blob, 5)
    if rows < 1 or cols < 1:
        raise ParseError(f"{path}: invalid dimensions {rows}x{cols} in header")
    expected = 13 + 8 * rows * cols
    if len(blob) != expected:
        raise ParseError(
            f"{path}: payload is {len(blob) - 13} bytes, header {rows}x{cols} "
            f"requires {expected - 13}"
        )
    values = np.frombuffer(blob, dtype="<f8", offset=13).reshape(rows, cols)
    return values.astype(np.float64, copy=True)


def load_matrix(path, format: str = "thpi-bin", *, skip_header: bool = False) -> np.ndarray:
    """Load a dense matrix from CSV or thpi-bin; values are 64-bit reals."""
    if format not in MATRIX_FORMATS:
        raise ValueError(f"unknown matrix format {format!r}")
    values = _load_csv(path, skip_header) if format == "csv" else _load_bin(path)
    return _check_matrix(values, str(path))


def save_matrix(x, path, format: str = "thpi-bin") -> None:
    """Write a matrix so load_matrix reproduces it bit-exactly."""
    x = _check_matrix(np.asarray(x, dtype=np.float64), "save_matrix")
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for row in x:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    elif format == "thpi-bin":
        rows, cols = x.shape
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(bytes([MATRIX_VERSION]))
            fh.write(struct.pack("<II", rows, cols))
            fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
    else:
        raise ValueError(f"unknown matrix format {format!r}")


def zero_center(x):
    """Subtract column means; returns (centered matrix, CenteringInfo)."""
    x = _check_matrix(np.asarray(x, dtype=np.float64), "zero_center")
    mean = x.mean(axis=0)
    return x - mean, CenteringInfo(mean)


@dataclass(frozen=True, eq=False)
class SplitBundle:
    """A partial-correspondence split of an index-parallel two-view corpus.

    Rows i of target_train and source_corr originate from the same pair;
    source_extra holds the source side of the non-correspondence training
    rows; target_test holds held-out target rows (queries).  The *_idx
    arrays record the origin row of every kept instance.
    """

    target_train: np.ndarray
    source_corr: np.ndarray
    source_extra: np.ndarray
    target_test: np.ndarray
    alpha: float
    seed: int
    corr_idx: np.ndarray
    extra_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def n_corr(self) -> int:
        return self.target_train.shape[0]

    @property
    def n_extra(self) -> int:
        return self.source_extra.shape[0] if self.source_extra.size else 0


def make_split(target_all, source_all, alpha: float, test_fraction: float, seed: int) -> SplitBundle:
    """Split an index-parallel corpus into correspondences/extra-source/test.

    Test rows are removed first (target modality only), then a fraction
    alpha of the remaining pairs is kept as correspondences; the source
    side of the rest becomes extra source-only data.  Deterministic per
    seed.
    """
    target_all = _check_matrix(np.asarray(target_all, dtype=np.float64), "make_split target")
    source_all = _check_matrix(np.asarray(source_all, dtype=np.float64), "make_split source")
    if target_all.shape[0] != source_all.shape[0]:
        raise DataError(
            f"make_split: target has {target_all.shape[0]} rows, "
            f"source has {source_all.shape[0]}"
        )
    check_weight("alpha", alpha)
    check_weight("test_fraction", test_fraction)
    check_count("seed", seed, 0)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in [0, 1), got {test_fraction}")

    total = target_all.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(total)
    n_test = int(np.floor(test_fraction * total + 0.5))
    test_idx = np.sort(perm[:n_test])
    remaining = perm[n_test:]
    n_corr = int(np.floor(alpha * remaining.size + 0.5))
    if n_corr == 0:
        raise ValueError("split leaves zero correspondence rows; raise alpha or lower test_fraction")
    corr_idx = np.sort(remaining[:n_corr])
    extra_idx = np.sort(remaining[n_corr:])

    return SplitBundle(
        target_train=target_all[corr_idx],
        source_corr=source_all[corr_idx],
        source_extra=source_all[extra_idx] if extra_idx.size else np.empty((0, source_all.shape[1])),
        target_test=target_all[test_idx] if test_idx.size else np.empty((0, target_all.shape[1])),
        alpha=alpha,
        seed=seed,
        corr_idx=corr_idx,
        extra_idx=extra_idx,
        test_idx=test_idx,
    )


def _record(tag: int, payload: bytes) -> bytes:
    return struct.pack("<BI", tag, len(payload)) + payload


def _matrix_payload(m: np.ndarray) -> bytes:
    rows, cols = m.shape
    return struct.pack("<II", rows, cols) + np.ascontiguousarray(m, dtype="<f8").tobytes()


def _parse_matrix_payload(payload: bytes, origin: str) -> np.ndarray:
    if len(payload) < 8:
        raise ParseError(f"{origin}: truncated matrix record")
    rows, cols = struct.unpack_from("<II", payload, 0)
    if len(payload) != 8 + 8 * rows * cols:
        raise ParseError(f"{origin}: matrix record length mismatch for {rows}x{cols}")
    return np.frombuffer(payload, dtype="<f8", offset=8).reshape(rows, cols).copy()


def save_model(model: HashModel, path) -> None:
    """Serialize a HashModel; round-trips bit-exactly through load_model."""
    mean = np.ascontiguousarray(model.centering.mean, dtype="<f8")
    records = [
        _record(_TAG_METHOD, model.method.encode("utf-8")),
        _record(_TAG_BITS, struct.pack("<I", model.bits)),
        _record(_TAG_MEAN, struct.pack("<I", mean.size) + mean.tobytes()),
        _record(_TAG_PREPROC_KIND, model.preprocessing.kind.encode("utf-8")),
        _record(_TAG_PREPROC_MATRIX, _matrix_payload(model.preprocessing.matrix)),
        _record(_TAG_ROTATION, _matrix_payload(model.rotation)),
        _record(_TAG_HYPERPARAMS, json.dumps(model.hyperparams, sort_keys=True).encode("utf-8")),
    ]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([MODEL_VERSION]))
        for rec in records:
            fh.write(rec)


def load_model(path) -> HashModel:
    """Read a model file written by save_model."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 5 or blob[:4] != MAGIC or blob[4] != MODEL_VERSION:
        raise ParseError(
            f"{path}: not a model file (magic/version mismatch at offset 0)"
        )
    fields: dict[int, bytes] = {}
    offset = 5
    while offset < len(blob):
        if offset + 5 > len(blob):
            raise ParseError(f"{path}: truncated record header at offset {offset}")
        tag, length = struct.unpack_from("<BI", blob, offset)
        offset += 5
        if offset + length > len(blob):
            raise ParseError(f"{path}: truncated record payload at offset {offset}")
        fields[tag] = blob[offset:offset + length]
        offset += length

    required = (_TAG_METHOD, _TAG_BITS, _TAG_MEAN, _TAG_PREPROC_KIND,
                _TAG_PREPROC_MATRIX, _TAG_ROTATION, _TAG_HYPERPARAMS)
    missing = [t for t in required if t not in fields]
    if missing:
        raise ParseError(f"{path}: missing record tags {missing}")

    bits_payload = fields[_TAG_BITS]
    if len(bits_payload) != 4:
        raise ParseError(f"{path}: bits record is {len(bits_payload)} bytes, expected 4")
    mean_payload = fields[_TAG_MEAN]
    if len(mean_payload) < 4:
        raise ParseError(f"{path}: truncated mean record")
    (mean_len,) = struct.unpack_from("<I", mean_payload, 0)
    if len(mean_payload) != 4 + 8 * mean_len:
        raise ParseError(f"{path}: mean record length mismatch")
    mean = np.frombuffer(mean_payload, dtype="<f8", offset=4).copy()
    preprocessing_matrix = _parse_matrix_payload(fields[_TAG_PREPROC_MATRIX], str(path))
    rotation = _parse_matrix_payload(fields[_TAG_ROTATION], str(path))

    # bad UTF-8 or JSON, an unknown method or projection kind, and a
    # model that breaks HashModel's invariants all surface as ValueError
    try:
        hyperparams = json.loads(fields[_TAG_HYPERPARAMS].decode("utf-8"))
        if not isinstance(hyperparams, dict):
            raise ParseError(f"{path}: hyperparameter record is not a JSON object")
        return HashModel(
            method=fields[_TAG_METHOD].decode("utf-8"),
            centering=CenteringInfo(mean),
            preprocessing=LinearProjection(
                preprocessing_matrix, fields[_TAG_PREPROC_KIND].decode("utf-8")),
            rotation=rotation,
            bits=struct.unpack("<I", bits_payload)[0],
            hyperparams=hyperparams,
        )
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
