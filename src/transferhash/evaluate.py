"""Encode, search by Hamming distance, and score retrieval quality.

Ground truth follows the nearest-neighbor threshold protocol: a database
point is relevant to a query when their original-feature Euclidean
distance is at most the mean distance-to-rth-neighbor over the database.

Ground truth and scoring work on blocks of rows against the whole
database: ground truth peaks at about 2 x _BLOCK_ELEMENTS values, not db x db.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .codes import WORD_BITS, BinaryCodeMatrix, sgn
from .errors import DataError
from .model import HashModel

log = logging.getLogger(__name__)

DEFAULT_KS = (1, 5, 10, 20, 50, 100)
DEFAULT_GT_RANK = 50

# rows per block = element budget // database rows (at least one).  Ground
# truth's BLAS products run slower on small blocks (2^16 took twice as long as
# 2^21); with reused buffers, 2^19, 2^20 and 2^21 took 0.54, 0.54 and 0.57 s
# on an 8,000-row database, and 2^20 keeps up to 1,024 rows in one block.
# Scoring's largest temporary is a block's ranking, 8 bytes a value: 1 MB at
# 2^17.  At 2^21 values the allocator served its temporaries from reused heap
# or from newly faulted pages depending on what the process freed before, so
# its speed varied from run to run; from 2^15 to 2^21 no size beat 2^17 by
# more than the spread of repeated calls.
_BLOCK_ELEMENTS = 1 << 20
_SCORE_BLOCK_ELEMENTS = 1 << 17


def encode(model: HashModel, x) -> BinaryCodeMatrix:
    """Hash raw (uncentered) rows: sgn(((X - mean) @ projection) @ rotation)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DataError(
            f"encode: input has {x.shape[1] if x.ndim == 2 else '?'} columns, "
            f"model expects {model.input_dim}"
        )
    if not np.isfinite(x).all():
        raise DataError("encode: input contains non-finite values")
    z = model.centering.apply(x)
    z = z @ model.preprocessing.matrix
    return BinaryCodeMatrix(sgn(z @ model.rotation))


def hamming_distance(a, b) -> int:
    """Differing bits between two packed codes (word-wise XOR + popcount)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"packed length mismatch: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


def _row_blocks(n: int, width: int, elements: int) -> list:
    """(start, stop) of near-equal blocks of n rows, each at most
    elements // width rows (and at least one)."""
    blocks = -(-n // max(1, elements // max(1, width)))
    return [(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]


def _hamming_order(db_packed, query_packed) -> np.ndarray:
    """Per query row, every database row by ascending Hamming distance, ties by row.

    Distances are summed per word in the narrowest unsigned type that holds
    them, which numpy's stable sort orders by radix sort.
    """
    words = db_packed.shape[1]
    dists = np.zeros((query_packed.shape[0], db_packed.shape[0]),
                     dtype=np.min_scalar_type(words * WORD_BITS))
    for w in range(words):
        dists += np.bitwise_count(query_packed[:, w, None] ^ db_packed[:, w])
    return np.argsort(dists, axis=1, kind="stable")


def search(codes: BinaryCodeMatrix, query_code) -> np.ndarray:
    """All database rows by ascending Hamming distance, ties by ascending row."""
    if codes.rows == 0:
        raise ValueError("cannot search an empty code matrix")
    query_code = np.asarray(query_code, dtype=np.uint64).reshape(1, -1)
    if query_code.shape[1] != codes.packed.shape[1]:
        raise ValueError("query code width does not match the database codes")
    return _hamming_order(codes.packed, query_code)[0]


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-query relevant-id sets under a Euclidean distance threshold."""

    relevant: tuple
    threshold: float
    r: int


def _squared_distances(a, b, b_norms, out, product) -> np.ndarray:
    """|a|^2 + |b|^2 - 2ab per row pair, given b's squared row norms; may dip below 0.

    Built in out, with product for ab, as (|a|^2 + |b|^2) - (2 * ab) in that
    order, so every value has the bits of the plain numpy expression.
    """
    np.add.outer(np.sum(a * a, axis=1), b_norms, out=out)
    np.matmul(a, b.T, out=product)
    product *= 2.0
    out -= product
    return out


def _square_bound(t: float) -> float:
    """The largest double s with sqrt(s) <= t, for t >= 0.

    sqrt is monotone and correctly rounded, so a square is <= s exactly
    when its root, clipped at 0, is <= t (a negative square's root is 0).
    """
    s = t * t
    while s > 0.0 and math.sqrt(s) > t:
        s = math.nextafter(s, 0.0)
    while math.sqrt(math.nextafter(s, math.inf)) <= t:
        s = math.nextafter(s, math.inf)
    return s


def ground_truth(database_features, query_features,
                 r: int = DEFAULT_GT_RANK) -> GroundTruth:
    """Relevance threshold = mean distance to the r-th nearest neighbor.

    The mean is taken over database points, each against the other
    database points.  r must be a whole number >= 1 (whole floats such as
    5.0 read as integers); above n - 1 it is clamped.
    """
    if not (isinstance(r, numbers.Real) and float(r).is_integer()):
        raise ValueError(f"r must be a whole number, got {r!r}")
    r = int(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    db = np.asarray(database_features, dtype=np.float64)
    queries = np.asarray(query_features, dtype=np.float64)
    if db.shape[0] < 2:
        raise DataError("ground_truth: need at least 2 database points")
    if db.ndim != 2 or queries.ndim != 2 or queries.shape[1] != db.shape[1]:
        raise DataError(
            f"ground_truth: queries of shape {queries.shape} and a database of "
            f"shape {db.shape} differ in column count")
    # |a|^2 + |b|^2 - 2ab must not overflow: each term stays below max/4
    largest = max(np.abs(db).max(), np.abs(queries).max(initial=0.0))
    if largest > np.sqrt(np.finfo(np.float64).max / (4 * max(1, db.shape[1]))):
        raise DataError(f"ground_truth: a feature value of magnitude {largest:.3g} "
                        f"overflows squared distances")

    n = db.shape[0]
    r_eff = min(r, n - 1)
    if r_eff < r:
        log.warning("ground_truth: r=%d clamped to %d (database size %d)",
                    r, r_eff, n)
    db_norms = np.sum(db * db, axis=1)
    db_blocks = _row_blocks(n, n, _BLOCK_ELEMENTS)
    query_blocks = _row_blocks(queries.shape[0], n, _BLOCK_ELEMENTS)
    # reused, they spare the kernel faulting in fresh pages per block; two, not
    # one of twice the size: glibc's mmap threshold rises to the largest block
    # freed, and below it freed heap stays resident
    block_rows = max(hi - lo for lo, hi in db_blocks + query_blocks)
    out, product = np.empty((block_rows, n)), np.empty((block_rows, n))
    kth = np.empty(n)
    for lo, hi in db_blocks:
        inner = _squared_distances(db[lo:hi], db, db_norms, out[:hi - lo], product[:hi - lo])
        rows = np.arange(hi - lo)
        inner[rows, lo + rows] = np.inf
        # sqrt(clip(.)) is monotone, so it maps the r-th smallest square to
        # the r-th smallest distance: only the selected values need it
        inner.partition(r_eff - 1, axis=1)
        kth[lo:hi] = inner[:, r_eff - 1]
    threshold = float(np.sqrt(np.clip(kth, 0.0, None)).mean())

    bound = _square_bound(threshold)
    relevant = []
    for lo, hi in query_blocks:
        cross = _squared_distances(queries[lo:hi], db, db_norms, out[:hi - lo], product[:hi - lo])
        # flat index q * n + row of every relevant pair, query after query
        flat = np.flatnonzero(cross <= bound)
        relevant += np.split(flat % n, np.searchsorted(flat, np.arange(1, hi - lo) * n))
    return GroundTruth(relevant=tuple(relevant), threshold=threshold, r=r_eff)


def average_precision(ranked_ids, relevant_set) -> float:
    """Mean of precision-at-hit over the full ranking; 0 if nothing relevant."""
    relevant = set(int(i) for i in relevant_set)
    if not relevant:
        return 0.0
    score = 0.0
    hits = 0
    for rank, rid in enumerate(ranked_ids, start=1):
        if int(rid) in relevant:
            hits += 1
            score += hits / rank
    return score / len(relevant)


def precision_at_k(ranked_ids, relevant_set, ks) -> list[tuple[int, float]]:
    """Fraction of the top-K results that are relevant, for each K.

    K larger than the ranking is clamped (with a logged warning); the
    clamped value is reported.
    """
    relevant = set(int(i) for i in relevant_set)
    ranked = list(ranked_ids)
    out = []
    for k in ks:
        if k < 1:
            raise ValueError(f"K must be >= 1, got {k}")
        k_eff = min(k, len(ranked))
        if k_eff < k:
            log.warning("precision_at_k: K=%d clamped to %d (list size %d)",
                        k, k_eff, len(ranked))
        hits = sum(1 for rid in ranked[:k_eff] if int(rid) in relevant)
        out.append((k_eff, hits / k_eff))
    return out


@dataclass
class EvalReport:
    """MAP, the precision@K curve, per-query APs, and run metadata.

    per_query_ap covers only queries with a nonempty relevant set; queries
    without one cannot be ranked meaningfully and are excluded from the
    MAP mean (n_queries/n_evaluated record the difference).
    """

    map: float
    precision_at_k: list
    per_query_ap: list
    n_queries: int
    n_evaluated: int
    bits: int | None = None
    method: str | None = None
    seed: int | None = None
    alpha: float | None = None


def evaluate_codes(db_codes: BinaryCodeMatrix, query_codes: BinaryCodeMatrix,
                   gt: GroundTruth, ks=DEFAULT_KS, **meta) -> EvalReport:
    """Rank every query against the database and aggregate MAP/precision@K.

    K larger than the database is clamped once here, with one logged warning.
    Queries are ranked and scored a block at a time, from the ranks of their
    relevant rows alone: the j-th hit at rank r adds j / r to the AP, and
    P@K counts the hits ranked K or better.  A query's terms are added one
    after another, as average_precision adds them, so both give the same
    bits; a pairwise sum (np.sum) would round differently.
    """
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
        log.warning("evaluate_codes: K=%s clamped to the database size %d",
                    [k for k in ks if k > n], n)
        ks = [min(k, n) for k in ks]
    k_values = np.array(sorted(set(ks)), dtype=np.intp)

    # queries with an empty relevant set are not ranked; the ids of the
    # others are contiguous in `ids`, from bounds[q] to bounds[q + 1]
    sizes = np.array([rel.size for rel in relevant], dtype=np.intp)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    evaluated = np.flatnonzero(sizes)
    ap_blocks, precision_blocks = [], []
    for lo, hi in _row_blocks(evaluated.size, n, _SCORE_BLOCK_ELEMENTS):
        block = evaluated[lo:hi]
        relevant_mask = np.zeros((block.size, n), dtype=bool)
        owner = np.repeat(np.arange(block.size), sizes[block])
        relevant_mask[owner, ids[bounds[block[0]]:bounds[block[-1] + 1]]] = True
        order = _hamming_order(db_codes.packed, query_codes.packed[block])
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
    return EvalReport(
        map=mean_ap,
        precision_at_k=curve,
        per_query_ap=per_ap,
        n_queries=query_codes.rows,
        n_evaluated=len(per_ap),
        **meta,
    )


def evaluate_model(model: HashModel, database_features, query_features,
                   r: int = DEFAULT_GT_RANK, ks=DEFAULT_KS, *,
                   gt: GroundTruth | None = None, **meta) -> EvalReport:
    """Encode raw features, build ground truth, and score retrieval."""
    if gt is None:
        gt = ground_truth(database_features, query_features, r)
    db_codes = encode(model, database_features)
    query_codes = encode(model, query_features)
    meta.setdefault("bits", model.bits)
    meta.setdefault("method", model.method)
    return evaluate_codes(db_codes, query_codes, gt, ks, **meta)


def write_report_text(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"method: {report.method}\n")
        fh.write(f"bits: {report.bits}\n")
        if report.seed is not None:
            fh.write(f"seed: {report.seed}\n")
        if report.alpha is not None:
            fh.write(f"alpha: {report.alpha!r}\n")
        fh.write(f"queries: {report.n_queries} ({report.n_evaluated} evaluated)\n")
        fh.write(f"MAP: {report.map!r}\n")
        for k, prec in report.precision_at_k:
            fh.write(f"precision@{k}: {prec!r}\n")


def write_report_keyvalues(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"map={report.map!r}\n")
        fh.write(f"n_queries={report.n_queries}\n")
        fh.write(f"n_evaluated={report.n_evaluated}\n")
        if report.method is not None:
            fh.write(f"method={report.method}\n")
        if report.bits is not None:
            fh.write(f"bits={report.bits}\n")
        if report.seed is not None:
            fh.write(f"seed={report.seed}\n")
        if report.alpha is not None:
            fh.write(f"alpha={report.alpha!r}\n")
        for k, prec in report.precision_at_k:
            fh.write(f"precision_at_{k}={prec!r}\n")


def write_precision_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("K,precision\n")
        for k, prec in report.precision_at_k:
            fh.write(f"{k},{prec!r}\n")


def write_per_query_ap(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ap in report.per_query_ap:
            fh.write(f"{ap!r}\n")
