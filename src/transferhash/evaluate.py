"""Encode, search by Hamming distance, and score retrieval quality.

Ground truth follows the nearest-neighbor threshold protocol: a database
point is relevant to a query when their original-feature Euclidean
distance is at most the mean distance-to-rth-neighbor over the database.

Ground truth and scoring work on blocks of rows against the whole
database: ground truth peaks at about _BLOCK_ELEMENTS + _CHUNK_ELEMENTS
values, not db x db.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .codes import WORD_BITS, BinaryCodeMatrix, sgn
from .errors import DataError, check_whole
from .model import HashModel

log = logging.getLogger(__name__)

DEFAULT_KS = (1, 5, 10, 20, 50, 100)
DEFAULT_GT_RANK = 50

# rows per block = element budget // database rows (at least one).  Ground
# truth's BLAS products run slower on small blocks (2^16 took twice as long as
# 2^21); with a reused product buffer, 2^19, 2^20 and 2^21 took 0.54, 0.54 and
# 0.57 s on an 8,000-row database, and 2^20 keeps up to 1,024 rows in one
# block.  Each block's product is then finished in chunks of 2^16 values
# (512 KB, within L2), so the passes after the GEMM do not stream the block
# through L3 one after another.
# Scoring's largest temporary is a block's ranking, 8 bytes a value: 1 MB at
# 2^17.  At 2^21 values the allocator served its temporaries from reused heap
# or from newly faulted pages depending on what the process freed before, so
# its speed varied from run to run; from 2^15 to 2^21 no size beat 2^17 by
# more than the spread of repeated calls.
_BLOCK_ELEMENTS = 1 << 20
_CHUNK_ELEMENTS = 1 << 16
_FOLD_FLOOR = 2.0 ** -458  # see _fold_is_exact
_SCORE_BLOCK_ELEMENTS = 1 << 17


def encode(model: HashModel, x) -> BinaryCodeMatrix:
    """Hash raw (uncentered) rows: sgn((X - mean) @ model.encoder).

    Rows that are not finite, or whose centering or scores overflow
    float64, raise DataError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DataError(
            f"encode: input has {x.shape[1] if x.ndim == 2 else '?'} columns, "
            f"model expects {model.input_dim}"
        )
    with np.errstate(over="ignore"):
        z = model.centering.apply(x)
    # the centered rows are finite exactly when x is and x - mean does not overflow
    if not np.isfinite(z).all():
        if not np.isfinite(x).all():
            raise DataError("encode: input contains non-finite values")
        raise DataError("encode: subtracting the model's mean from the input "
                        "overflows float64")
    with np.errstate(over="ignore", invalid="ignore"):
        z = z @ model.encoder  # rebound, so the centered rows are freed
    if not np.isfinite(z).all():
        raise DataError("encode: the input's scores overflow float64")
    return BinaryCodeMatrix(sgn(z))


def _row_blocks(n: int, width: int, elements: int) -> list:
    """(start, stop) of near-equal blocks of n rows, each at most
    elements // width rows (and at least one)."""
    blocks = -(-n // max(1, elements // max(1, width)))
    return [(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]


def _hamming_distances(db_packed, query_packed) -> np.ndarray:
    """Hamming distance of every query row to every database row.

    Summed per word in the narrowest unsigned type that holds them.  One
    word needs no sum: bitwise_count's uint8 already is that type.
    """
    words = db_packed.shape[1]
    if words == 1:
        return np.bitwise_count(query_packed[:, 0, None] ^ db_packed[:, 0])
    dists = np.zeros((query_packed.shape[0], db_packed.shape[0]),
                     dtype=np.min_scalar_type(words * WORD_BITS))
    for w in range(words):
        dists += np.bitwise_count(query_packed[:, w, None] ^ db_packed[:, w])
    return dists


def _hamming_order(db_packed, query_packed) -> np.ndarray:
    """Per query row, every database row by ascending Hamming distance, ties by row.

    numpy's stable sort orders the narrow unsigned distances by radix sort.
    """
    return np.argsort(_hamming_distances(db_packed, query_packed), axis=1, kind="stable")


def search(codes: BinaryCodeMatrix, query_code) -> np.ndarray:
    """All database rows by ascending Hamming distance, ties by ascending row.

    query_code is a packed code, one word per 64 bits of the codes as
    codes.packed holds them: integers in [0, 2**64), Python or numpy.
    Anything else (a negative or larger integer, a float even if whole, a
    bool, None, text) or another word count is a ValueError.
    """
    if codes.rows == 0:
        raise ValueError("cannot search an empty code matrix")
    words = np.asarray(query_code, dtype=object).ravel().tolist()  # no float detour
    if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool)
               and 0 <= w < 1 << WORD_BITS for w in words):
        raise ValueError(f"query code {query_code!r} must hold integers in [0, 2**64), "
                         f"one per {WORD_BITS}-bit word")
    if len(words) != codes.packed.shape[1]:
        raise ValueError("query code width does not match the database codes")
    return _hamming_order(codes.packed, np.array(words, dtype=np.uint64).reshape(1, -1))[0]


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-query relevant database rows under a Euclidean distance threshold.

    Query q's rows are ids[bounds[q]:bounds[q + 1]], query after query.
    Construction copies both into read-only intp arrays and checks them:
    ids must be whole numbers and bounds rise from 0 to ids.size, else
    DataError.  So no GroundTruth is malformed or changes after it is
    built.  Per-query sets built by hand go through from_sets().
    """

    ids: np.ndarray
    bounds: np.ndarray
    threshold: float
    r: int
    _id_range: tuple = field(init=False, repr=False)  # lowest, highest; 0, -1 if none

    def __post_init__(self):
        for name in ("ids", "bounds"):
            given = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):
                whole = given.astype(np.intp) if given.dtype.kind in "iuf" else None
            if given.ndim != 1 or whole is None or not np.array_equal(whole, given):
                raise DataError(f"GroundTruth: {name} of shape {given.shape} is not 1-D "
                                f"or holds values that are not whole numbers")
            whole.flags.writeable = False
            object.__setattr__(self, name, whole)
        ids, bounds = self.ids, self.bounds
        if not (bounds.size and bounds[0] == 0 and bounds[-1] == ids.size
                and np.all(bounds[1:] >= bounds[:-1])):
            raise DataError(f"GroundTruth: bounds must rise from 0 to {ids.size}, "
                            f"the number of ids")
        object.__setattr__(self, "_id_range",
                           (int(ids.min()), int(ids.max())) if ids.size else (0, -1))

    @classmethod
    def from_sets(cls, relevant, threshold: float, r: int) -> "GroundTruth":
        """A GroundTruth copied from per-query sets of row ids (arrays or lists)."""
        sets = [np.asarray(rel).reshape(-1) for rel in relevant]
        return cls(np.concatenate([np.empty(0, dtype=np.intp), *sets]),
                   np.cumsum([0] + [rel.size for rel in sets]), threshold, r)

    @property
    def relevant(self) -> tuple:
        """Query q's relevant rows, as read-only views of ids, one per query."""
        edges = self.bounds.tolist()
        return tuple(self.ids[lo:hi] for lo, hi in zip(edges, edges[1:]))


def _squared_distance_chunks(a, b, b_norms, product, sums, fold):
    """|a|^2 + |b|^2 - 2ab per row pair, given b's squared row norms; may dip below 0.

    One np.matmul writes -2ab for all of a's rows into product; the rows
    are then finished in place a chunk of about _CHUNK_ELEMENTS values at
    a time, with sums (at least a chunk's rows) for |a|^2 + |b|^2, as
    (|a|^2 + |b|^2) + (-2ab) in that order, so every value has the bits
    of the plain numpy expression (|a|^2 + |b|^2) - 2 * ab.  Yields
    (first row, finished chunk).

    With fold (the magnitudes keep it exact, see _fold_is_exact) a GEMM
    takes -2 on its row operand: -2a @ b.T.  numpy forms a @ a.T by SYRK,
    which a scaled copy would not take, and a copy of a row block that is
    not C-contiguous may take another BLAS call; those products, and any
    without fold, are multiplied by -2 a chunk at a time, which is exact.
    """
    product = product[:a.shape[0]]
    fold = fold and a.flags.c_contiguous and not (
        a.shape == b.shape and a.ctypes.data == b.ctypes.data)
    np.matmul(-2.0 * a if fold else a, b.T, out=product)
    a_norms = np.sum(a * a, axis=1)
    for lo, hi in _row_blocks(a.shape[0], b.shape[0], _CHUNK_ELEMENTS):
        chunk = product[lo:hi]
        if not fold:
            chunk *= -2.0
        np.add.outer(a_norms[lo:hi], b_norms, out=sums[:hi - lo])
        np.add(sums[:hi - lo], chunk, out=chunk)
        yield lo, chunk


def _fold_is_exact(*magnitudes) -> bool:
    """Whether every nonzero value of the arrays is at least _FOLD_FLOOR.

    Then every product and partial sum of a GEMM over them is zero or a
    nonzero multiple of 2^-1020 (each double >= 2^-458 is a multiple of
    2^-510), so it stays normal, and scaling an operand by -2 scales each
    of them exactly: -2a @ b.T has the bits of -2 * (a @ b.T).  Signs of
    zeros cannot matter: S + (+-0) = S - (+-0) for S >= +0.
    """
    if min(m.min(initial=np.inf) for m in magnitudes) >= _FOLD_FLOOR:
        return True  # no zero either: the masked minimum is not needed
    return all(np.min(m, where=m > 0, initial=np.inf) >= _FOLD_FLOOR for m in magnitudes)


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
    r = check_whole("r", r, 1)
    db = np.asarray(database_features, dtype=np.float64)
    queries = np.asarray(query_features, dtype=np.float64)
    if db.ndim != 2 or queries.ndim != 2 or queries.shape[1] != db.shape[1]:
        raise DataError(
            f"ground_truth: queries of shape {queries.shape} and a database of "
            f"shape {db.shape} are not two matrices of equal width")
    if db.shape[0] < 2:
        raise DataError("ground_truth: need at least 2 database points")
    # |a|^2 + |b|^2 - 2ab must not overflow: each term stays below max/4.  A
    # NaN fails that comparison, so it is caught first (np.maximum keeps it)
    magnitudes = np.abs(db), np.abs(queries)
    largest = np.maximum(magnitudes[0].max(), magnitudes[1].max(initial=0.0))
    if not np.isfinite(largest):
        raise DataError("ground_truth: features contain non-finite values")
    if largest > np.sqrt(np.finfo(np.float64).max / (4 * max(1, db.shape[1]))):
        raise DataError(f"ground_truth: a feature value of magnitude {largest:.3g} "
                        f"overflows squared distances")

    n = db.shape[0]
    r_eff = min(r, n - 1)
    if r_eff < r:
        log.warning("ground_truth: r=%d clamped to %d (database size %d)",
                    r, r_eff, n)
    db_blocks = _row_blocks(n, n, _BLOCK_ELEMENTS)
    query_blocks = _row_blocks(queries.shape[0], n, _BLOCK_ELEMENTS)
    # folding -2 trades a pass over each GEMM's product (rows x n) for one
    # over its row operand (rows x d), after _fold_is_exact reads every
    # feature once; a single database block is a SYRK and never folds
    folded_rows = queries.shape[0] + (n if len(db_blocks) > 1 else 0)
    fold = (folded_rows * (n - db.shape[1]) > (n + queries.shape[0]) * db.shape[1]
            and _fold_is_exact(*magnitudes))
    del magnitudes
    db_norms = np.sum(db * db, axis=1)
    # reused, they spare the kernel faulting in fresh pages per block
    block_rows = max(hi - lo for lo, hi in db_blocks + query_blocks)
    product = np.empty((block_rows, n))
    sums = np.empty((min(block_rows, max(1, _CHUNK_ELEMENTS // n)), n))
    kth = np.empty(n)
    for lo, hi in db_blocks:
        for start, inner in _squared_distance_chunks(db[lo:hi], db, db_norms, product,
                                                     sums, fold):
            first = lo + start
            # inner[i, first + i]: the chunk is contiguous, so its diagonal is
            # every (n + 1)-th value from first on
            inner.reshape(-1)[first::n + 1] = np.inf
            # sqrt(clip(.)) is monotone, so it maps the r-th smallest square to
            # the r-th smallest distance: only the selected values need it.
            # Squares >= +0 (none is -0.0) sort as their int64 bits do, and
            # negative ones sort first in either order, so both pick the same
            # square or a negative one, which clip maps to +0
            inner.view(np.int64).partition(r_eff - 1, axis=1)
            kth[first:first + inner.shape[0]] = inner[:, r_eff - 1]
    threshold = float(np.sqrt(np.clip(kth, 0.0, None)).mean())

    bound = _square_bound(threshold)
    flat = [np.empty(0, dtype=np.intp)]
    for lo, hi in query_blocks:
        for start, cross in _squared_distance_chunks(queries[lo:hi], db, db_norms, product,
                                                     sums, fold):
            flat.append((lo + start) * n + np.flatnonzero(cross <= bound))
    # flat index q * n + row of every relevant pair, query after query, so
    # query q's pairs start at the first index >= q * n
    flat = np.concatenate(flat)
    return GroundTruth(flat % n, np.searchsorted(flat, np.arange(queries.shape[0] + 1) * n),
                       threshold, r_eff)


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
        k = check_whole("K", k, 1)
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
    gt's ids were checked when it was built (see GroundTruth); each call
    checks what depends on its own arguments: K, the code widths, the query
    count, and that every id names one of this database's rows.
    Queries are ranked and scored a block at a time, from the ranks of their
    relevant rows alone: the j-th hit at rank r adds j / r to the AP, and
    P@K counts the hits ranked K or better.  A query's terms are added one
    after another, as average_precision adds them, so both give the same
    bits; a pairwise sum (np.sum) would round differently.
    """
    ks = [check_whole("K", k, 1) for k in ks]
    if query_codes.bits != db_codes.bits:
        raise ValueError(f"query codes have {query_codes.bits} bits, "
                         f"database codes {db_codes.bits}")
    n = db_codes.rows
    sizes = np.diff(gt.bounds)
    if sizes.size != query_codes.rows:
        raise DataError(f"evaluate_codes: ground truth has {sizes.size} "
                        f"relevant sets for {query_codes.rows} queries")
    lowest, highest = gt._id_range
    if lowest < 0 or highest >= n:
        raise DataError(f"evaluate_codes: ground truth names rows {lowest}.."
                        f"{highest} of a {n}-row database")
    if any(k > n for k in ks):
        log.warning("evaluate_codes: K=%s clamped to the database size %d",
                    [k for k in ks if k > n], n)
        ks = [min(k, n) for k in ks]
    k_values = np.array(sorted(set(ks)), dtype=np.intp)

    # queries with an empty relevant set are not ranked
    ids, bounds, evaluated = gt.ids, gt.bounds, np.flatnonzero(sizes)
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
