"""Encode, search by Hamming distance, and score retrieval quality.

Ground truth follows the nearest-neighbor threshold protocol: a database
point is relevant to a query when their original-feature Euclidean
distance is at most the mean distance-to-rth-neighbor over the database.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .codes import BinaryCodeMatrix, sgn
from .errors import DataError
from .model import HashModel

log = logging.getLogger(__name__)

DEFAULT_KS = (1, 5, 10, 20, 50, 100)
DEFAULT_GT_RANK = 50


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


@dataclass(frozen=True, eq=False)
class HammingIndex:
    """Immutable packed-code database with original row ids."""

    codes: BinaryCodeMatrix
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.ids is None:
            object.__setattr__(self, "ids", np.arange(self.codes.rows))
        ids = np.asarray(self.ids)
        if ids.shape[0] != self.codes.rows:
            raise ValueError("ids length must match code count")
        if np.unique(ids).size != ids.size:
            raise ValueError("ids must be unique")
        object.__setattr__(self, "ids", ids)

    @property
    def size(self) -> int:
        return self.codes.rows


def search(index: HammingIndex, query_code) -> np.ndarray:
    """All database ids by ascending Hamming distance, ties by ascending id."""
    if index.size == 0:
        raise ValueError("cannot search an empty index")
    query_code = np.asarray(query_code, dtype=np.uint64).reshape(-1)
    if query_code.shape[0] != index.codes.packed.shape[1]:
        raise ValueError("query code width does not match index")
    dists = np.bitwise_count(index.codes.packed ^ query_code).sum(axis=1)
    order = np.lexsort((index.ids, dists))
    return index.ids[order]


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-query relevant-id sets under a Euclidean distance threshold."""

    relevant: tuple
    threshold: float
    r: int


def _pairwise_distances(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.sqrt(np.clip(sq, 0.0, None))


def ground_truth(database_features, query_features, r: int = DEFAULT_GT_RANK,
                 *, average_over: str = "database") -> GroundTruth:
    """Relevance threshold = mean distance to the r-th nearest neighbor.

    The mean is taken over database points by default (each against the
    other database points); average_over="queries" switches to the mean
    over queries of the distance to their r-th nearest database point.
    """
    db = np.asarray(database_features, dtype=np.float64)
    queries = np.asarray(query_features, dtype=np.float64)
    if db.shape[0] < 2:
        raise DataError("ground_truth: need at least 2 database points")
    if average_over not in ("database", "queries"):
        raise ValueError(f"unknown average_over {average_over!r}")

    if average_over == "database":
        r_eff = min(r, db.shape[0] - 1)
        if r_eff < r:
            log.warning("ground_truth: r=%d clamped to %d (database size %d)",
                        r, r_eff, db.shape[0])
        inner = _pairwise_distances(db, db)
        np.fill_diagonal(inner, np.inf)
        kth = np.partition(inner, r_eff - 1, axis=1)[:, r_eff - 1]
        threshold = float(kth.mean())
    else:
        r_eff = min(r, db.shape[0])
        if r_eff < r:
            log.warning("ground_truth: r=%d clamped to %d (database size %d)",
                        r, r_eff, db.shape[0])
        outer = _pairwise_distances(queries, db)
        kth = np.partition(outer, r_eff - 1, axis=1)[:, r_eff - 1]
        threshold = float(kth.mean())

    cross = _pairwise_distances(queries, db)
    relevant = tuple(np.flatnonzero(row <= threshold) for row in cross)
    return GroundTruth(relevant=relevant, threshold=threshold, r=r_eff)


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
    """Rank every query against the database and aggregate MAP/precision@K."""
    index = HammingIndex(db_codes)
    per_ap = []
    curve_acc: dict[int, list[float]] = {}
    for qrow, relevant in zip(query_codes.packed, gt.relevant):
        if len(relevant) == 0:
            continue
        ranked = search(index, qrow)
        per_ap.append(average_precision(ranked, relevant))
        for k_eff, prec in precision_at_k(ranked, relevant, ks):
            curve_acc.setdefault(k_eff, []).append(prec)
    mean_ap = sum(per_ap) / len(per_ap) if per_ap else 0.0
    curve = [(k, sum(v) / len(v)) for k, v in sorted(curve_acc.items())]
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
                   gt: GroundTruth | None = None,
                   average_over: str = "database", **meta) -> EvalReport:
    """Encode raw features, build ground truth, and score retrieval."""
    if gt is None:
        gt = ground_truth(database_features, query_features, r, average_over=average_over)
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
