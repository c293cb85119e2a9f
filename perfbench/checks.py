"""Checks of the program's outputs against computations made apart from it.

Each check returns a list of problems; an empty list means the output
passed.  None of them calls into ``transferhash``: distances are taken as
direct coordinate differences (the program expands |a|^2 + |b|^2 - 2ab),
Hamming distances come from sign codes as (c - s_q . s_db) / 2 (the
program XORs packed words), and average precision is summed over hit
positions of a stable sort (the program walks the ranking in Python).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

GT_REL_TOL = 1e-9  # relative tolerance on the threshold and on borderline rows
SCORE_TOL = 1e-9  # absolute tolerance on MAP, per-query AP and P@K
ORTHO_TOL = 1e-9  # Frobenius norm of R^T R - I
TRACE_REL_TOL = 1e-9  # allowed rise between sweeps, relative to max(1, |value|)
_CHUNK_ROWS = 512


def _distances(a, b):
    """Euclidean distances by direct differences, in row blocks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for start in range(0, a.shape[0], _CHUNK_ROWS):
        yield start, cdist(a[start:start + _CHUNK_ROWS], b, "euclidean")


def reference_threshold(database, r: int) -> float:
    """Mean over database rows of the distance to the r-th nearest other row."""
    kth = []
    for start, block in _distances(database, database):
        rows = np.arange(block.shape[0])
        block[rows, start + rows] = np.inf
        kth.append(np.partition(block, r - 1, axis=1)[:, r - 1])
    return float(np.concatenate(kth).mean())


def check_ground_truth(database, queries, r: int, threshold: float, relevant) -> list[str]:
    """Recompute the threshold and relevant sets by brute force.

    The thresholds must agree within GT_REL_TOL; a row may be in one
    relevant set and not the other only if its distance lies within
    GT_REL_TOL of the threshold.
    """
    problems = []
    ref = reference_threshold(database, r)
    slack = GT_REL_TOL * max(abs(ref), 1.0)
    if not abs(threshold - ref) <= slack:
        problems.append(f"ground truth threshold {threshold!r} != brute force {ref!r}")
    if len(relevant) != np.asarray(queries).shape[0]:
        return problems + [f"{len(relevant)} relevant sets for "
                           f"{np.asarray(queries).shape[0]} queries"]
    for start, block in _distances(queries, database):
        for offset, dists in enumerate(block):
            expected = dists <= ref
            got = np.zeros_like(expected)
            got[np.asarray(relevant[start + offset], dtype=np.int64)] = True
            differ = np.flatnonzero(expected != got)
            if differ.size and not np.all(np.abs(dists[differ] - ref) <= slack):
                problems.append(f"query {start + offset}: relevant set differs from "
                                f"brute force at {differ.size} rows")
                if len(problems) >= 5:
                    return problems
    return problems


def sign_codes(model, x) -> np.ndarray:
    """The model's codes of raw rows: sgn(((x - mean) P) R), sgn(0) = +1."""
    z = (np.asarray(x, dtype=np.float64) - model.centering.mean) @ model.preprocessing.matrix
    return np.where(z @ model.rotation >= 0, 1, -1).astype(np.int8)


def reference_scores(db_signs, query_signs, relevant, ks):
    """Per-query AP and mean P@K of Hamming ranking, ties by ascending id.

    Queries with an empty relevant set are skipped.  Returns
    (per-query APs, [(K, mean precision)]).
    """
    db = np.asarray(db_signs, dtype=np.float64)
    qs = np.asarray(query_signs, dtype=np.float64)
    n_db, bits = db.shape
    aps, precisions = [], {}
    for q, rel in zip(qs, relevant):
        rel = np.asarray(rel, dtype=np.int64)
        if rel.size == 0:
            continue
        hamming = np.rint((bits - db @ q) / 2.0).astype(np.int64)
        order = np.argsort(hamming, kind="stable")
        is_rel = np.zeros(n_db, dtype=bool)
        is_rel[rel] = True
        hits = is_rel[order]
        cum = np.cumsum(hits)
        ranks = np.flatnonzero(hits) + 1
        aps.append(float(np.sum(cum[ranks - 1] / ranks)) / rel.size)
        for k in ks:
            k_eff = min(k, n_db)
            precisions.setdefault(k_eff, []).append(cum[k_eff - 1] / k_eff)
    curve = [(k, float(np.mean(v))) for k, v in sorted(precisions.items())]
    return aps, curve


def check_scores(db_signs, query_signs, relevant, ks, report) -> list[str]:
    """Compare a report's MAP, per-query AP and P@K with reference_scores."""
    aps, curve = reference_scores(db_signs, query_signs, relevant, ks)
    problems = []
    if len(aps) != report.n_evaluated or len(report.per_query_ap) != len(aps):
        return [f"{report.n_evaluated} queries evaluated, expected {len(aps)}"]
    ref_map = float(np.mean(aps)) if aps else 0.0
    if not abs(report.map - ref_map) <= SCORE_TOL:
        problems.append(f"MAP {report.map!r} != recomputed {ref_map!r}")
    worst = max((abs(a - b) for a, b in zip(report.per_query_ap, aps)), default=0.0)
    if not worst <= SCORE_TOL:
        problems.append(f"per-query AP differs by up to {worst!r}")
    got = [(int(k), float(p)) for k, p in report.precision_at_k]
    if [k for k, _ in got] != [k for k, _ in curve] or any(
            not abs(a - b) <= SCORE_TOL for (_, a), (_, b) in zip(got, curve)):
        problems.append(f"P@K {got} != recomputed {curve}")
    return problems


def random_ranking_map(relevant, n_db: int) -> float:
    """Expected MAP of a uniformly random ranking of n_db rows.

    For R relevant rows among N, E[AP] = (H_N + (R-1)(N - H_N)/(N-1)) / N,
    with H_N the N-th harmonic number; queries with R = 0 are skipped.
    """
    harmonic = math.fsum(1.0 / k for k in range(1, n_db + 1))
    values = []
    for rel in relevant:
        r = len(rel)
        if r == 0:
            continue
        spread = (r - 1) * (n_db - harmonic) / (n_db - 1) if n_db > 1 else 0.0
        values.append((harmonic + spread) / n_db)
    return float(np.mean(values)) if values else 0.0


def check_above_random(map_value: float, relevant, n_db: int) -> list[str]:
    baseline = random_ranking_map(relevant, n_db)
    if not map_value > baseline:
        return [f"MAP {map_value!r} is not above a random ranking's {baseline!r}"]
    return []


def check_rotation(rotation) -> list[str]:
    r = np.asarray(rotation, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] < r.shape[1]:
        return [f"rotation has shape {r.shape}"]
    error = float(np.linalg.norm(r.T @ r - np.eye(r.shape[1])))
    if not error <= ORTHO_TOL:
        return [f"rotation is not orthonormal: |R^T R - I| = {error!r}"]
    return []


def check_trace(trace, max_len: int, *, monotone: bool = True) -> list[str]:
    """An objective trace: 1..max_len finite entries, non-increasing if monotone."""
    values = np.asarray(trace, dtype=np.float64)
    if not 1 <= values.size <= max_len:
        return [f"trace has {values.size} entries, cap is {max_len}"]
    if not np.isfinite(values).all():
        return ["trace has non-finite entries"]
    if monotone:
        rise = np.diff(values) - TRACE_REL_TOL * np.maximum(1.0, np.abs(values[:-1]))
        if np.any(rise > 0):
            step = int(np.argmax(rise > 0)) + 1
            return [f"objective rises at step {step}: "
                    f"{values[step - 1]!r} -> {values[step]!r}"]
    return []
