"""Fits, ground truth and scores agree across BLAS thread counts.

The same work runs in two processes, with OPENBLAS_NUM_THREADS=1 and =2, on
~833-row splits of the criterion-8 corpus.  Rotations are not compared: the
Procrustes product X^T A sums over the rows, and its last bits (~1e-15) may
depend on how many threads share that sum.  Codes, ground truth and MAP are.
An 833-row database is one block of ground truth (a SYRK), so one more
ground truth runs on 2,000 rows drawn the same way, whose database blocks
are GEMMs with -2 folded in.

On a 2-CPU host the =1 child shares ground truth's, ranking's and the kNN
graph's row blocks between 2 workers, and splits the ground-truth block
budget in two for them; the =2 child runs 1 worker on whole blocks.  So the
equality checks cover the worker count and those block sizes too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import ctypes, glob, hashlib, json, os, sys
import numpy as np
from transferhash.bench import fit_model
from transferhash.data import make_split
from transferhash import evaluate
from transferhash.evaluate import encode, evaluate_model, ground_truth
from transferhash.synth import make_two_view_clusters


def blas_threads():
    # numpy's bundled OpenBLAS; None where it is not found
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return get()
    return None


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


target, source, _ = make_two_view_clusters(
    1250, 64, 40, clusters=5, noise=3.0, seed=0,
    source_noise=0.1, latent_dim=16, center_spread=5.0)
out = {"threads": blas_threads(), "splits": []}
for seed in (3, 4, 5):
    split = make_split(target, source, 1.0, 1 / 3, seed)
    db, queries = split.target_train, split.target_test
    gt = ground_truth(db, queries, 50)
    cell = {"rows": db.shape[0], "gt": [repr(gt.threshold), digest(gt.ids, gt.bounds)]}
    for method, iters in (("itq", 15), ("itq+", 10), ("lapitq+", 5)):
        fit = fit_model(method, db, split.source_corr, split.source_extra, bits=32,
                        lambda1=0.3, lambda2=0.01, k_graph=5, iters=iters, seed=seed)
        report = evaluate_model(fit.model, db, queries, 50, (1, 10, 50), gt=gt)
        cell[method] = [digest(encode(fit.model, db).packed,
                               encode(fit.model, queries).packed),
                        repr(report.map)]
    out["splits"].append(cell)
rows, _, _ = make_two_view_clusters(
    2500, 64, 40, clusters=5, noise=3.0, seed=0,
    source_noise=0.1, latent_dim=16, center_spread=5.0)
gt = ground_truth(rows[:2000], rows[2000:], 50)
out["blocks"] = len(evaluate._row_blocks(2000, 2000, evaluate._BLOCK_ELEMENTS))
out["blocked_gt"] = [repr(gt.threshold), digest(gt.ids, gt.bounds)]
print(json.dumps(out))
"""


def run_child(threads: int) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, "-c", CHILD], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_codes_ground_truth_and_map_do_not_depend_on_blas_threads():
    children = {threads: run_child(threads) for threads in (1, 2)}
    results = {}
    for threads, child in children.items():
        stdout, stderr = child.communicate(timeout=600)
        assert child.returncode == 0, stderr
        results[threads] = json.loads(stdout)
        assert results[threads]["threads"] in (None, threads)
    one, two = results[1]["splits"], results[2]["splits"]
    assert [cell["rows"] for cell in one] == [833, 833, 833]
    assert one == two
    assert results[1]["blocks"] > 1
    assert results[1]["blocked_gt"] == results[2]["blocked_gt"]
