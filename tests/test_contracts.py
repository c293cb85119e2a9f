"""One contract sweep: malformed arguments raise only the library's errors.

Every trainer and step below is called with its valid arguments, except for
one or two positions that hypothesis replaces with a malformed array (0-d,
1-d, 3-d, empty, one row, another shape, NaN, inf, None), a malformed
count or weight (2.5, True, 0, -1, nan, "3", None, numpy numbers) or a
malformed query code (words out of [0, 2**64), floats, text).  Valid
replacements, such as a numpy integer count, simply run.  Whatever the call
does, only ValueError, DataError, NumericalError or ConfigError may escape:
no bare TypeError, IndexError or AttributeError.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferhash.baselines import cca_itq_fit, lsh_fit
from transferhash.bench import fit_model
from transferhash.codes import BinaryCodeMatrix, sgn
from transferhash.config import RunConfig
from transferhash.data import make_split
from transferhash.errors import ConfigError, DataError, NumericalError
from transferhash.evaluate import search
from transferhash.itq import balanced_signs, itq_train, procrustes, random_orthonormal
from transferhash.itq_plus import alternating_solve, itq_plus_train, update_b_balanced
from transferhash.lap_itq_plus import (
    box_qp_minimize,
    knn_hamming_graph,
    lap_itq_plus_train,
    laplacian,
)
from transferhash.model import LinearProjection
from transferhash.preprocess import cca_fit, project
from transferhash.synth import make_two_view_clusters

LIBRARY_ERRORS = (ValueError, DataError, NumericalError, ConfigError)

N, D_T, D_S, C = 8, 5, 4, 2
_rng = np.random.default_rng(0)
X_T = _rng.standard_normal((N, D_T))
X_S = _rng.standard_normal((N, D_S))
X_SU = _rng.standard_normal((3, D_S))
SCORES = _rng.standard_normal((N, C))
CODES = BinaryCodeMatrix(sgn(X_T[:, :C]))
LAP = laplacian(knn_hamming_graph(CODES, 2))


def malformed_arrays(valid):
    """Arrays that are not a valid stand-in for `valid`, plus None."""
    rows, cols = valid.shape

    def poisoned(spec):
        bad, i, j = spec
        out = valid.copy()
        out[i % rows, j % cols] = bad
        return out

    return st.one_of(
        st.none(),
        st.floats(-2.0, 2.0).map(np.float64),
        st.integers(0, 6).map(np.ones),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).map(np.ones),
        st.sampled_from([(0, cols), (rows, 0), (0, 0), (1, cols)]).map(np.zeros),
        st.tuples(st.integers(0, 9), st.integers(0, 7), st.integers(0, 99)).map(
            lambda s: np.random.default_rng(s[2]).standard_normal(s[:2])),
        st.tuples(st.sampled_from([np.nan, np.inf, -np.inf]),
                  st.integers(0, 99), st.integers(0, 99)).map(poisoned),
    )


ODD_NUMBERS = [2.5, True, False, 0, -1, -0.5, float("nan"), float("inf"), "3",
               None, 3.0, np.float64(2.0), np.bool_(True), [2]]
COUNTS = st.one_of(st.sampled_from(ODD_NUMBERS),
                   st.sampled_from([np.int64, np.int32, np.uint8]).flatmap(
                       lambda kind: st.integers(0, 4).map(kind)))
WEIGHTS = st.one_of(COUNTS, st.sampled_from([np.float64(0.5), np.float32(0.25), -np.inf]))
WORDS = st.one_of(st.integers(-2**65, 2**65), st.floats(), st.none(), st.booleans(), st.text())
QUERY_CODES = st.one_of(COUNTS, WORDS, st.lists(WORDS, max_size=3),
                        malformed_arrays(CODES.packed[:1].astype(np.float64)))


def array(valid):
    return valid, malformed_arrays(valid)


def count(valid):
    return valid, COUNTS


def weight(valid):
    return valid, WEIGHTS


def sign_step(scores):
    return sgn(scores), 0.0


def fit(method):
    def call(target, source, extra, bits, lambda1, lambda2, k_graph, iters):
        return fit_model(method, target, source, extra, bits=bits, lambda1=lambda1,
                         lambda2=lambda2, k_graph=k_graph, iters=iters, seed=0)
    return call


FIT_ARGS = [array(X_T), array(X_S), array(X_SU), count(C), weight(0.1), weight(0.1),
            count(3), count(2)]

# name -> (callable, [(valid value, strategy of malformed values)] per positional argument)
CONTRACTS = {
    "itq_train": (itq_train, [array(X_T), count(C), count(2)]),
    "itq_plus_train": (itq_plus_train,
                       [array(X_T), array(X_S), count(C), weight(0.1), count(2)]),
    "lap_itq_plus_train": (lap_itq_plus_train,
                           [array(X_T), array(X_S), array(X_SU), count(C), weight(0.1),
                            weight(0.1), count(3), count(2)]),
    "alternating_solve": (
        lambda x_t, x_sc, c, lambda1, iters: alternating_solve(
            x_t, x_sc, c, lambda1, iters, 0, sign_step, tol=0.0),
        [array(X_T), array(X_S), count(C), weight(0.1), count(2)]),
    "procrustes": (
        lambda a, x, r0, max_iter, tol: procrustes(a, x, r0, max_iter=max_iter, tol=tol),
        [array(SCORES), array(X_T), (None, malformed_arrays(np.eye(D_T)[:, :C])),
         count(3), weight(1e-13)]),
    "balanced_signs": (balanced_signs, [array(SCORES)]),
    "update_b_balanced": (update_b_balanced, [array(SCORES)]),
    "box_qp_minimize": (lambda k_mat, lambda2, inner_iters: box_qp_minimize(
        k_mat, LAP, lambda2, inner_iters), [array(SCORES.T), weight(0.5), count(3)]),
    "knn_hamming_graph": (lambda k: knn_hamming_graph(CODES, k), [count(2)]),
    "random_orthonormal": (lambda d, c: random_orthonormal(d, c, 0), [count(D_T), count(C)]),
    "search": (lambda query: search(CODES, query), [(CODES.packed[0], QUERY_CODES)]),
    "cca_fit": (cca_fit, [array(X_T), array(X_S), count(C)]),
    "cca_itq_fit": (cca_itq_fit, [array(X_T), array(X_S), count(C), count(2)]),
    "lsh_fit": (lambda d, c: lsh_fit(d, c, 0), [count(D_T), count(C)]),
    "project": (lambda x: project(x, LinearProjection.identity(D_T)), [array(X_T)]),
    "make_split": (make_split, [array(X_T), array(X_S), weight(0.5), weight(0.25), count(0)]),
    "make_two_view_clusters": (make_two_view_clusters,
                               [count(N), count(D_T), count(D_S), count(C), weight(0.5),
                                count(0)]),
    **{f"fit_model[{method}]": (fit(method), FIT_ARGS)
       for method in ("itq", "itq+", "lapitq+", "cca-itq", "lsh")},
}


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_valid_arguments_run(name):
    func, args = CONTRACTS[name]
    func(*(valid for valid, _ in args))


@pytest.mark.parametrize("name", sorted(CONTRACTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_malformed_arguments_raise_only_library_errors(name, data):
    func, args = CONTRACTS[name]
    spoiled = data.draw(st.sets(st.integers(0, len(args) - 1), min_size=1,
                                max_size=min(2, len(args))), label="spoiled")
    values = [data.draw(bad, label=f"argument {i}") if i in spoiled else valid
              for i, (valid, bad) in enumerate(args)]
    try:
        func(*values)
    except LIBRARY_ERRORS:
        pass


@pytest.mark.parametrize("method", ["itq", "lapitq+"])
def test_fit_model_refuses_a_source_that_is_not_a_matrix(method):
    # it read source_corr.shape[1] first, a bare IndexError
    rows = np.random.default_rng(0).standard_normal((40, 10))
    with pytest.raises(ValueError, match=r"source_corr of shape \(20,\) is not a matrix"):
        fit_model(method, rows[:20, :6], rows[:20, 6], None, bits=3, k_graph=3, iters=4)
    # a 1-D extra as wide as the source was stacked as one more source row
    with pytest.raises(ValueError, match=r"source_extra of shape \(4,\) is not a matrix"):
        fit_model(method, rows[:20, :6], rows[:20, 6:], rows[20, 6:], bits=3, k_graph=3,
                  iters=4)


@pytest.mark.parametrize("method", ["itq", "itq+", "lapitq+", "lsh", "cca-itq"])
def test_fit_model_refuses_a_source_of_another_row_count(method):
    # itq and lsh trained on it, itq+ failed with a ValueError of its own
    rows = np.random.default_rng(0).standard_normal((40, 10))
    with pytest.raises(DataError, match="target has 20 rows but source has 19"):
        fit_model(method, rows[:20, :6], rows[:19, 6:], rows[20:, 6:], bits=3,
                  k_graph=3, iters=4)


def test_fit_model_refuses_extra_source_rows_without_correspondences():
    # they were ignored and itq trained on the target alone
    target = np.random.default_rng(0).standard_normal((20, 6))
    with pytest.raises(ConfigError, match="source_extra needs source_corr"):
        fit_model("itq", target, None, np.ones(3), bits=3)
    with pytest.raises(ConfigError, match="source_extra needs source_corr"):
        fit_model("itq", target, None, np.ones((4, 5)), bits=3, iters=4)


@pytest.mark.parametrize("extra", [False, True])
def test_fit_model_refuses_a_non_finite_source(extra):
    # inf - inf in the centering once warned and trained on NaN
    rows = np.random.default_rng(0).standard_normal((40, 10))
    source, source_extra = rows[:20, 6:], rows[20:, 6:]
    (source_extra if extra else source)[3, 1] = np.inf
    with pytest.raises(DataError, match="non-finite"):
        fit_model("itq+", rows[:20, :6], source, source_extra, bits=3, iters=4)


@pytest.mark.parametrize("bits", ["3", None, 2.5, True, 0])
def test_fit_model_refuses_bits_that_are_not_a_count(bits):
    # "3" and None raised a bare TypeError at `bits < 1`
    rows = np.random.default_rng(0).standard_normal((20, 6))
    with pytest.raises(ConfigError, match=re.escape(f"bits={bits} must be an integer >= 1")):
        fit_model("itq", rows, bits=bits, iters=4)


@pytest.mark.parametrize("field, value, message", [
    ("iters", 2.5, "iters=2.5 must be an integer >= 1"),
    ("k_graph", 2.5, "k_graph=2.5 must be an integer >= 1"),
    ("iters", True, "iters=True must be an integer >= 1"),
    ("bits", (8, 2.5), "bits=2.5 must be an integer >= 1"),
    ("seeds", (1.5,), "seed=1.5 must be an integer >= 0"),
    ("seeds", (-1,), "seed=-1 must be an integer >= 0"),
    ("ks", (2.5,), "K must be a whole number, got 2.5"),
    ("ks", (5, 0), "K must be >= 1, got 0"),
    ("r_groundtruth", "5", "r_groundtruth must be a whole number, got '5'"),
    ("alpha", "0.5", "alpha must be finite and >= 0, got '0.5'"),
    ("lambda1", float("nan"), "lambda1 must be finite and >= 0, got nan"),
    ("pca_energy", "0.9", "pca_energy must be finite and >= 0, got '0.9'"),
    ("bits", 8, "bits must be a non-empty tuple, got 8"),
    ("methods", "itq", "methods must be a non-empty tuple, got 'itq'"),
    ("ks", (), "ks must be a non-empty tuple, got ()"),
    ("r_groundtruth", True, "r_groundtruth must be a whole number, got True"),
    ("ks", (10, True), "K must be a whole number, got True"),
])
def test_run_config_refuses_counts_and_weights_out_of_their_rules(field, value, message):
    # iters, k_graph or ks of 2.5 passed validation, then every bench cell
    # failed; a float seed, a string weight or a scalar bits raised a bare
    # TypeError
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig(**{field: value}).validate()


def test_run_config_takes_numpy_counts_and_whole_float_ranks():
    config = RunConfig(bits=(np.int64(8),), seeds=(np.uint8(0),), iters=np.int32(3),
                       ks=(1.0, np.float64(5)), r_groundtruth=5.0)
    assert config.validate() is config
