"""The package's public surface: `transferhash.__all__` and README's library example."""

import inspect
import re
from pathlib import Path

import pytest

import transferhash
from transferhash import itq_plus, lap_itq_plus, preprocess

README = Path(__file__).parents[1] / "README.md"
PUBLIC = {
    "BinaryCodeMatrix", "EvalReport", "GroundTruth", "HashModel", "ItqPlusState",
    "RunConfig", "SplitBundle", "cca_itq_fit", "encode", "evaluate_model", "fit_model",
    "ground_truth", "itq_plus_train", "itq_train", "lap_itq_plus_train", "load_matrix",
    "load_model", "lsh_fit", "make_split", "make_two_view_clusters", "run_bench",
    "save_matrix", "save_model", "search", "zero_center",
}


def library_use_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_all_is_the_public_api_and_resolves():
    assert len(transferhash.__all__) == len(PUBLIC)
    assert set(transferhash.__all__) == PUBLIC
    for name in transferhash.__all__:
        assert getattr(transferhash, name, None) is not None, name


def test_readme_example_uses_only_exported_names():
    used = set(re.findall(r"\bth\.(\w+)", library_use_block()))
    assert used, "README's library example names no th.<name>"
    assert used <= set(transferhash.__all__), sorted(used - set(transferhash.__all__))


def test_graph_is_a_plain_sparse_array():
    assert not hasattr(lap_itq_plus, "AdjacencyGraph")


@pytest.mark.parametrize("func, names", [
    (transferhash.itq_train, "x c iters seed * tol"),
    (transferhash.itq_plus_train, "x_t x_sc c lambda1 iters seed * tol"),
    (transferhash.lap_itq_plus_train, "x_t x_sc x_su c lambda1 lambda2 k iters seed * tol"),
    (itq_plus.alternating_solve, "x_t x_sc c lambda1 iters seed code_step * tol"),
    (preprocess.cca_fit, "x_a x_b c"),
])
def test_trainers_take_only_the_arguments_callers_set(func, names):
    # each trainer fixes its code step and start; no switch only tests would set
    params = inspect.signature(func).parameters.values()
    keyword_only = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert " ".join(positional + ["*"] * bool(keyword_only) + keyword_only) == names
