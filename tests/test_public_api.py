"""The package's public surface: `transferhash.__all__` and README's library example."""

import re
from pathlib import Path

import transferhash
from transferhash import lap_itq_plus

README = Path(__file__).parents[1] / "README.md"
PUBLIC = {
    "BinaryCodeMatrix", "EvalReport", "GroundTruth", "HashModel", "ItqPlusState",
    "RunConfig", "SplitBundle", "cca_itq_fit", "encode", "evaluate_model", "fit_model",
    "ground_truth", "itq_plus_train", "itq_train", "lap_itq_plus_train", "load_matrix",
    "load_model", "lsh_fit", "make_split", "make_two_view_clusters", "run_bench",
    "save_matrix", "save_model", "search", "with_pipeline", "zero_center",
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
