"""perfbench names package functions by string; they must still exist.

perfbench/workloads.py is read as source, not imported or edited: its
LAYER_SPANS and the spans its probe wraps or watches must resolve to
functions in transferhash, or `perfbench/run.py --trace 1` fails.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from transferhash import bench, lap_itq_plus

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.py"
PROBED = {"bench.fit_model", "evaluate.ground_truth", "evaluate.evaluate_model",
          "lap_itq_plus.box_qp_minimize"}


def workloads_tree():
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def layer_spans():
    for node in ast.walk(workloads_tree()):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_SPANS" for t in node.targets):
            return [span for span, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/workloads.py defines no LAYER_SPANS")


def probed_spans():
    """First arguments of every probe.wrap(...) and probe.watch(...) call."""
    return {node.args[0].value for node in ast.walk(workloads_tree())
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("wrap", "watch") and node.args
            and isinstance(node.args[0], ast.Constant)}


def resolve(span):
    module_name, func_name = span.rsplit(".", 1)
    module = importlib.import_module(f"transferhash.{module_name}")
    return getattr(module, func_name, None)


def test_probe_parser_finds_the_known_spans():
    assert PROBED <= probed_spans()


@pytest.mark.parametrize("span", sorted(set(layer_spans()) | probed_spans()))
def test_perfbench_span_resolves_to_a_function(span):
    assert inspect.isfunction(resolve(span)), f"transferhash.{span} is not a function"


def test_box_qp_takes_inner_iters_fourth():
    # the box-QP watcher reads the inner step cap as args[3]
    params = list(inspect.signature(resolve("lap_itq_plus.box_qp_minimize")).parameters)
    assert params[3] == "inner_iters"


def test_lapitq_plus_passes_the_step_cap_fourth_and_positionally(monkeypatch):
    # perfbench's box-QP watcher reads the cap as args[3]; a keyword cap would crash it
    solve, caps = lap_itq_plus.box_qp_minimize, []

    def watched(*args, **kwargs):
        caps.append((args[3:], kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(lap_itq_plus, "box_qp_minimize", watched)
    rows = np.random.default_rng(0).standard_normal((40, 10))
    bench.fit_model("lapitq+", rows[:20, :6], rows[:20, 6:], rows[20:, 6:], bits=3,
                    k_graph=3, iters=4, seed=0)
    assert caps and all(cap == ((lap_itq_plus.DEFAULT_INNER_ITERS,), {}) for cap in caps)
