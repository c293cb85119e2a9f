"""perfbench names package functions by string and by import; they must still exist.

perfbench's files are read as source, not imported or edited: the
LAYER_SPANS of workloads.py and the spans its probe wraps or watches must
resolve to functions in transferhash, or `perfbench/run.py --trace 1`
fails; and every name a perfbench file imports from transferhash, or reads
as an attribute of a transferhash module, must still be there.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from transferhash import bench, lap_itq_plus

PERFBENCH = Path(__file__).parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
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


def dotted(node):
    """"a.b.c" for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def imported_names(source):
    """Every transferhash name a module's source imports or reads, dotted in full."""
    tree = ast.parse(source)
    modules = {"transferhash": "transferhash"}  # local name -> transferhash module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "transferhash":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "transferhash")
    for node in ast.walk(tree):
        chain = dotted(node) if isinstance(node, ast.Attribute) else None
        head, _, rest = (chain or "").partition(".")
        if rest and head in modules:
            names.add(f"{modules[head]}.{rest}")
    return names


def resolves(name):
    """Whether a dotted transferhash name exists, followed up to the first
    object that is not a module (a class's or function's attributes are not)."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not inspect.ismodule(obj):
            return True
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_reference_parser_finds_imports_and_attribute_reads():
    names = imported_names("import transferhash.itq\n"
                           "from transferhash import bench as b\n"
                           "from transferhash.codes import sgn\n"
                           "b.fit_model(transferhash.itq.procrustes, sgn)\n")
    assert {"transferhash.itq", "transferhash.bench", "transferhash.codes.sgn",
            "transferhash.bench.fit_model", "transferhash.itq.procrustes"} <= names
    assert not resolves("transferhash.itq.check_shapes")
    assert not resolves("transferhash.no_such_module.f")


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda path: path.name)
def test_perfbench_imports_resolve(path):
    names = imported_names(path.read_text(encoding="utf-8"))
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, f"{path.name} uses names transferhash no longer has: {missing}"
