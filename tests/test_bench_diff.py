"""tools/bench_diff.py on small synthetic BENCH_*.json records."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_diff", Path(__file__).parents[1] / "tools" / "bench_diff.py")
bench_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_diff)


def record(medians: dict) -> dict:
    """A record in bench_pairs' layout with the given change medians."""
    def metric(median):
        side = {"median": median, "q1": median, "q3": median, "runs": [median]}
        return {"unit": "s", "better": "lower", "bound": 0.2, "parent": side,
                "change": side, "median_change": 0.0, "change_wins": 0,
                "change_losses": 0, "parent_iqr_over_median": 0.0,
                "verdict": "identical in every pair"}

    return {"change": "", "claim": None, "notes": [], "workloads": {
        workload: {"correct": {"parent": True, "change": True},
                   "metrics": {name: metric(v) for name, v in values.items()}}
        for workload, values in medians.items()}}


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def test_prints_both_change_medians_and_the_relative_difference(tmp_path, capsys):
    old = write(tmp_path, "old.json", record({
        "retrieval-large": {"queries_per_s": 5000.0, "wall_s": 2.0},
        "paper-transfer": {"wall_s": 0.5}}))
    new = write(tmp_path, "new.json", record({
        "retrieval-large": {"queries_per_s": 7500.0, "wall_s": 1.5, "peak_rss_mb": 90.0},
        "graph-dense": {"wall_s": 1.0}}))
    assert bench_diff.main([old, new]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == ["workload", "metric", "old", "median", "new", "median", "relative"]
    assert lines[1:] == [
        ["retrieval-large", "queries_per_s", "5000", "7500", "+50.00%"],
        ["retrieval-large", "wall_s", "2", "1.5", "-25.00%"],
        ["retrieval-large", "peak_rss_mb", "-", "90", "-"],
        ["paper-transfer", "wall_s", "0.5", "-", "-"],
        ["graph-dense", "wall_s", "-", "1", "-"],
    ]


def test_a_zero_old_median_has_no_relative_difference():
    assert bench_diff.rows({"w": {"a": 0.0, "b": 0.0}}, {"w": {"a": 0.0, "b": 1.0}}) == [
        ("w", "a", 0.0, 0.0, 0.0), ("w", "b", 0.0, 1.0, None)]


def test_reads_the_committed_records():
    root = Path(__file__).parents[1]
    medians = bench_diff.change_medians(str(root / "BENCH_warm-start.json"))
    assert set(medians) == {"paper-transfer", "graph-dense", "retrieval-large"}
    assert medians["retrieval-large"]["queries_per_s"] > 0


@pytest.mark.parametrize("content", [
    "not json {",
    "[1, 2]",
    {"workloads": []},
    {"change": "no workloads"},
    {"workloads": {"w": {"correct": True}}},
    {"workloads": {"w": {"metrics": {"wall_s": {"parent": {"median": 1.0}}}}}},
    {"workloads": {"w": {"metrics": {"wall_s": {"change": {"median": "fast"}}}}}},
    {"workloads": {"w": {"metrics": {"wall_s": 1.0}}}},
])
@pytest.mark.parametrize("bad_side", ["old", "new"])
def test_exits_2_on_a_file_not_in_the_record_format(tmp_path, capsys, content, bad_side):
    good = write(tmp_path, "good.json", record({"w": {"wall_s": 1.0}}))
    bad = write(tmp_path, "bad.json", content)
    argv = [bad, good] if bad_side == "old" else [good, bad]
    assert bench_diff.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad.json" in captured.err


def test_exits_2_on_an_unreadable_file(tmp_path, capsys):
    good = write(tmp_path, "good.json", record({"w": {"wall_s": 1.0}}))
    assert bench_diff.main([good, str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err
    assert bench_diff.main([str(tmp_path), good]) == 2


def test_usage_error_without_two_files(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_diff.main(["only_one.json"])
    assert exc.value.code == 2
