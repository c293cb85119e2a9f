"""tools/bench_pairs.py's seed parser and verdicts; no perfbench run is made."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]


def metric(better, bound=0.1):
    return {"name": "m", "unit": "s", "better": better, "bound": bound}


def test_parse_seeds_ranges_lists_and_repeats():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("5,1,3") == [1, 3, 5]
    assert bench_pairs.parse_seeds("3-5,4,9") == [3, 4, 5, 9]
    assert bench_pairs.parse_seeds("7-7") == [7]


@pytest.mark.parametrize("text", ["10-1", "", "1,,2", "3-", "-2", "a"])
def test_parse_seeds_rejects_empty_or_reversed(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(text)


def test_main_reports_a_reversed_range_as_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", ".", "--change", ".", "--out", "x.json",
                          "--seeds", "10-1"])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("claim", ["paper-transfer/wall_s", "paper-transfer:",
                                   "paper-transfer:wall_s:x", "graph-dense:wall_s",
                                   "paper-transfer:no_such_metric"])
def test_main_checks_the_claim_before_any_run(claim, monkeypatch, tmp_path, capsys):
    def run_once(*args):
        raise AssertionError("a run started before --claim was checked")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", ".", "--change", str(Path(__file__).parents[1]),
                          "--out", str(out), "--workloads", "paper-transfer",
                          "--claim", claim])
    assert exc.value.code == 2
    assert "--claim" in capsys.readouterr().err
    assert not out.exists()


def test_main_starts_the_runs_after_a_valid_claim(monkeypatch, tmp_path):
    class Started(Exception):
        pass

    def run_once(*args):
        raise Started

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(Started):
        bench_pairs.main(["--parent", ".", "--change", str(Path(__file__).parents[1]),
                          "--out", str(tmp_path / "x.json"), "--workloads", "graph-dense",
                          "--claim", "graph-dense:fit_s.lapitqplus"])


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_compare_verdicts_in_both_directions(better):
    sign = 1.0 if better == "higher" else -1.0

    def verdict(change):
        return bench_pairs.compare(metric(better), PARENT, change)["verdict"]

    assert verdict(list(PARENT)) == "identical in every pair"
    assert verdict([p * (1 + sign * 0.5) for p in PARENT]) == "no worse (improved)"
    # wins nine pairs of ten: no worse, but not improved in every pair
    mixed = [p * (1 + sign * 0.5) for p in PARENT[:9]] + [PARENT[9] * (1 - sign * 0.5)]
    assert verdict(mixed) == "no worse"
    assert verdict([p * (1 - sign * 0.05) for p in PARENT]) == "within bound"
    assert verdict([p * (1 - sign * 0.5) for p in PARENT]) == "WORSE THAN BOUND"


# graph-dense peak_rss_mb, parent runs of BENCH_groundtruth-buffers.json: two
# levels, ~117 and ~122 MB, a quartile spread of 3.3% of the median
BIMODAL = [117.38671875, 119.23828125, 117.375, 116.94140625, 117.10546875,
           117.3984375, 123.59375, 121.6484375, 117.125, 123.3515625]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_spread_wider_than_the_bound_leaves_the_metric_unresolved(better):
    sign = 1.0 if better == "higher" else -1.0

    def verdict(bound, change):
        return bench_pairs.compare(metric(better, bound), BIMODAL, change)["verdict"]

    entry = bench_pairs.compare(metric(better, 0.05), BIMODAL, list(BIMODAL))
    assert entry["parent_iqr_over_median"] == pytest.approx(0.033, abs=0.001)
    # the same levels in another order: within the 5% bound, unresolved at 3%
    shuffled = BIMODAL[1:] + BIMODAL[:1]
    assert verdict(0.05, shuffled) in ("within bound", "no worse")
    assert verdict(0.03, shuffled) == "unresolved"
    assert verdict(0.03, [v * (1 - sign * 0.5) for v in BIMODAL]) == "unresolved"
    assert verdict(0.03, list(BIMODAL)) == "identical in every pair"
    # every change run better than every parent run resolves it
    best = max(BIMODAL) if better == "higher" else min(BIMODAL)
    assert verdict(0.03, [best * (1 + sign * 0.05)] * 10) == "no worse (improved)"
    assert verdict(0.03, [best] * 10) == "unresolved"  # a tie is not better


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_claim_needs_nine_wins_in_ten_and_a_move_beyond_the_spread(better):
    sign = 1.0 if better == "higher" else -1.0

    def claim(change):
        entry = bench_pairs.compare(metric(better), PARENT, change)
        return bench_pairs.claim_verdict(entry).split(":")[0]

    better_by = lambda p, f: p * (1 + sign * f)
    nine = [better_by(p, 0.5) for p in PARENT[:9]] + [better_by(PARENT[9], -0.5)]
    eight = nine[:8] + [better_by(PARENT[8], -0.5), nine[9]]
    assert claim(nine) == "met"
    assert claim(eight) == "NOT MET"
    # every pair won, but the median moves less than the parent's quartile spread
    assert claim([better_by(p, 0.001) for p in PARENT]) == "NOT MET"


def fake_runs(monkeypatch, incorrect=(), failed=None):
    """Patch run_once with runs that read 1.0 on every metric; `incorrect` holds
    the (side, seed) runs that print "correct": false, and `failed` maps a
    side to its failed operations per run."""
    failed = failed or {}
    root = str(Path(__file__).parents[1])
    names = [m["name"] for m in json.loads(
        (Path(root) / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(checkout, workload, seed, seconds):
        side = "change" if checkout == root else "parent"
        return {"correct": (side, seed) not in incorrect,
                "failed": failed.get(side, 0), "attempted": 5,
                "metrics": {name: {"value": 1.0} for name in names}, "environment": {},
                "load_before": seed + (0.5 if side == "change" else 0.0)}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return root


@pytest.mark.parametrize("incorrect, failed, code", [
    ((), None, 0),
    ((("parent", 2),), {"parent": 1}, 0),  # only the parent is at fault
    ((("change", 2),), None, 1),
    ((), {"change": 1}, 1),
    ((), {"parent": 2, "change": 1}, 0),
])
def test_main_exits_1_after_writing_when_the_change_fails(monkeypatch, tmp_path, capsys,
                                                          incorrect, failed, code):
    root = fake_runs(monkeypatch, incorrect, failed)
    out = tmp_path / "x.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", root, "--out", str(out),
                             "--workloads", "graph-dense", "--seeds", "1-3"]) == code
    entry = json.loads(out.read_text())["workloads"]["graph-dense"]
    assert entry["correct"] == {"parent": ("parent", 2) not in incorrect,
                                "change": ("change", 2) not in incorrect}
    printed = capsys.readouterr().out
    ops = entry["failed_operations"]
    assert (f"graph-dense      correct parent {entry['correct']['parent']} change "
            f"{entry['correct']['change']}; failed/attempted parent "
            f"{ops['parent']}/15 change {ops['change']}/15") in printed
    assert ("FAILED" in printed) == bool(code)


def test_run_once_takes_the_load_average_before_the_run(monkeypatch):
    events = []

    def getloadavg():
        events.append("load")
        return (1.25, 0.5, 0.25)

    def run(cmd, **kwargs):
        events.append("run")
        return subprocess.CompletedProcess(cmd, 0, stdout='env {"nproc": 2}\n{"correct": true}\n',
                                           stderr="")

    monkeypatch.setattr(bench_pairs.os, "getloadavg", getloadavg)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    result = bench_pairs.run_once(".", "graph-dense", 1, 1.0)
    assert events == ["load", "run"]
    assert result == {"correct": True, "environment": {"nproc": 2}, "load_before": 1.25}


def test_main_records_the_load_before_each_run_per_side(monkeypatch, tmp_path):
    root = fake_runs(monkeypatch)
    out = tmp_path / "x.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", root, "--out", str(out),
                             "--workloads", "graph-dense", "--seeds", "1-3"]) == 0
    entry = json.loads(out.read_text())["workloads"]["graph-dense"]
    assert entry["load_before_runs"] == {"parent": [1.0, 2.0, 3.0], "change": [1.5, 2.5, 3.5]}
