"""tools/quality_record.py on a tiny corpus and config."""

import importlib.util
import json
from pathlib import Path

from transferhash.bench import run_bench
from transferhash.config import RunConfig
from transferhash.synth import make_two_view_clusters

_SPEC = importlib.util.spec_from_file_location(
    "quality_record", Path(__file__).parents[1] / "tools" / "quality_record.py")
quality_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality_record)


def tiny(seeds):
    target, source, _ = make_two_view_clusters(120, 10, 8, 3, 0.5, seed=1)
    config = RunConfig(methods=("itq", "itq+", "lapitq+"), bits=(4,), alpha=0.5,
                       test_fraction=0.25, lambda1=0.3, lambda2=0.01, k_graph=3,
                       iters=5, seeds=tuple(range(seeds)), r_groundtruth=5, ks=(5,))
    return config, target, source


def test_record_maps_are_run_bench_maps(tmp_path):
    config, target, source = tiny(2)
    result = quality_record.record(config, target, source)
    expected = run_bench(config, target, source, tmp_path)
    assert [(r["method"], r["bits"], r["seed"]) for r in result["runs"]] == [
        (m, 4, s) for s in (0, 1) for m in config.methods]
    for run in result["runs"]:
        assert run["map"] == expected[(run["method"], run["bits"], run["seed"])].map
        assert run["fit_s"] > 0.0
    assert result["mean_map"] == {
        m: sum(expected[(m, 4, s)].map for s in (0, 1)) / 2 for m in config.methods}


def test_main_writes_the_record_as_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(quality_record, "criterion_8", tiny)
    out = tmp_path / "quality.json"
    assert quality_record.main(["--out", str(out), "--seeds", "1"]) == 0
    written = json.loads(out.read_text())
    assert written["config"]["seeds"] == [0]
    assert [r["method"] for r in written["runs"]] == ["itq", "itq+", "lapitq+"]
    assert set(written["mean_map"]) == {"itq", "itq+", "lapitq+"}
    assert "lapitq+  mean MAP" in capsys.readouterr().out
