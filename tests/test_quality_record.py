"""tools/quality_record.py on a tiny corpus and config."""

import importlib.util
import json
from pathlib import Path

from transferhash.bench import fit_model, run_bench
from transferhash.config import RunConfig
from transferhash.data import make_split
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


def test_compare_names_every_cell_that_differs_or_is_missing():
    config, target, source = tiny(2)
    parent = quality_record.record(config, target, source)
    assert quality_record.compare(parent, parent) == (
        [], {"itq": 1.0, "itq+": 1.0, "lapitq+": 1.0})
    result = json.loads(json.dumps(parent))  # the record as a file holds it
    result["runs"][0]["map"] += 1e-12
    result["runs"][1]["fit_s"] = 2 * parent["runs"][1]["fit_s"]
    result["runs"][4]["fit_s"] = 4 * parent["runs"][4]["fit_s"]
    moved = result["runs"].pop(2)
    result["runs"].append({**moved, "seed": 7})
    problems, ratios = quality_record.compare(parent, result)
    assert problems == [
        f"seed 0 itq 4 bits: MAP {parent['runs'][0]['map']!r} -> "
        f"{result['runs'][0]['map']!r}",
        "seed 0 lapitq+ 4 bits: in the parent record only",
        "seed 7 lapitq+ 4 bits: not in the parent record",
    ]
    assert ratios == {"itq": 1.0, "itq+": 3.0, "lapitq+": 1.0}


def test_compare_names_a_cell_whose_model_digest_differs():
    config, target, source = tiny(1)
    parent = quality_record.record(config, target, source)
    split = make_split(target, source, config.alpha, config.test_fraction, 0)
    fit = fit_model("itq+", split.target_train, split.source_corr, split.source_extra,
                    bits=4, lambda1=0.3, iters=5, seed=0)
    assert parent["runs"][1]["model_sha256"] == quality_record.model_sha256(fit.model)
    assert len({r["model_sha256"] for r in parent["runs"]}) == 3
    result = json.loads(json.dumps(parent))
    result["runs"][1]["model_sha256"] = "0" * 64
    problems, _ = quality_record.compare(parent, result)
    assert problems == [
        f"seed 0 itq+ 4 bits: model sha256 {parent['runs'][1]['model_sha256']} -> {'0' * 64}"]
    # a record written before digests compares on MAP alone
    for run in parent["runs"]:
        del run["model_sha256"]
    assert quality_record.compare(parent, result)[0] == []
    assert quality_record.compare(result, parent)[0] == []


def test_main_compare_exits_1_naming_the_cells_that_differ(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(quality_record, "criterion_8", tiny)
    parent = tmp_path / "parent.json"
    assert quality_record.main(["--out", str(parent), "--seeds", "1"]) == 0
    out = str(tmp_path / "quality.json")
    assert quality_record.main(["--out", out, "--seeds", "1", "--compare", str(parent)]) == 0
    printed = capsys.readouterr().out
    assert f"itq+     fit seconds, median ratio to {parent}: " in printed
    assert f"0 cell(s) differ from {parent}" in printed
    record = json.loads(parent.read_text())
    record["runs"][1]["map"] = 0.5
    parent.write_text(json.dumps(record))
    assert quality_record.main(["--out", out, "--seeds", "2", "--compare", str(parent)]) == 1
    printed = capsys.readouterr().out
    assert "differs: seed 0 itq+ 4 bits: MAP 0.5 -> " in printed
    assert "differs: seed 1 itq 4 bits: not in the parent record" in printed
    assert f"4 cell(s) differ from {parent}" in printed
