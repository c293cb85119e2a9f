import inspect
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferhash import bench, evaluate, itq, itq_plus, lap_itq_plus
from transferhash.cli import _config_from_args, build_parser, main
from transferhash.config import PARSERS, RunConfig, read_config_file, write_config_file
from transferhash.data import load_matrix, load_model, save_matrix
from transferhash.evaluate import encode
from transferhash.model import METHODS
from transferhash.synth import make_two_view_clusters


def run_cli(*args):
    return main([str(a) for a in args])


def synth_args(out, n=220, seed=0, **extra):
    args = ["synth", "--n-pairs", n, "--d-target", 12, "--d-source", 10,
            "--clusters", 4, "--noise", 0.5, "--seed", seed, "--out", out]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    return args


def test_synth_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*synth_args(out_a)) == 0
    assert run_cli(*synth_args(out_b)) == 0
    for name in ("target.bin", "source.bin", "manifest.txt", "labels.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    out_c = tmp_path / "c"
    assert run_cli(*synth_args(out_c, seed=1)) == 0
    assert (out_a / "target.bin").read_bytes() != (out_c / "target.bin").read_bytes()


@pytest.mark.parametrize("flags", [
    {"source_noise": -1}, {"noise": "nan"}, {"source_noise": "nan"},
    {"source_noise": "inf"}, {"center_spread": "inf"}, {"center_spread": "nan"},
    {"latent_dim": 0, "noise": 0}])
def test_synth_bad_numeric_flag_exits_2(tmp_path, flags):
    out = tmp_path / "data"
    assert run_cli(*synth_args(out, **flags)) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    {"noise": 1e200}, {"source_noise": 1e200}, {"center_spread": 1e200},
    {"noise": 1e308}, {"center_spread": "-1e200"}])
def test_synth_overflowing_scale_exits_2(tmp_path, flags):
    # the unit-RMS scaling would divide by an infinite mean square and
    # write all-zero views
    out = tmp_path / "data"
    assert run_cli(*synth_args(out, **flags)) == 2
    assert not out.exists()


def test_synth_noiseless_views_are_rank_limited():
    target, source, _ = make_two_view_clusters(200, 12, 10, clusters=1,
                                               noise=0.0, seed=1, latent_dim=5)
    assert np.linalg.matrix_rank(target) <= 5
    assert np.linalg.matrix_rank(source) <= 5


def test_synth_paired_rows_share_structure():
    target, source, _ = make_two_view_clusters(500, 12, 10, 4, 0.3, seed=3)
    rng = np.random.default_rng(0)
    ii = rng.integers(0, 500, 1000)
    jj = rng.integers(0, 500, 1000)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    dist_t = np.linalg.norm(target[ii] - target[jj], axis=1)
    dist_s = np.linalg.norm(source[ii] - source[jj], axis=1)
    aligned = np.corrcoef(dist_t, dist_s)[0, 1]
    perm = rng.permutation(500)
    dist_s_shuffled = np.linalg.norm(source[perm][ii] - source[perm][jj], axis=1)
    shuffled = np.corrcoef(dist_t, dist_s_shuffled)[0, 1]
    assert aligned > shuffled + 0.3


def test_split_command(tmp_path):
    data = tmp_path / "data"
    assert run_cli(*synth_args(data, n=100)) == 0
    out = tmp_path / "split"
    code = run_cli("split", "--target", data / "target.bin",
                   "--source", data / "source.bin",
                   "--alpha", 0.5, "--test-fraction", 0.2,
                   "--seed", 1, "--out", out)
    assert code == 0
    train = load_matrix(out / "target_train.bin")
    corr = load_matrix(out / "source_corr.bin")
    extra = load_matrix(out / "source_extra.bin")
    queries = load_matrix(out / "target_test.bin")
    assert train.shape[0] == corr.shape[0] == 40
    assert extra.shape[0] == 40
    assert queries.shape[0] == 20
    manifest = (out / "split.txt").read_text()
    assert "n_corr=40" in manifest and "n_test=20" in manifest


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert run_cli(*synth_args(root / "data", n=260, seed=2)) == 0
    out = root / "split"
    assert run_cli("split", "--target", root / "data" / "target.bin",
                   "--source", root / "data" / "source.bin",
                   "--alpha", 0.5, "--test-fraction", 0.2,
                   "--seed", 0, "--out", out) == 0
    return out


def test_train_writes_model_and_log(tmp_path, dataset):
    model_path = tmp_path / "itq.model"
    log_path = tmp_path / "itq.log"
    code = run_cli("train", "--method", "itq+",
                   "--target", dataset / "target_train.bin",
                   "--source", dataset / "source_corr.bin",
                   "--bits", 8, "--lambda1", 0.05, "--iters", 25,
                   "--seed", 3, "--out", model_path, "--log", log_path)
    assert code == 0
    model = load_model(model_path)
    assert model.method == "itq+" and model.bits == 8
    lines = log_path.read_text().splitlines()
    assert lines, "objective log must not be empty"
    values = []
    for t, line in enumerate(lines):
        key, obj = line.split(" ")
        assert key == f"iter={t}"
        assert obj.startswith("objective=")
        values.append(float(obj.split("=", 1)[1]))
    assert np.all(np.diff(values) <= 1e-9)
    assert len(lines) <= 25


def test_train_reproducible_model_bytes(tmp_path, dataset):
    paths = []
    for name in ("a.model", "b.model"):
        path = tmp_path / name
        assert run_cli("train", "--method", "lapitq+",
                       "--target", dataset / "target_train.bin",
                       "--source", dataset / "source_corr.bin",
                       "--source-extra", dataset / "source_extra.bin",
                       "--bits", 8, "--iters", 10, "--seed", 5,
                       "--out", path) == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_lambda_zero_matches_balanced_itq_loss(tmp_path, dataset):
    model_path = tmp_path / "plus.model"
    log_path = tmp_path / "plus.log"
    assert run_cli("train", "--method", "itq+",
                   "--target", dataset / "target_train.bin",
                   "--source", dataset / "source_corr.bin",
                   "--bits", 8, "--lambda1", 0.0, "--iters", 30,
                   "--seed", 7, "--out", model_path, "--log", log_path) == 0
    last = float(log_path.read_text().splitlines()[-1].split("objective=")[1])
    raw = load_matrix(dataset / "target_train.bin")
    centered = raw - raw.mean(axis=0)
    losses = itq_plus.alternating_solve(centered, None, 8, 0.0, 30, 7, itq_plus.balanced_step,
                                        tol=itq.DEFAULT_TOL).objective_trace
    assert last == pytest.approx(losses[-1], abs=1e-9)


def test_train_dump_graph(tmp_path, dataset):
    model_path = tmp_path / "lap.model"
    graph_path = tmp_path / "graph.txt"
    assert run_cli("train", "--method", "lapitq+",
                   "--target", dataset / "target_train.bin",
                   "--source", dataset / "source_corr.bin",
                   "--bits", 8, "--iters", 5, "--seed", 0, "--k", 3,
                   "--out", model_path, "--dump-graph", graph_path) == 0
    lines = graph_path.read_text().splitlines()
    assert lines
    for line in lines:
        i, j = map(int, line.split())
        assert i < j


def test_encode_command(tmp_path, dataset):
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", "itq",
                   "--target", dataset / "target_train.bin",
                   "--bits", 8, "--iters", 10, "--seed", 1,
                   "--out", model_path) == 0
    codes_path = tmp_path / "codes.bin"
    assert run_cli("encode", "--model", model_path,
                   "--input", dataset / "target_test.bin",
                   "--out", codes_path) == 0
    written = load_matrix(codes_path)
    direct = encode(load_model(model_path), load_matrix(dataset / "target_test.bin"))
    assert np.array_equal(written, direct.signs.astype(float))


def test_eval_self_retrieval(tmp_path):
    # spread data with fine-grained codes: every query finds itself at
    # Hamming 0 (precision@1 = 1) and MAP stays high
    data = tmp_path / "data"
    assert run_cli("synth", "--n-pairs", 50, "--d-target", 32,
                   "--d-source", 10, "--clusters", 1, "--noise", 0.3,
                   "--seed", 4, "--out", data) == 0
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", "itq",
                   "--target", data / "target.bin",
                   "--bits", 32, "--iters", 30, "--seed", 0,
                   "--out", model_path) == 0
    out = tmp_path / "report"
    assert run_cli("eval", "--model", model_path,
                   "--database", data / "target.bin",
                   "--queries", data / "target.bin",
                   "--r-groundtruth", 1, "--ks", "1,5",
                   "--out", out) == 0
    report = dict(line.split("=", 1)
                  for line in (out / "report.kv").read_text().splitlines())
    assert float(report["precision_at_1"]) == 1.0
    assert float(report["map"]) > 0.8
    aps = [float(line) for line in (out / "per_query_ap.txt").read_text().splitlines()]
    assert float(report["map"]) == pytest.approx(sum(aps) / len(aps), abs=1e-12)


def test_eval_empty_queries_exits_3(tmp_path, dataset):
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", "itq",
                   "--target", dataset / "target_train.bin",
                   "--bits", 8, "--iters", 5, "--seed", 0,
                   "--out", model_path) == 0
    # database converted to csv so both files share the declared format
    db_csv = tmp_path / "db.csv"
    from transferhash.data import save_matrix

    save_matrix(load_matrix(dataset / "target_train.bin"), db_csv, "csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "report"
    code = run_cli("eval", "--model", model_path,
                   "--database", db_csv,
                   "--queries", empty, "--format", "csv", "--out", out)
    assert code == 3
    assert not out.exists()


def test_bench_single_cell_and_aggregation(tmp_path, dataset):
    data_dir = dataset.parent / "data"
    out = tmp_path / "bench"
    code = run_cli("bench", "--target", data_dir / "target.bin",
                   "--source", data_dir / "source.bin",
                   "--methods", "itq,lsh", "--bits", "8",
                   "--alpha", 0.5, "--test-fraction", 0.2,
                   "--seeds", "0,1", "--iters", 10,
                   "--r-groundtruth", 5, "--ks", "1,5", "--out", out)
    assert code == 0
    rows = (out / "bench_results.csv").read_text().splitlines()
    assert rows[0] == "method,bits,seed,map"
    detail = [r.split(",") for r in rows[1:] if not r.endswith("mean") and ",mean," not in r]
    mean_rows = [r.split(",") for r in rows[1:] if ",mean," in r]
    assert len(mean_rows) == 2  # |methods| x |bits|
    per_seed = {}
    for method, bits, seed, value in detail:
        per_seed.setdefault((method, bits), []).append(float(value))
    for method, bits, seed, value in mean_rows:
        expected = sum(per_seed[(method, bits)]) / len(per_seed[(method, bits)])
        assert float(value) == pytest.approx(expected, abs=1e-15)
    table = (out / "bench_table.csv").read_text().splitlines()
    assert table[0] == "bits,itq,lsh"
    assert len(table) == 2
    assert (out / "precision_at_k_8.csv").exists()


def test_bench_failed_cell_recorded_as_missing(tmp_path, dataset):
    # 12-bit codes fit the 12-dim target view but exceed the 10-dim source
    # view's canonical rank, so the cca-itq cells fail while itq completes
    data_dir = dataset.parent / "data"
    out = tmp_path / "bench"
    assert run_cli("bench", "--target", data_dir / "target.bin",
                   "--source", data_dir / "source.bin",
                   "--methods", "itq,cca-itq", "--bits", "12",
                   "--alpha", 0.5, "--test-fraction", 0.2,
                   "--seeds", "0", "--iters", 5,
                   "--r-groundtruth", 5, "--ks", "1", "--out", out) == 0
    rows = dict()
    for line in (out / "bench_results.csv").read_text().splitlines()[1:]:
        method, bits, seed, value = line.split(",")
        rows[(method, seed)] = value
    assert rows[("itq", "0")] != ""
    assert rows[("cca-itq", "0")] == ""
    assert rows[("cca-itq", "mean")] == ""


def test_bench_pca_energy_below_bits_exits_2(tmp_path, dataset, caplog):
    # 4 clusters at noise 0.5: 90% of the energy sits in a few components,
    # too few for an 8-bit rotation, so no itq cell can be trained
    data_dir = dataset.parent / "data"
    assert run_cli("bench", "--target", data_dir / "target.bin",
                   "--source", data_dir / "source.bin",
                   "--methods", "lsh,itq", "--bits", "8", "--pca-energy", 0.9,
                   "--seeds", "0", "--iters", 3, "--r-groundtruth", 5,
                   "--ks", "1", "--out", tmp_path / "bench") == 2
    assert "fewer than bits=8" in caplog.text
    assert not (tmp_path / "bench" / "bench_results.csv").exists()


@pytest.mark.parametrize("grid", [
    ("--methods", "itq,itq"), ("--bits", "4,4"), ("--seeds", "0,0,1")])
def test_bench_repeated_grid_value_exits_2(tmp_path, dataset, grid, caplog):
    # a repeated cell would be trained again, written again and weighted
    # twice in the mean
    data_dir = dataset.parent / "data"
    assert run_cli("bench", "--target", data_dir / "target.bin",
                   "--source", data_dir / "source.bin", "--methods", "itq",
                   "--bits", "4", "--seeds", "0", "--iters", 3, *grid,
                   "--out", tmp_path / "bench") == 2
    assert "must not repeat a value" in caplog.text
    assert list(tmp_path.iterdir()) == []


def test_config_file_round_trip_and_override(tmp_path):
    config = RunConfig(methods=("itq", "itq+"), bits=(8, 16), alpha=0.25,
                       seeds=(0, 1, 2), pca_energy=0.6, target="t.bin",
                       source="s.bin", ks=(1, 10))
    path = tmp_path / "run.cfg"
    write_config_file(config, path)
    loaded = read_config_file(path)
    from transferhash.config import merge_config

    assert merge_config(RunConfig(), loaded) == config
    # comments and blank lines are tolerated
    path2 = tmp_path / "c.cfg"
    path2.write_text("# comment\nalpha=0.75\n\nbits=8\n")
    loaded2 = read_config_file(path2)
    merged = merge_config(RunConfig(), loaded2)
    assert merged.alpha == 0.75 and merged.bits == (8,)


def test_cli_exit_codes(tmp_path, dataset):
    # config error: bad alpha
    assert run_cli("split", "--target", dataset / "target_train.bin",
                   "--source", dataset / "source_corr.bin",
                   "--alpha", 2.0, "--out", tmp_path / "x") == 2
    # data error: missing file
    assert run_cli("train", "--method", "itq", "--target", tmp_path / "nope.bin",
                   "--bits", 8, "--out", tmp_path / "m.model") == 3
    # config error: itq+ without source
    assert run_cli("train", "--method", "itq+",
                   "--target", dataset / "target_train.bin",
                   "--bits", 8, "--out", tmp_path / "m.model") == 2


@pytest.mark.parametrize("command", [
    ("train", "--method", "itq+", "--lambda1", "nan"),
    ("train", "--method", "lapitq+", "--lambda2", "inf"),
    ("bench", "--methods", "itq+", "--lambda1", "nan", "--seeds", "0"),
    ("train", "--method", "itq+", "--lambda1", "-inf")])
def test_non_finite_lambda_exits_2(tmp_path, dataset, command):
    data_dir = dataset.parent / "data"
    assert run_cli(*command, "--target", data_dir / "target.bin",
                   "--source", data_dir / "source.bin",
                   "--bits", 8, "--iters", 3, "--out", tmp_path / "out") == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method, scaled", [("itq", "target_train"),
                                           ("lapitq+", "source_corr")])
def test_train_exits_4_when_a_gram_matrix_overflows(tmp_path, dataset, method, scaled):
    # views scaled by 1e155 are finite, but X^T X overflows float64
    paths = {}
    for name in ("target_train", "source_corr", "source_extra"):
        rows = load_matrix(dataset / f"{name}.bin")
        if name == scaled or (scaled == "source_corr" and name == "source_extra"):
            rows = rows * 1e155
        paths[name] = tmp_path / f"{name}.bin"
        save_matrix(rows, paths[name])
    assert run_cli("train", "--method", method, "--target", paths["target_train"],
                   "--source", paths["source_corr"],
                   "--source-extra", paths["source_extra"], "--bits", 8,
                   "--iters", 3, "--out", tmp_path / "m.model") == 4
    assert not (tmp_path / "m.model").exists()


def test_train_exits_4_when_a_square_rotation_overflows(tmp_path, dataset):
    # 12 bits on the 12-column target view: a square rotation, no gram_bound
    path = tmp_path / "target_train.bin"
    save_matrix(load_matrix(dataset / "target_train.bin") * 1e155, path)
    assert run_cli("train", "--method", "itq", "--target", path, "--bits", 12,
                   "--iters", 3, "--out", tmp_path / "m.model") == 4
    assert not (tmp_path / "m.model").exists()


def test_train_dump_graph_rejected_before_training(tmp_path, dataset):
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", "itq",
                   "--target", dataset / "target_train.bin",
                   "--bits", 8, "--iters", 5, "--out", model_path,
                   "--dump-graph", tmp_path / "g.txt") == 2
    assert list(tmp_path.iterdir()) == []


def test_parsers_cover_run_config_fields():
    assert set(PARSERS) == {f.name for f in fields(RunConfig)}


# a value of each field that validates and differs from its default
SETTING_VALUES = {"methods": "lsh,itq+", "bits": "12", "alpha": "0.25",
                  "test_fraction": "0.3", "lambda1": "0.2", "lambda2": "0.3",
                  "k_graph": "7", "iters": "9", "seeds": "3,4", "pca_energy": "0.8",
                  "target": "t.bin", "source": "s.bin", "format": "csv",
                  "r_groundtruth": "7", "ks": "2,3"}


def test_every_settings_flag_reaches_the_config():
    names = {f.name for f in fields(RunConfig)}
    assert set(SETTING_VALUES) == names
    subparsers = build_parser()._subparsers._group_actions[0].choices
    checked = set()
    for command, sub in subparsers.items():
        if "--config" not in sub._option_string_actions:
            continue
        required = [arg for action in sub._actions if action.required
                    for arg in (action.option_strings[0], "x")]
        for action in sub._actions:
            if action.dest not in names:
                continue
            raw = SETTING_VALUES[action.dest]
            for flag in action.option_strings:
                args = sub.parse_args(required + [flag, raw])
                config = _config_from_args(args)
                assert getattr(config, action.dest) == PARSERS[action.dest](raw), \
                    (command, flag)
                assert getattr(config, action.dest) != getattr(RunConfig(), action.dest)
                checked.add(command)
    assert checked == {"split", "train", "eval", "bench"}


def test_train_alpha_flag_removed(tmp_path, dataset):
    for command in (("train", "--method", "itq", "--bits", 8, "--alpha", 0.3),
                    ("bench", "--workers", 2)):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, "--target", dataset / "target_train.bin",
                    "--out", tmp_path / "out")
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_config_out_key_rejected(tmp_path, dataset, caplog):
    config = tmp_path / "run.cfg"
    for line, key in (("out=x", "'out'"), ("workers=2", "'workers'")):
        config.write_text(line + "\n")
        assert run_cli("split", "--config", config,
                       "--target", dataset / "target_train.bin",
                       "--source", dataset / "source_corr.bin",
                       "--out", tmp_path / "split") == 2
        assert key in caplog.text
    assert not (tmp_path / "split").exists()


@pytest.mark.parametrize("method", ["itq+", "lapitq+"])
def test_train_extra_source_of_another_width_exits_3(tmp_path, dataset, method, caplog):
    # np.vstack refused it with numpy's own message, a config error (2)
    extra = tmp_path / "extra.bin"
    save_matrix(load_matrix(dataset / "source_extra.bin")[:, :5], extra)
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", method,
                   "--target", dataset / "target_train.bin",
                   "--source", dataset / "source_corr.bin", "--source-extra", extra,
                   "--bits", 4, "--iters", 3, "--out", model_path) == 3
    assert "source_extra has 5 columns but source_corr has 10" in caplog.text
    assert not model_path.exists()


@pytest.mark.parametrize("method", METHODS)
def test_train_source_of_another_row_count_exits_3(tmp_path, dataset, method, caplog):
    # train has no row check of its own: fit_model's refuses it
    source = tmp_path / "source.bin"
    corr = load_matrix(dataset / "source_corr.bin")
    save_matrix(corr[:-1], source)
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", method,
                   "--target", dataset / "target_train.bin", "--source", source,
                   "--bits", 4, "--iters", 3, "--out", model_path) == 3
    assert (f"target has {corr.shape[0]} rows but source has {corr.shape[0] - 1}"
            in caplog.text)
    assert not model_path.exists()


def test_train_source_extra_without_source_exits_2(tmp_path, dataset, caplog):
    # the extra rows were ignored and itq trained on the target alone
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", "itq",
                   "--target", dataset / "target_train.bin",
                   "--source-extra", dataset / "source_extra.bin",
                   "--bits", 4, "--iters", 3, "--out", model_path) == 2
    assert "source_extra needs source_corr" in caplog.text
    assert not model_path.exists()


def test_train_zero_bits_exits_2(tmp_path, dataset):
    model_path = tmp_path / "m.model"
    for method in ("itq", "lsh"):
        assert run_cli("train", "--method", method,
                       "--target", dataset / "target_train.bin",
                       "--bits", 0, "--out", model_path) == 2
    assert not model_path.exists()


def test_eval_query_width_mismatch_exits_3(tmp_path, dataset, caplog):
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", "itq",
                   "--target", dataset / "target_train.bin",
                   "--bits", 8, "--iters", 5, "--seed", 0,
                   "--out", model_path) == 0
    out = tmp_path / "report"
    # source rows are 10-d, the database (and model) 12-d
    assert run_cli("eval", "--model", model_path,
                   "--database", dataset / "target_train.bin",
                   "--queries", dataset / "source_corr.bin", "--out", out) == 3
    assert "(104, 10)" in caplog.text and "(104, 12)" in caplog.text
    assert not out.exists()


def test_inspect_model(tmp_path, dataset, capsys):
    model_path = tmp_path / "m.model"
    assert run_cli("train", "--method", "itq",
                   "--target", dataset / "target_train.bin",
                   "--bits", 8, "--iters", 5, "--seed", 0,
                   "--out", model_path) == 0
    capsys.readouterr()
    assert run_cli("inspect-model", "--model", model_path) == 0
    out = capsys.readouterr().out
    assert "method: itq" in out and "bits: 8" in out


def test_library_defaults_equal_run_config_defaults():
    def default(func, name):
        return inspect.signature(func).parameters[name].default

    config = RunConfig()
    for name in ("lambda1", "lambda2", "k_graph", "iters"):
        assert default(bench.fit_model, name) == getattr(config, name)
    assert default(itq.itq_train, "iters") == config.iters
    assert default(itq_plus.itq_plus_train, "lambda1") == config.lambda1
    assert default(itq_plus.itq_plus_train, "iters") == config.iters
    for name, field in (("lambda1", "lambda1"), ("lambda2", "lambda2"),
                        ("k", "k_graph"), ("iters", "iters")):
        assert default(lap_itq_plus.lap_itq_plus_train, name) == getattr(config, field)
    for func in (evaluate.evaluate_codes, evaluate.evaluate_model):
        assert default(func, "ks") == config.ks
    for func in (evaluate.ground_truth, evaluate.evaluate_model):
        assert default(func, "r") == config.r_groundtruth


def test_config_file_not_utf8_exits_2(tmp_path, caplog):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"bits=8\nmethods=itq\xff\n")
    assert run_cli("bench", "--config", config, "--out", tmp_path / "x") == 2
    assert f"{config}: line 2: not UTF-8 text" in caplog.text
    assert not (tmp_path / "x").exists()


# flags that take a number or a number list, per subcommand
NUMERIC_FLAGS = {
    command: [action.option_strings[0] for action in sub._actions
              if action.type in (int, float, PARSERS["bits"])]
    for command, sub in build_parser()._subparsers._group_actions[0].choices.items()}
# half the drawn numbers are values most flags accept, so that runs get
# past validation; no integer is large enough to ask for much memory
VALID_TOKENS = ("1", "2", "3", "8", "0.5")
EDGE_TOKENS = ("0", "-1", "-3", "-0.5", "1e200", "-1e200", "inf", "-inf", "nan")


@pytest.fixture(scope="module")
def base_argv(dataset):
    """Valid arguments of each subcommand with numeric flags, on small inputs."""
    data = dataset.parent / "data"
    model = dataset.parent / "argv.model"
    assert run_cli("train", "--method", "itq", "--target", dataset / "target_train.bin",
                   "--bits", 8, "--iters", 3, "--out", model) == 0
    return {
        "synth": ("--n-pairs", 40, "--d-target", 6, "--d-source", 5, "--clusters", 2),
        "split": ("--target", data / "target.bin", "--source", data / "source.bin"),
        "train": ("--target", dataset / "target_train.bin",
                  "--source", dataset / "source_corr.bin",
                  "--source-extra", dataset / "source_extra.bin",
                  "--bits", 4, "--iters", 3),
        "eval": ("--model", model, "--database", dataset / "target_train.bin",
                 "--queries", dataset / "target_test.bin"),
        "bench": ("--target", data / "target.bin", "--source", data / "source.bin",
                  "--bits", 4, "--seeds", 0, "--iters", 3, "--ks", "1,5"),
    }


_number = st.one_of(st.sampled_from(VALID_TOKENS), st.sampled_from(EDGE_TOKENS))
_token = st.one_of(_number, st.lists(_number, min_size=2, max_size=2).map(",".join))


@st.composite
def generated_argv(draw):
    command = draw(st.sampled_from(sorted(c for c, flags in NUMERIC_FLAGS.items() if flags)))
    method = ("--method", draw(st.sampled_from(METHODS)))
    flags = draw(st.lists(st.tuples(st.sampled_from(NUMERIC_FLAGS[command]), _token),
                          max_size=3))
    return command, method, [part for flag in flags for part in flag]


@settings(max_examples=500, deadline=None)
@given(argv=generated_argv())
def test_cli_exit_codes_hold_for_generated_argv(base_argv, tmp_path_factory, argv):
    command, method, flags = argv
    out = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())) / "out"
    extra = method if command in ("train", "bench") else ()
    try:
        code = run_cli(command, *base_argv[command], *extra, *flags, "--out", out)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    assert code in (0, 2, 3, 4)
    if command == "bench" and code == 0:
        # one row per (method, bits, seed) cell and per mean
        rows = (out / "bench_results.csv").read_text().splitlines()
        assert len(rows) == len(set(rows))


def test_out_of_memory_loading_a_matrix_exits_3_and_names_the_file(
        tmp_path, dataset, monkeypatch, caplog):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000000000, 1) and data type float64")

    monkeypatch.setattr("transferhash.cli.load_matrix", no_memory)
    target = dataset / "target_train.bin"
    assert run_cli("train", "--method", "itq", "--target", target,
                   "--bits", 8, "--out", tmp_path / "m.model") == 3
    assert f"out of memory in train: loading {target}: Unable to allocate 74.5 GiB" \
        in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "m.model").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB", ""])
def test_out_of_memory_building_a_dataset_exits_3_and_names_the_command(
        tmp_path, monkeypatch, caplog, message):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("transferhash.cli.write_synth_dataset", no_memory)
    assert run_cli(*synth_args(tmp_path / "data")) == 3
    assert f"out of memory in synth: {message or 'no size given'}" in caplog.text
