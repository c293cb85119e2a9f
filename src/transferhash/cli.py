"""Command-line interface: synth, split, train, encode, eval, bench, inspect-model.

Flags override values from an optional key=value config file.  Exit codes:
0 success, 2 config error, 3 data error (out of memory included, naming the
command and, for an input file, its path), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys

import numpy as np

from .bench import fit_model, run_bench
from .config import PARSERS, RunConfig, merge_config, read_config_file
from .data import load_matrix, load_model, make_split, save_matrix, save_model
from .errors import ConfigError, DataError, NumericalError
from .evaluate import (
    encode,
    evaluate_model,
    write_per_query_ap,
    write_precision_csv,
    write_report_keyvalues,
    write_report_text,
)
from .lap_itq_plus import write_edge_list
from .synth import write_synth_dataset

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Reads `-1e200`, `-inf` and `-nan` as values, where argparse's own
    pattern (plain decimals only) takes them for unknown options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


# flags whose names are not the field name with "-" for "_"
_FLAGS = {"k_graph": ("--k",), "methods": ("--methods", "--method")}


def _settings(parser, *names) -> None:
    """Declare RunConfig fields as flags; _config_from_args merges exactly these."""
    for name in names:
        flags = _FLAGS.get(name, ("--" + name.replace("_", "-"),))
        parser.add_argument(*flags, dest=name, type=PARSERS[name])
    parser.set_defaults(settings=names)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="transferhash",
        description="Learn binary hash codes with privileged source-domain data "
                    "and benchmark Hamming retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a paired two-view dataset")
    synth.add_argument("--n-pairs", type=int, default=1000)
    synth.add_argument("--d-target", type=int, default=48)
    synth.add_argument("--d-source", type=int, default=40)
    synth.add_argument("--clusters", type=int, default=5)
    synth.add_argument("--noise", type=float, default=1.0)
    synth.add_argument("--source-noise", type=float, default=None)
    synth.add_argument("--latent-dim", type=int, default=None)
    synth.add_argument("--center-spread", type=float, default=None)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)

    split = sub.add_parser("split", help="build a partial-correspondence split")
    split.add_argument("--config")
    _settings(split, "target", "source", "alpha", "test_fraction", "format")
    split.add_argument("--seed", type=int, default=0)
    split.add_argument("--header", action="store_true",
                       help="skip the first CSV line")
    split.add_argument("--out", required=True)

    train = sub.add_parser("train", help="train one hashing model")
    train.add_argument("--config")
    train.add_argument("--method", required=True)
    train.add_argument("--source-extra", help="extra source-only matrix")
    _settings(train, "target", "source", "bits", "lambda1", "lambda2", "k_graph",
              "iters", "pca_energy", "format")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--header", action="store_true",
                       help="skip the first CSV line")
    train.add_argument("--out", required=True, help="model file")
    train.add_argument("--log", help="objective log (default: <out>.log)")
    train.add_argument("--dump-graph", help="write the neighbor graph edge list here")

    encode_p = sub.add_parser("encode", help="encode a matrix with a trained model")
    encode_p.add_argument("--model", required=True)
    encode_p.add_argument("--input", required=True)
    _settings(encode_p, "format")
    encode_p.add_argument("--header", action="store_true",
                          help="skip the first CSV line")
    encode_p.add_argument("--out", required=True, help="codes written as a +/-1 matrix")

    eval_p = sub.add_parser("eval", help="evaluate retrieval quality")
    eval_p.add_argument("--config")
    eval_p.add_argument("--model", required=True)
    eval_p.add_argument("--database", required=True)
    eval_p.add_argument("--queries", required=True)
    _settings(eval_p, "r_groundtruth", "ks", "format")
    eval_p.add_argument("--header", action="store_true",
                        help="skip the first CSV line")
    eval_p.add_argument("--out", required=True, help="report directory")

    bench = sub.add_parser("bench", help="full method x bits x seed sweep")
    bench.add_argument("--config")
    _settings(bench, "target", "source", "methods", "bits", "alpha", "test_fraction",
              "lambda1", "lambda2", "k_graph", "iters", "seeds", "pca_energy",
              "r_groundtruth", "ks", "format")
    bench.add_argument("--header", action="store_true",
                       help="skip the first CSV line")
    bench.add_argument("--out", required=True)

    inspect = sub.add_parser("inspect-model", help="print model file fields")
    inspect.add_argument("--model", required=True)

    return parser


def _config_from_args(args, base: RunConfig = RunConfig()) -> RunConfig:
    """Defaults, then the --config file, then the flags the subcommand declared."""
    if getattr(args, "config", None):
        base = merge_config(base, read_config_file(args.config))
    overrides = {name: getattr(args, name) for name in args.settings}
    return merge_config(base, overrides).validate()


def _load(path, fmt, skip_header: bool = False):
    if not os.path.exists(path):
        raise DataError(f"{path}: no such file")
    try:
        return load_matrix(path, fmt, skip_header=skip_header)
    except MemoryError as exc:
        raise MemoryError(f"loading {path}: {str(exc) or 'no size given'}") from exc


def cmd_synth(args) -> int:
    kwargs = {}
    if args.source_noise is not None:
        kwargs["source_noise"] = args.source_noise
    if args.latent_dim is not None:
        kwargs["latent_dim"] = args.latent_dim
    if args.center_spread is not None:
        kwargs["center_spread"] = args.center_spread
    paths = write_synth_dataset(args.out, args.n_pairs, args.d_target,
                                args.d_source, args.clusters, args.noise,
                                args.seed, **kwargs)
    print(f"wrote {paths['target']} and {paths['source']}")
    return 0


def cmd_split(args) -> int:
    config = _config_from_args(args)
    if not config.target or not config.source:
        raise ConfigError("split needs --target and --source")
    target = _load(config.target, config.format, args.header)
    source = _load(config.source, config.format, args.header)
    bundle = make_split(target, source, config.alpha, config.test_fraction, args.seed)
    os.makedirs(args.out, exist_ok=True)
    ext = "csv" if config.format == "csv" else "bin"
    for name, matrix in (("target_train", bundle.target_train),
                         ("source_corr", bundle.source_corr),
                         ("source_extra", bundle.source_extra),
                         ("target_test", bundle.target_test)):
        if matrix.shape[0]:
            save_matrix(matrix, os.path.join(args.out, f"{name}.{ext}"), config.format)
    with open(os.path.join(args.out, "split.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"alpha={bundle.alpha!r}\n")
        fh.write(f"seed={bundle.seed}\n")
        fh.write(f"n_corr={bundle.n_corr}\n")
        fh.write(f"n_extra={bundle.n_extra}\n")
        fh.write(f"n_test={bundle.target_test.shape[0]}\n")
        for name, idx in (("corr_idx", bundle.corr_idx),
                          ("extra_idx", bundle.extra_idx),
                          ("test_idx", bundle.test_idx)):
            fh.write(f"{name}={','.join(str(i) for i in idx)}\n")
    print(f"split written to {args.out} "
          f"(n={bundle.n_corr}, n_extra={bundle.n_extra}, "
          f"n_test={bundle.target_test.shape[0]})")
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args, RunConfig(bits=(32,)))
    if not config.target:
        raise ConfigError("train needs --target")
    if len(config.bits) != 1:
        raise ConfigError(f"train takes one --bits value, got {config.bits}")
    if args.dump_graph and args.method != "lapitq+":
        raise ConfigError("--dump-graph only applies to method lapitq+")
    target = _load(config.target, config.format, args.header)
    source = _load(config.source, config.format, args.header) if config.source else None
    extra = _load(args.source_extra, config.format, args.header) if args.source_extra else None
    fit = fit_model(args.method, target, source, extra, bits=config.bits[0],
                    lambda1=config.lambda1, lambda2=config.lambda2,
                    k_graph=config.k_graph, iters=config.iters,
                    seed=args.seed, pca_energy=config.pca_energy)
    save_model(fit.model, args.out)
    log_path = args.log if args.log else args.out + ".log"
    with open(log_path, "a", encoding="utf-8") as fh:
        for t, value in enumerate(fit.trace):
            fh.write(f"iter={t} objective={value!r}\n")
    if args.dump_graph:
        write_edge_list(fit.graph, args.dump_graph)
    print(f"model written to {args.out} ({len(fit.trace)} objective lines logged)")
    return 0


def cmd_encode(args) -> int:
    fmt = _config_from_args(args).format
    model = load_model(args.model)
    x = _load(args.input, fmt, args.header)
    codes = encode(model, x)
    save_matrix(codes.signs.astype(np.float64), args.out, fmt)
    print(f"codes written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = _config_from_args(args)
    model = load_model(args.model)
    database = _load(args.database, config.format, args.header)
    queries = _load(args.queries, config.format, args.header)
    report = evaluate_model(model, database, queries,
                            config.r_groundtruth, config.ks)
    os.makedirs(args.out, exist_ok=True)
    write_report_text(report, os.path.join(args.out, "report.txt"))
    write_report_keyvalues(report, os.path.join(args.out, "report.kv"))
    write_precision_csv(report, os.path.join(args.out, "precision.csv"))
    write_per_query_ap(report, os.path.join(args.out, "per_query_ap.txt"))
    print(f"MAP {report.map:.4f} over {report.n_evaluated} queries "
          f"-> reports in {args.out}")
    return 0


def cmd_bench(args) -> int:
    config = _config_from_args(args)
    if not config.target or not config.source:
        raise ConfigError("bench needs --target and --source")
    target = _load(config.target, config.format, args.header)
    source = _load(config.source, config.format, args.header)
    results = run_bench(config, target, source, args.out)
    failed = sum(1 for report in results.values() if report is None)
    print(f"bench complete: {len(results) - failed}/{len(results)} cells "
          f"-> {args.out}/bench_table.csv")
    return 0


def cmd_inspect_model(args) -> int:
    model = load_model(args.model)
    print(f"method: {model.method}")
    print(f"bits: {model.bits}")
    print(f"input_dim: {model.input_dim}")
    print(f"preprocessing: {model.preprocessing.kind} "
          f"({model.preprocessing.d_in} -> {model.preprocessing.d_out})")
    print(f"rotation: {model.rotation.shape[0]} x {model.rotation.shape[1]}")
    for key, value in sorted(model.hyperparams.items()):
        print(f"hyperparams.{key}: {value}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "split": cmd_split,
    "train": cmd_train,
    "encode": cmd_encode,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "inspect-model": cmd_inspect_model,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except (DataError, OSError, UnicodeDecodeError) as exc:
        log.error("data error: %s", exc)
        return 3
    except MemoryError as exc:
        log.error("data error: out of memory in %s: %s", args.command,
                  str(exc) or "no size given")
        return 3
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        log.error("numerical failure: %s", exc)
        return 4
    except ValueError as exc:
        log.error("config error: %s", exc)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
