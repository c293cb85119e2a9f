"""Compare the change medians of two BENCH_*.json records.

Usage, from anywhere:

    python3 tools/bench_diff.py BENCH_old.json BENCH_new.json

For every workload and end-to-end metric, prints the change's median in
OLD and in NEW and NEW's relative difference from OLD.  A workload or
metric found in one file only is listed with "-" for the other.  Exits 0,
or 2 when a file cannot be read or is not in the format that
tools/bench_pairs.py writes.
"""

from __future__ import annotations

import argparse
import json
import sys


class RecordError(Exception):
    """A file that is unreadable or not a BENCH_*.json record."""


def change_medians(path: str) -> dict:
    """{workload: {metric: the change's median}} of one record."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        return {workload: {name: float(metric["change"]["median"])
                           for name, metric in entry["metrics"].items()}
                for workload, entry in record["workloads"].items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise RecordError(f"{path}: not a readable BENCH_*.json record "
                          f"({type(exc).__name__}: {exc})") from None


def rows(old: dict, new: dict) -> list[tuple]:
    """(workload, metric, old median, new median, relative difference) per pair
    of names in either file; a side without the name reads None."""
    out = []
    for workload in list(old) + [w for w in new if w not in old]:
        a, b = old.get(workload, {}), new.get(workload, {})
        for metric in list(a) + [m for m in b if m not in a]:
            before, after = a.get(metric), b.get(metric)
            rel = None
            if before is not None and after is not None:
                rel = (after - before) / before if before else (0.0 if after == 0 else None)
            out.append((workload, metric, before, after, rel))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the earlier BENCH_*.json")
    parser.add_argument("new", help="the later BENCH_*.json")
    args = parser.parse_args(argv)
    try:
        old, new = change_medians(args.old), change_medians(args.new)
    except RecordError as exc:
        print(f"bench_diff: {exc}", file=sys.stderr)
        return 2

    def show(value):
        return "-" if value is None else f"{value:.6g}"

    print(f"{'workload':16s} {'metric':18s} {'old median':>12s} {'new median':>12s} "
          f"{'relative':>9s}")
    for workload, metric, before, after, rel in rows(old, new):
        print(f"{workload:16s} {metric:18s} {show(before):>12s} {show(after):>12s} "
              f"{'-' if rel is None else f'{rel:+.2%}':>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
