#!/usr/bin/env python3
"""Compare results saved by `run.py --save` for a base and a new version.

Usage: python3 perfbench/compare.py --base A1.json [A2.json ...] --new B1.json [B2.json ...]

Prints, for every workload and metric, the median of each side and the
relative change. Exits with 2 without comparing when the two sides were
measured under a different kernel backend, Python or numpy version, CPU
model or CPU count, because their numbers are then not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

MUST_MATCH = ("kernel_backend", "python", "numpy", "cpu_model", "nproc")


def load(paths):
    records = [json.loads(open(p, encoding="utf-8").read()) for p in paths]
    values: dict = {}
    for rec in records:
        for workload, result in rec["results"].items():
            for metric, m in result["metrics"].items():
                values.setdefault((workload, metric), []).append(m["value"])
    return records, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base_recs, base = load(args.base)
    new_recs, new = load(args.new)
    seen = {key: {rec["provenance"][key] for rec in base_recs + new_recs} for key in MUST_MATCH}
    mixed = {key: sorted(map(str, vals)) for key, vals in seen.items() if len(vals) > 1}
    if mixed:
        print(f"compare: refusing to compare results taken under different {mixed}", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<34} {'base':>12} {'new':>12} {'change':>8}")
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{key[0]:<12} {key[1]:<34} {b:>12.6g} {n:>12.6g} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
