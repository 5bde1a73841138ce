"""Summarise and compare benchmark records written by `run.py --record PATH`.

    python3 perfbench/compare.py base.jsonl             # spread of one set
    python3 perfbench/compare.py base.jsonl new.jsonl   # new against base

For each workload and metric it prints the sample count, the median, the
quartiles and the spread (interquartile range over median), and with two
sets the change of the median, positive when the metric got worse. Bounds
and directions come from BENCHMARK.json. Records made on different kernel
backends are never compared: that difference would swamp any code change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict, set[str]]:
    """Metric values by (workload, trace, metric), and the backends seen."""
    values: dict[tuple, list[float]] = defaultdict(list)
    backends = set()
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        backends.add(record["env"]["backend"])
        for name, metric in record["metrics"].items():
            values[(record["workload"], record["trace"], name)].append(metric["value"])
    if len(backends) > 1:
        sys.exit(f"{path}: records from several backends {sorted(backends)}")
    return values, backends


def summary(samples: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text()) if SPEC.exists() else {}
    rules = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    base, base_backends = load(args.base)
    new, new_backends = load(args.new) if args.new else ({}, base_backends)
    if base_backends != new_backends:
        sys.exit(f"refusing to compare backends {sorted(base_backends)}"
                 f" against {sorted(new_backends)}")

    print(f"{'workload':<11} {'metric':<32} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6}" + (f" {'change':>8}" if args.new else ""))
    worst = 0
    for key in sorted(base):
        workload, trace, name = key
        median, q1, q3, spread = summary(base[key])
        rule = rules.get(name, {})
        bound = rule.get("bound")
        line = (f"{workload:<11} {name:<32} {len(base[key]):>3} {median:>12.6g} {q1:>12.6g}"
                f" {q3:>12.6g} {spread:>7.3f} {bound if bound is not None else '-':>6}")
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, worst = " SPREAD>BOUND", 1
        if args.new and key in new:
            new_median = statistics.median(new[key])
            sign = 1 if rule.get("better") == "lower" else -1
            change = sign * (new_median - median) / median if median else 0.0
            line += f" {change:>+8.3f}"
            if bound is not None and change > bound:
                flag, worst = flag + " WORSE", 1
        print(line + flag)
    return worst


if __name__ == "__main__":
    sys.exit(main())
