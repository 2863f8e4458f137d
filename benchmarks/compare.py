"""Summarise one set of benchmark results, or compare two.

    python3 benchmarks/compare.py RESULTS_DIR
    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

A results directory holds the `<workload>-seed<n>-trace<t>.json` records that
`run.py --results DIR` (or `suite.py --out DIR`) writes. Every row is one
workload and one metric, with the median and quartiles of its runs
(`statistics.quantiles(values, n=4)`); spread is the quartile distance as a
share of the median.

With one directory a row reads `steady` when its spread is below a third of
the metric's bound in BENCHMARK.json. With two, a row reads `REGRESSION` when
the change's median is worse than the parent's by more than the bound, and
`unresolved` when either side's spread exceeds the bound, unless every run of
the change is better (then `ok`) or worse (then `REGRESSION`) than every run
of the parent. The exit status is 1 if any row regressed.

The end-to-end times are scaled by the host speed measured during the run
(see README.md). Each side's unscaled mean throughput, from the records'
`details`, is printed too, with the verdict `info`, so that a difference that
exists only after scaling can be seen.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
UNSCALED = "unscaled_mean_ops_per_s"

Runs = Dict[Tuple[str, str], List[float]]


def load(directory: Path, trace: int = 0) -> Runs:
    runs: Runs = defaultdict(list)
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            runs[(record["workload"], name)].append(float(metric["value"]))
        if UNSCALED in record["details"]:
            runs[(record["workload"], UNSCALED)].append(float(record["details"][UNSCALED]))
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def bounds() -> Dict[str, dict]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Tuple[str, float]:
    """(verdict, signed change of the median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = sign * (c_med - p_med) / abs(p_med)
    change_better = all(sign * c < sign * p for c in change for p in parent)
    change_worse = all(sign * c > sign * p for c in change for p in parent)
    noisy = max(spread(parent), spread(change)) > bound
    if worse > bound and (not noisy or change_worse):
        return "REGRESSION", worse
    if noisy and not change_better:
        return "unresolved", worse
    return "ok", worse


def fmt(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:14.4f} [{q1:.4f}, {q3:.4f}]"


def summarise(directory: Path) -> int:
    spec = bounds()
    print(f"{'workload':18s} {'metric':23s} {'n':>3s} {'median [q1, q3]':>44s} {'spread':>8s} {'bound':>6s}")
    for (workload, name), values in sorted(load(directory).items()):
        s = spread(values)
        if name in spec:
            bound = spec[name]["bound"]
            state = "steady" if s < bound / 3 else "NOISY"
            print(f"{workload:18s} {name:23s} {len(values):3d} {fmt(values):>44s} {s:8.2%} {bound:6.2f} {state}")
        else:
            print(f"{workload:18s} {name:23s} {len(values):3d} {fmt(values):>44s} {s:8.2%} {'-':>6s} info")
    layers = load(directory, trace=1)
    if layers:
        print("\nper-layer (traced runs)")
        for (workload, name), values in sorted(layers.items()):
            print(f"{workload:18s} {name:44s} {len(values):3d} {fmt(values)}")
    return 0


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = bounds()
    parent, change = load(parent_dir), load(change_dir)
    regressions = 0
    print(f"{'workload':18s} {'metric':23s} {'parent median [q1, q3]':>44s} "
          f"{'change median [q1, q3]':>44s} {'worse':>8s} {'bound':>6s} verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name in spec:
            state, worse = verdict(parent[key], change[key], spec[name]["better"], spec[name]["bound"])
            bound = f"{spec[name]['bound']:6.2f}"
        else:  # the unscaled throughput: higher is better, no bound
            state, bound = "info", f"{'-':>6s}"
            worse = -(statistics.median(change[key]) / statistics.median(parent[key]) - 1.0)
        regressions += state == "REGRESSION"
        print(f"{workload:18s} {name:23s} {fmt(parent[key]):>44s} {fmt(change[key]):>44s} "
              f"{worse:8.2%} {bound} {state}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]:18s} {key[1]:23s} measured on one side only")
    return 1 if regressions else 0


def main(argv: List[str]) -> int:
    if len(argv) == 1:
        return summarise(Path(argv[0]))
    if len(argv) == 2:
        return compare(Path(argv[0]), Path(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
