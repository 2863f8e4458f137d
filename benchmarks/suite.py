"""Run the benchmark over several seeds and workloads, then summarise.

    python3 benchmarks/suite.py --out results/parent --seeds 1-10
    python3 benchmarks/suite.py --out results/traced --seeds 1-3 --trace 1

Runs `run.py` once per (seed, workload), one process at a time, seeds in the
outer loop so that slow drift of the host spreads over every workload. Each
record lands in `--out`; the summary is `compare.py --out`'s.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List

import compare

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: List[str]) -> int:
    spec = json.loads(compare.BENCHMARK_JSON.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, required=True, help="directory for the run records")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    failures = 0
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace), "--results", str(args.out)],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            ok = proc.returncode == 0 and json.loads(last).get("correct") is True
            failures += not ok
            print(f"seed {seed:3d} {workload:18s} {'ok' if ok else 'FAILED'}", flush=True)
            if not ok:
                sys.stderr.write(proc.stderr[-4000:])
    compare.summarise(args.out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
